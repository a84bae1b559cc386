"""Command-line front end.

Subcommands: run, sweep, verify, estimate-kappa, certify. Every artifact
lands under a run directory together with the resolved configuration, so a
directory is a self-describing record of what was executed.

Exit codes: 0 success, 2 configuration error, 3 verification/certification
failure or a robustness violation found by estimate-kappa, 4 numeric failure
(NaN or overflow mid-run) or a violated internal contract
(ContractViolation).

A diverged `run` exits 4 after writing the trace rows before the failing
iteration and a summary.json with "status": "diverged" (else "ok").

`sweep` exits 0 when some cells fail: a cell that raises NumericFailure
becomes a `diverged` row of cells.csv, and one that raises another of the
library's errors (ConfigurationError, DataError, ContractViolation) a
`failed` row. Either row carries its error and is listed on stderr, and
best.csv picks neither. Any other exception inside a cell is a fault of the
program and propagates.

An --out path that cannot be made a directory (an existing file, or a path
under one) exits 2 with a message naming the path. So does a command whose
arrays cannot be allocated (a run.T, sweep.T or --dim too large for memory),
with NumPy's one-line MemoryError message.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from .aggregators import RULES, AggregatorSpec, estimate_kappa
from .configfile import load_run_config, render_config
from .core import ConfigurationError, ContractViolation, DataError, NumericFailure, RngStream
from .problems import certify_dissimilarity
from .sweep import load_sweep, run_sweep
from .trainer import run
from .verify import SUITES, run_verification

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_NUMERIC = 4


def _default_out(prefix: str) -> str:
    return f"runs/{prefix}-{time.strftime('%Y%m%d-%H%M%S')}"


def _ensure_dir(path: str) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _json_safe(obj):
    """NaN/inf have no JSON spelling; map them to null recursively."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path: Path, obj) -> str:
    """Write obj as strict JSON (NaN/inf as null) and return the text."""
    text = json.dumps(_json_safe(obj), indent=2, sort_keys=True)
    path.write_text(text + "\n")
    return text


def cmd_run(args) -> int:
    loaded = load_run_config(args.config)
    if loaded.config.replicates != 1:
        raise ConfigurationError(
            "config key 'run.replicates': robustsgd run executes one replicate; "
            "replicates are averaged by sweeps only"
        )
    out = _ensure_dir(args.out or _default_out("run"))
    for w in loaded.warnings:
        print(f"warning: {w}", file=sys.stderr)
    (out / "resolved.cfg").write_text(render_config(loaded.kv))

    try:
        record = run(loaded.config)
    except NumericFailure as exc:
        # leave the rows before the failure and say where it happened
        exc.record.to_csv(out / "trace.csv")
        _write_json(out / "summary.json", {"status": "diverged", "iteration": exc.iteration,
                                           "column": exc.column, "error": str(exc)})
        raise
    record.to_csv(out / "trace.csv")
    if args.emit_plot_data:
        lines = ["t," + ",".join(f"x{j}" for j in range(record.xs.shape[1]))]
        for t, x in enumerate(record.xs):
            lines.append(f"{t}," + ",".join(f"{v:.17g}" for v in x))
        (out / "plot_data.csv").write_text("\n".join(lines) + "\n")
    summary = _write_json(out / "summary.json", {**record.summary(), "status": "ok"})
    print(f"run artifacts in {out}")
    print(summary)
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = load_sweep(args.sweepfile)
    out = _ensure_dir(args.out or _default_out("sweep"))
    (out / "resolved_sweep.cfg").write_text(render_config(spec.resolved_kv(), sweep=True))
    result = run_sweep(spec)
    for w in dict.fromkeys(w for c in result.cells for w in c.warnings):
        print(f"warning: {w}", file=sys.stderr)
    result.cells_csv(out / "cells.csv")
    result.best_csv(out / "best.csv")
    bad = [c for c in result.cells if c.status != "ok"]
    diverged = sum(c.status == "diverged" for c in bad)
    print(f"sweep: {len(result.cells)} cells, {len(bad) - diverged} failed, "
          f"{diverged} diverged; artifacts in {out}")
    for c in bad:
        print(f"  cell {c.index} {c.status}: {c.error}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_verification(args.suite)
    print(report.render())
    if args.json:
        print(json.dumps(_json_safe(report.to_json()), indent=2))
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_estimate_kappa(args) -> int:
    spec = AggregatorSpec(rule=args.rule, n=args.n, b=args.b, q=args.q)
    est = estimate_kappa(spec, samples=args.samples, dim=args.dim,
                         rng=RngStream(args.seed, 0, "estimate-kappa"))
    payload = {
        "rule": args.rule, "n": args.n, "b": args.b,
        "kappa_hat": est.kappa_hat, "samples": est.samples,
        "violation": est.violation,
    }
    if est.violation:
        payload["worst_case_input"] = est.worst_case_input
    print(json.dumps(_json_safe(payload), indent=2, sort_keys=True))
    return EXIT_VERIFY if est.violation else EXIT_OK


def cmd_certify(args) -> int:
    loaded = load_run_config(args.instance)
    for w in loaded.warnings:
        print(f"warning: {w}", file=sys.stderr)
    res = certify_dissimilarity(loaded.config.problem, args.G, args.B)
    payload = {"status": res.status, "margin": res.margin}
    if res.witness is not None:
        payload["witness"] = list(res.witness.values)
    print(json.dumps(_json_safe(payload), indent=2, sort_keys=True))
    return EXIT_OK if res.passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustsgd",
        description="simulator and verification harness for robust distributed SGD",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one training run from a config file")
    p.add_argument("config", help="key=value config file")
    p.add_argument("--out", default=None, help="run directory (default runs/run-<stamp>)")
    p.add_argument("--emit-plot-data", action="store_true",
                   help="also write the per-iteration iterate trajectory as CSV")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="run a grid sweep from a sweep file")
    p.add_argument("sweepfile", help="config file with sweep.* grid keys")
    p.add_argument("--out", default=None, help="sweep directory (default runs/sweep-<stamp>)")
    p.add_argument("--workers", type=int, default=1, choices=(1,),
                   help="accepted for compatibility; cells run one after another")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run the self-verification battery")
    p.add_argument("--suite", choices=SUITES, default="fast")
    p.add_argument("--json", action="store_true", help="also print the report as JSON")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("estimate-kappa", help="empirical robustness coefficient of a rule")
    p.add_argument("--rule", required=True, choices=RULES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_estimate_kappa)

    p = sub.add_parser("certify", help="exact gradient-dissimilarity certificate")
    p.add_argument("--instance", required=True, help="config file defining the problem.* section")
    p.add_argument("--G", type=float, required=True)
    p.add_argument("--B", type=float, required=True)
    p.set_defaults(fn=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, DataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # e.g. an --out path that is a file or lies under one, or a T or --dim
    # too large to allocate
    except (OSError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
