"""robustsgd benchmark: one closed-loop client, one process.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
one untraced and one traced pass and reports the per-layer metrics. The last
line of standard output is the JSON result; the lines before it print every
metric by name with its unit and sample count, and the machine record.
--record rewrites the workload's recorded digests in digests.json, and
--smoke runs one tiny pass (one run per config group). See README.md.
"""

import os
import sys

# Pin BLAS/OpenMP pools before NumPy loads, so a 2-core box measures the
# program and not the scheduler; the values found are kept for the record.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS_ON_ENTRY = {v: os.environ.get(v) for v in THREAD_VARS}
os.environ.update({v: "1" for v in THREAD_VARS})

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("adversarial_quadratic", "softmax_minibatch", "closed_form_verify")
SETUP_REPEATS = 9

# name -> (unit, better)
END_TO_END = {
    "steps_per_s": ("steps/s", "higher"),
    "run_ms_p50": ("ms", "lower"),
    "run_ms_p90": ("ms", "lower"),
    "pass_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _calls(name):
    return (f"{name}.calls", "count")


def _self(name):
    return (f"{name}.self_s", "s")


PER_LAYER = dict([
    _calls("core.DenseVector"), _self("core.DenseVector"), _calls("core.RngStream"),
    _calls("problems.stochastic_gradient"), _self("problems.stochastic_gradient"),
    _calls("problems.loss_grad"), _self("problems.loss_grad"),
    _calls("problems.grad_f_H"), _self("problems.grad_f_H"),
    _calls("problems.f_H"), _self("problems.f_H"),
    _self("problems.certify_dissimilarity"),
    _calls("attacks.alie"), _self("attacks.alie"), _calls("attacks.sign_flip"),
    _calls("attacks.byzantine_oracle"), _self("attacks.byzantine_oracle"),
    _calls("aggregators.aggregate"), _self("aggregators.aggregate"),
    *[_self(f"aggregators.{r}") for r in ("krum", "multi_krum", "cwm", "cwtm",
                                          "geometric_median", "oracle_adversarial")],
    _self("aggregators.estimate_kappa"),
    ("aggregators.calls_per_step", "calls/step"),
    ("trainer.steps", "steps"),
    _calls("trainer.run"), _self("trainer.run"), _calls("trainer.schedules"),
    _self("trainer.run_noise_floor_replicates"),
    _calls("sweep.run_cell"), _self("sweep.run_cell"),
    _calls("configfile.materialize"), _self("configfile.materialize"),
    _self("verify.noise_floor_exact_moments"),
    *[(f"verify.check.{row}.runtime_s", "s") for row in (
        "floor_formula_synthetic", "descent_no_flags", "momentum_noise_suppression",
        "rate_ratio_band", "noise_mc_vs_recursion")],
    _self("cli.artifacts"),
    ("trace.overhead_frac", "ratio"),
])


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one tiny pass")
    p.add_argument("--record", action="store_true",
                   help="record the workload's digests for every pool seed")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args):
    """Import robustsgd and build the workload's inputs: what set-up costs.
    Returns (raw seconds, workload, inputs)."""
    t0 = time.perf_counter()
    import robustsgd

    if Path(robustsgd.__file__).resolve().parent != SRC / "robustsgd":
        raise RuntimeError(f"imported robustsgd from {robustsgd.__file__}, not {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.build(args.seed, args.smoke, OUT)
    return time.perf_counter() - t0, wl, inputs


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter (cold imports), measured inside it
    and read at reference speed with the kernel run right after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(args) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env_on_entry": THREADS_ON_ENTRY,
        "thread_env_pinned": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(wl, inputs, seconds: float, smoke: bool):
    """Whole passes over the workload's fixed op list until `seconds` have
    elapsed (one pass for --smoke)."""
    passes = []
    start = time.perf_counter()
    while not passes or (not smoke and time.perf_counter() - start < seconds):
        gc.collect()
        passes.append(wl.run_pass(inputs))
    return passes


def end_to_end(passes, setup_samples):
    """Each op's time is its best over the passes, at reference speed
    (refclock.py); a pass is the sum over its ops."""
    ops = set(passes[0].op_s).intersection(*(p.op_s for p in passes[1:]))
    ref = {op: min(p.op_s[op] for p in passes) for op in ops}
    raw = {op: min(p.raw_s[op] for p in passes) for op in ops}
    runs = [op for op in ops if op in passes[0].runs]
    run_ms = [1e3 * ref[op] for op in runs]
    steps = sum(passes[0].runs[op] for op in runs)
    pass_s = sum(ref.values())
    n, r = len(run_ms), len(passes)
    values = {
        "steps_per_s": steps / pass_s,
        "run_ms_p50": statistics.median(run_ms),
        "run_ms_p90": statistics.quantiles(run_ms, n=10)[8],
        "pass_s": pass_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "steps_per_s": f"{steps} steps per pass / pass_s",
        "run_ms_p50": f"n={n} trainer.run calls, each the best of {r} passes",
        "run_ms_p90": f"n={n}, {n - int(0.9 * n)} beyond",
        "pass_s": f"{len(ref)} timed units; raw {sum(raw.values()):.4f} s",
        "setup_s": f"median of {len(setup_samples)} fresh-interpreter set-ups",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    for key in ("verify", "sweep"):
        part = [op for op in ref if op.startswith(key + ".")]
        values[f"{key}_s"] = sum(ref[op] for op in part) if part else None
        notes[f"{key}_s"] = (f"part of pass_s; raw {sum(raw[op] for op in part):.4f} s"
                             if part else "no such operation in this workload")
    return values, notes, ref


def per_layer(tracer, untraced, traced):
    values, notes = {}, {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if base in tracer.calls:
            if base in tracer.missing:
                values[name] = None
                notes[name] = f"{base} no longer exists; nothing to time"
            else:
                values[name] = tracer.calls[base] if kind == "calls" else tracer.self_s[base]
    rows = untraced.extra.get("verify_rows")
    for name in PER_LAYER:
        if name.startswith("verify.check."):
            row = name[len("verify.check."):-len(".runtime_s")]
            if rows is None:
                values[name] = 0.0
                notes[name] = "no verify in this workload"
            else:
                values[name] = rows.get(row)
                if values[name] is None:
                    notes[name] = f"verify reported no row {row!r}"
    values["trainer.steps"] = tracer.steps
    values["aggregators.calls_per_step"] = (
        tracer.aggregate_in_run / tracer.steps if tracer.steps else None)
    values["trace.overhead_frac"] = (traced.wall_s - untraced.wall_s) / untraced.wall_s
    notes["trace.overhead_frac"] = (f"traced {traced.wall_s:.3f} s vs untraced "
                                    f"{untraced.wall_s:.3f} s for one pass")
    return values, notes


def _fmt(v):
    if v is None:
        return "null"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "robustsgd" / "__init__.py").is_file():
        print(f"perfbench: no robustsgd sources in {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.setup_probe:
        seconds = setup(args)[0]
        from refclock import K_REF_S, kernel_s

        print(seconds * K_REF_S / kernel_s())
        return 0
    if args.record:
        _, wl, _ = setup(args)
        print(f"recorded {wl.record(OUT)} outputs of {wl.name} in digests.json")
        return 0

    setup_samples = [probe_setup(args) for _ in range(1 if args.smoke else SETUP_REPEATS)]
    own_setup, wl, inputs = setup(args)
    machine = machine_record(args)
    wl.warmup(inputs)

    if args.trace == 0:
        passes = measure(wl, inputs, args.seconds, args.smoke)
        values, notes, op_s = end_to_end(passes, setup_samples)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    else:
        from tracing import Tracer

        untraced = wl.run_pass(inputs, calibrate=False)
        tracer = Tracer()
        tracer.install()
        try:
            traced = wl.run_pass(inputs, tracer, calibrate=False)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        values, notes = per_layer(tracer, untraced, traced)
        op_s = traced.op_s
        units = PER_LAYER
        tracer.write_spans(OUT / f"spans-{wl.name}-seed{args.seed}.tsv")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    control_ok = wl.control(passes[0])
    correct = failed == 0 and attempted > 0 and control_ok

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
          f"{attempted} ops, set-up in this process {own_setup:.3f} s")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, value in values.items():
        unit, better = END_TO_END.get(name, (PER_LAYER.get(name, "s"), "lower"))
        better = better if args.trace == 0 else ""
        extra = "; ".join(x for x in (better and f"{better} is better", notes.get(name)) if x)
        print(f"  {name:50} {_fmt(value):>14} {unit:<10} {extra}")
    print(f"  {'failed_frac':50} {_fmt(failed / max(attempted, 1)):>14} {'ratio':<10} "
          f"lower is better; {failed} of {attempted} ops failed")
    print(f"  gate: one-ulp control {'rejected' if control_ok else 'NOT rejected'}")
    for err in [e for p in passes for e in p.errors][:10]:
        print(f"  failed op {err}", file=sys.stderr)

    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": machine, "values": values, "notes": notes, "op_s": op_s,
                    **result},
                   indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
