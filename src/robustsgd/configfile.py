"""Flat `key = value` experiment configuration.

The format is deliberately primitive: one dotted key per line, '=' separator,
'#' starts a comment, blank lines ignored. No sections, no nesting, no
quoting. Every key has a typed entry in the registry below; unknown keys are
rejected eagerly with the offending name, and every value is validated at
parse time. docs/config_schema.txt documents the full schema.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .aggregators import AggregatorSpec
from .attacks import AttackSpec
from .core import ConfigurationError, DenseVector, RngStream, RunConfig
from .problems import (
    NoiseModel,
    build_classification_task,
    build_hetero_lower_bound,
    build_noise_lower_bound,
    build_random_quadratic_family,
    build_synthetic_family,
    with_noise,
)
from .trainer import C_BETA, ScheduleSpec, _validate as _validate_run


# key -> (type tag, default-as-string or None, help)
# type tags: int, float, str, bool, floatlist, optfloat, optint, optstr
_REGISTRY = {
    "problem.kind": ("str", "hetero", "hetero | noise | synthetic | random_quadratic | classification"),
    "problem.mu": ("float", "1.0", "quadratic curvature scale (hetero/noise)"),
    "problem.G": ("float", "1.0", "gradient-dissimilarity offset"),
    "problem.B": ("float", "0.5", "gradient-dissimilarity slope"),
    "problem.sigma": ("float", "1.0", "noise scale for the noise family / overrides"),
    "problem.kappa": ("optfloat", None, "robustness coefficient used for the drifted reference point"),
    "problem.d": ("int", "1", "parameter dimension (quadratic families)"),
    "problem.n": ("optint", None, "worker count (synthetic/random_quadratic/classification)"),
    "problem.k": ("int", "7", "paired-worker count of the synthetic family"),
    "problem.a": ("float", "1.0", "base curvature of the synthetic family"),
    "problem.b": ("int", "0", "Byzantine worker count (random_quadratic/classification)"),
    "problem.noise": ("optstr", None, "noise override: none | gaussian | bernoulli_pm (not noise/classification)"),
    "problem.shared_curvature": ("bool", "false", "random_quadratic: honest locals share curvature"),
    "problem.n_classes": ("int", "10", "classification: class count"),
    "problem.dim": ("int", "8", "classification: feature dimension"),
    "problem.samples_per_class": ("int", "20", "classification: samples per class"),
    "problem.alpha": ("float", "1.0", "classification: Dirichlet concentration"),
    "problem.minibatch": ("int", "8", "classification: minibatch size"),
    "problem.data_seed": ("int", "0", "seed for instance/data generation"),
    "aggregator.rule": ("str", "average", "average | krum | multi_krum | cwm | cwtm | gm | oracle_adversarial"),
    "aggregator.b": ("int", "0", "Byzantine count the rule defends against"),
    "aggregator.q": ("optint", None, "multi_krum selection size / cwtm trim count"),
    "aggregator.iters": ("int", "50", "gm (geometric median) Weiszfeld iteration count"),
    "aggregator.nu": ("float", "1e-8", "gm smoothing floor nu"),
    "aggregator.kappa": ("optfloat", None, "oracle_adversarial robustness coefficient"),
    "aggregator.variant": ("optstr", None, "oracle_adversarial: variance_sign | hetero_c1 | noise_c2"),
    "attack.kind": ("str", "none", "none | sign_flip | label_flip | alie"),
    "attack.alphas": ("floatlist", "-2,-1,-0.5,0.5,1,2", "alie candidate scalings"),
    "schedule.stepsize": ("str", "constant", "constant | invsqrt | pl_piecewise | cosine"),
    "schedule.gamma0": ("optfloat", None, "base step size (default 0.1; pl_piecewise derives 2/(alpha1*s0))"),
    "schedule.s0": ("optfloat", None, "pl_piecewise shift"),
    "schedule.alpha1": ("optfloat", None, "pl_piecewise rate constant"),
    "schedule.T_max": ("optint", None, "cosine horizon"),
    "schedule.momentum": ("str", "zero", "zero | constant | tied"),
    "schedule.beta": ("float", "0.0", "constant momentum parameter"),
    "schedule.c_beta": ("float", f"{C_BETA:g}", "tied momentum coupling (beta_t = 1 - c_beta*gamma_t*L)"),
    "run.T": ("int", "100", "iteration count"),
    "run.x0": ("floatlist", "1.0", "initial point: scalar broadcast or comma list"),
    "run.seed": ("int", "0", "master seed"),
    "run.replicates": ("int", "1", "replicate count averaged per sweep cell (run: 1 only)"),
}

# sweep files add these on top of a full base config
_SWEEP_REGISTRY = {
    "sweep.metric": ("str", "floor_estimate", "floor_estimate | final_f_gap"),
    "sweep.gamma0": ("floatlist", None, "gamma0 grid"),
    "sweep.momentum": ("strlist", None, "momentum grid: zero | constant:<beta> | tied[:<c_beta>]"),
    "sweep.T": ("intlist", None, "horizon grid"),
    "sweep.B_sq": ("floatlist", None, "B^2 grid (rebuilds the problem per cell)"),
    "sweep.kappa": ("floatlist", None, "kappa grid (re-parameterizes rule and drift reference)"),
    "sweep.seed": ("optint", None, "sweep master seed (default run.seed)"),
}

def _keys(sweep: bool) -> dict:
    """The registry a run file (sweep=False) or a sweep file reads."""
    return {**_REGISTRY, **_SWEEP_REGISTRY} if sweep else _REGISTRY


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} file {path}: {exc}") from None


_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def parse_config_text(text: str, allow_sweep_keys: bool = False) -> dict:
    """Parse flat key=value text into a raw {key: string} dict, validating
    key names and syntax (not yet values)."""
    known = _keys(allow_sweep_keys)
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"line {lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigurationError(f"line {lineno}: unknown config key {key!r}")
        if key in out:
            raise ConfigurationError(f"line {lineno}: duplicate config key {key!r}")
        out[key] = value
    return out


def _convert(key: str, tag: str, raw: str):
    try:
        if tag == "int" or tag == "optint":
            return int(raw)
        if tag == "float" or tag == "optfloat":
            v = float(raw)
            if not math.isfinite(v):
                raise ValueError
            return v
        if tag == "bool":
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError
        if tag in ("floatlist", "intlist", "strlist"):
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if not parts:
                raise ValueError
            if tag == "floatlist":
                vals = [float(p) for p in parts]
                if not all(math.isfinite(v) for v in vals):
                    raise ValueError
                return vals
            if tag == "intlist":
                return [int(p) for p in parts]
            return parts
        return raw  # str / optstr
    except ValueError:
        raise ConfigurationError(
            f"config key {key!r}: expected {tag}, got {raw!r}"
        ) from None


def resolve(kv_raw: dict, allow_sweep_keys: bool = False) -> dict:
    """Apply defaults and convert every value to its declared type."""
    out = {}
    for key, (tag, default, _help) in _keys(allow_sweep_keys).items():
        if key in kv_raw:
            out[key] = _convert(key, tag, kv_raw[key])
        elif default is not None:
            out[key] = _convert(key, tag, default)
        else:
            out[key] = None
    return out


_DEFAULTS = resolve({})


@dataclass
class LoadedConfig:
    kv: dict           # fully resolved typed values (echo source)
    config: RunConfig
    warnings: list
    read: frozenset    # the keys materialize read


class _Reads(dict):
    """A dict that records the keys read by subscription."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _build_problem(kv: dict):
    """The problem instance the problem.* keys describe. Instances are
    immutable, so equal keys share one: a config set-up that materializes
    many runs of one problem (a sweep, a benchmark's run mix) builds it once.
    Each value is keyed with its repr, which tells -0.0 from 0.0; a build
    that raises is not kept. The keys the build read are read from `kv`
    again, so a recording mapping sees a cached instance's keys as read."""
    inst, read = _problem_of(tuple(sorted((k, v, repr(v)) for k, v in kv.items()
                                          if k.startswith("problem."))))
    for key in read:
        kv[key]
    return inst


@functools.lru_cache(maxsize=64)
def _problem_of(items: tuple):
    kv = _Reads({k: v for k, v, _ in items})
    return _new_problem(kv), frozenset(kv.read)


def _new_problem(kv: dict):
    """Build the instance, reading only the keys its kind uses."""
    kind = kv["problem.kind"]
    if kind == "hetero":
        inst = build_hetero_lower_bound(
            mu=kv["problem.mu"], G=kv["problem.G"], B=kv["problem.B"],
            kappa=kv["problem.kappa"], d=kv["problem.d"],
        )
    elif kind == "noise":
        return build_noise_lower_bound(
            mu=kv["problem.mu"], B=kv["problem.B"], sigma=kv["problem.sigma"],
            kappa=kv["problem.kappa"],
        )
    elif kind == "synthetic":
        n = kv["problem.n"] if kv["problem.n"] is not None else 20
        inst = build_synthetic_family(
            n=n, k=kv["problem.k"], a=kv["problem.a"],
            G=kv["problem.G"], B=kv["problem.B"], d=kv["problem.d"],
        )
    elif kind == "random_quadratic":
        n = kv["problem.n"] if kv["problem.n"] is not None else 8
        inst = build_random_quadratic_family(
            n=n, d=kv["problem.d"], rng=RngStream(kv["problem.data_seed"], 0, "instance"),
            b=kv["problem.b"], shared_curvature=kv["problem.shared_curvature"],
        )
    elif kind == "classification":
        if kv["problem.noise"] is not None:
            raise ConfigurationError(
                "config key 'problem.noise': a classification task's noise is its "
                "minibatch draw (problem.minibatch); leave problem.noise unset"
            )
        n = kv["problem.n"] if kv["problem.n"] is not None else 8
        return build_classification_task(
            n_workers=n, b=kv["problem.b"], n_classes=kv["problem.n_classes"],
            dim=kv["problem.dim"], samples_per_class=kv["problem.samples_per_class"],
            alpha=kv["problem.alpha"], seed=kv["problem.data_seed"],
            minibatch=kv["problem.minibatch"],
        )
    else:
        raise ConfigurationError(f"config key 'problem.kind': unknown kind {kind!r}")
    if kv["problem.noise"] is not None:
        sigma = kv["problem.sigma"] if kv["problem.noise"] != "none" else 0.0
        inst = with_noise(inst, NoiseModel(kind=kv["problem.noise"], sigma=sigma))
    return inst


def materialize(kv: dict) -> LoadedConfig:
    """Build a fully validated RunConfig from resolved key values. All
    structural invariants are checked here, eagerly — not at run time. A key
    is read only where its value is used; each key set away from its default
    that the build did not read gets a warning."""
    reads = _Reads(kv)
    inst = _build_problem(reads)

    rule = reads["aggregator.rule"]
    used = {}
    if rule in ("multi_krum", "cwtm"):
        used["q"] = reads["aggregator.q"]
    elif rule == "gm":
        used.update(iters=reads["aggregator.iters"], nu=reads["aggregator.nu"])
    elif rule == "oracle_adversarial":
        used.update(kappa=reads["aggregator.kappa"], variant=reads["aggregator.variant"])
    agg = AggregatorSpec(rule=rule, n=inst.pop.n, b=reads["aggregator.b"], **used)

    kind = reads["attack.kind"]
    used = {"candidate_alphas": tuple(reads["attack.alphas"])} if kind == "alie" else {}
    attack = AttackSpec(kind=kind, **used)

    stepsize, momentum = reads["schedule.stepsize"], reads["schedule.momentum"]
    used = {}
    if stepsize == "pl_piecewise":
        used.update(s0=reads["schedule.s0"], alpha1=reads["schedule.alpha1"])
    elif stepsize == "cosine":
        used["T_max"] = reads["schedule.T_max"]
    if momentum == "constant":
        used["beta"] = reads["schedule.beta"]
    elif momentum == "tied":
        used["c_beta"] = reads["schedule.c_beta"]
    gamma0 = reads["schedule.gamma0"]
    if gamma0 is None and stepsize != "pl_piecewise":
        gamma0 = 0.1
    sched = ScheduleSpec(stepsize=stepsize, gamma0=gamma0, momentum=momentum, **used)

    x0_vals = reads["run.x0"]
    if len(x0_vals) == 1:
        x0 = DenseVector(np.full(inst.dim, x0_vals[0]))
    elif len(x0_vals) == inst.dim:
        x0 = DenseVector(x0_vals)
    else:
        raise ConfigurationError(
            f"config key 'run.x0': got {len(x0_vals)} components for a "
            f"{inst.dim}-dimensional instance (scalar broadcast or full vector)"
        )

    config = RunConfig(
        problem=inst, aggregator=agg, attack=attack, schedule=sched,
        T=reads["run.T"], x0=x0, seed=reads["run.seed"],
        replicates=reads["run.replicates"],
    )
    _validate_run(config)  # eager: gamma*L bounds, dimension coherence

    warnings = []
    B = inst.analytic.B
    if momentum == "tied" and B is not None:
        kappa = reads["aggregator.kappa"]
        if kappa is None:
            kappa = reads["problem.kappa"]
        # B * B overflows to inf on a huge finite B, where B**2 would raise
        if kappa is not None and (kb2 := kappa * B * B) >= 1.0 / 56.0:
            warnings.append(
                f"kappa*B^2 = {kb2:.6g} >= 1/56: the momentum convergence "
                f"guarantee does not apply (descent constant 3/8 - 21*kappa*B^2 "
                f"becomes {3 / 8 - 21 * kb2:.4g})"
            )

    # a warning names the string-valued keys of its key's section that were read
    selectors = [key for key, (tag, _default, _help) in _REGISTRY.items()
                 if tag in ("str", "optstr") and key in reads.read]
    ignored = []
    for key, default in _DEFAULTS.items():
        if key not in reads.read and kv[key] != default:
            section = key.split(".")[0] + "."
            in_force = ", ".join(f"{k} unset" if kv[k] is None else f"{k} = {kv[k]}"
                                 for k in selectors if k.startswith(section))
            ignored.append(f"config key {key!r} is ignored: nothing reads it under {in_force}")
    echo = {**kv, "schedule.gamma0": sched.gamma0}  # the effective value
    return LoadedConfig(kv=echo, config=config, warnings=ignored + warnings,
                        read=frozenset(reads.read))


def load_run_config(path: str) -> LoadedConfig:
    return materialize(resolve(parse_config_text(_read_text(path, "config"))))


def render_config(kv: dict, sweep: bool = False) -> str:
    """Canonical echo of a resolved config (registry order, one key per
    line); round-trips through parse_config_text."""
    lines = []
    for key in _keys(sweep):
        val = kv.get(key)
        if val is None:
            continue
        if isinstance(val, bool):
            text = "true" if val else "false"
        elif isinstance(val, list):
            text = ",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in val)
        elif isinstance(val, float):
            text = format(val, ".17g")
        else:
            text = str(val)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
