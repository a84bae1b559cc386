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
from .trainer import ScheduleSpec, _validate as _validate_run


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
    "problem.noise": ("optstr", None, "noise override: none | gaussian | bernoulli_pm (not classification)"),
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
    "schedule.c_beta": ("float", "36", "tied momentum coupling (beta_t = 1 - c_beta*gamma_t*L)"),
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

# keys that only some problem kinds, rules or attacks read:
# key -> (selecting key, its readers). A reader (value, key) reads it only
# while that other key is set. problem.kappa is read for every kind
# (materialize's momentum warning), so it is not listed.
_READ_ONLY_BY = {
    "problem.mu": ("problem.kind", ("hetero", "noise")),
    "problem.G": ("problem.kind", ("hetero", "synthetic")),
    "problem.B": ("problem.kind", ("hetero", "noise", "synthetic")),
    "problem.sigma": ("problem.kind", ("noise", ("synthetic", "problem.noise"),
                                       ("random_quadratic", "problem.noise"))),
    "problem.d": ("problem.kind", ("hetero", "synthetic", "random_quadratic")),
    "problem.n": ("problem.kind", ("synthetic", "random_quadratic", "classification")),
    "problem.k": ("problem.kind", ("synthetic",)),
    "problem.a": ("problem.kind", ("synthetic",)),
    "problem.b": ("problem.kind", ("random_quadratic", "classification")),
    "problem.noise": ("problem.kind", ("synthetic", "random_quadratic", "classification")),
    "problem.shared_curvature": ("problem.kind", ("random_quadratic",)),
    "problem.n_classes": ("problem.kind", ("classification",)),
    "problem.dim": ("problem.kind", ("classification",)),
    "problem.samples_per_class": ("problem.kind", ("classification",)),
    "problem.alpha": ("problem.kind", ("classification",)),
    "problem.minibatch": ("problem.kind", ("classification",)),
    "problem.data_seed": ("problem.kind", ("random_quadratic", "classification")),
    "aggregator.iters": ("aggregator.rule", ("gm",)),
    "aggregator.nu": ("aggregator.rule", ("gm",)),
    "aggregator.q": ("aggregator.rule", ("multi_krum", "cwtm")),
    "aggregator.variant": ("aggregator.rule", ("oracle_adversarial",)),
    "attack.alphas": ("attack.kind", ("alie",)),
}

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def parse_config_text(text: str, allow_sweep_keys: bool = False) -> dict:
    """Parse flat key=value text into a raw {key: string} dict, validating
    key names and syntax (not yet values)."""
    known = dict(_REGISTRY)
    if allow_sweep_keys:
        known.update(_SWEEP_REGISTRY)
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
    known = dict(_REGISTRY)
    if allow_sweep_keys:
        known.update(_SWEEP_REGISTRY)
    out = {}
    for key, (tag, default, _help) in known.items():
        if key in kv_raw:
            out[key] = _convert(key, tag, kv_raw[key])
        elif default is not None:
            out[key] = _convert(key, tag, default)
        else:
            out[key] = None
    return out


@dataclass
class LoadedConfig:
    kv: dict           # fully resolved typed values (echo source)
    config: RunConfig
    warnings: list


def _build_problem(kv: dict):
    """The problem instance the problem.* keys describe. Instances are
    immutable, so equal keys share one: a config set-up that materializes
    many runs of one problem (a sweep, a benchmark's run mix) builds it once.
    Each value is keyed with its repr, which tells -0.0 from 0.0; a build
    that raises is not kept."""
    return _problem_of(tuple(sorted((k, v, repr(v)) for k, v in kv.items()
                                    if k.startswith("problem."))))


@functools.lru_cache(maxsize=64)
def _problem_of(items: tuple):
    return _new_problem({k: v for k, v, _ in items})


def _new_problem(kv: dict):
    """Build the instance; it reads exactly the keys that _reads finds read
    for its kind, and problem.kappa for hetero and noise."""
    kind = kv["problem.kind"]
    if kind == "hetero":
        return build_hetero_lower_bound(
            mu=kv["problem.mu"], G=kv["problem.G"], B=kv["problem.B"],
            kappa=kv["problem.kappa"], d=kv["problem.d"],
        )
    if kind == "noise":
        return build_noise_lower_bound(
            mu=kv["problem.mu"], B=kv["problem.B"], sigma=kv["problem.sigma"],
            kappa=kv["problem.kappa"],
        )
    if kind == "synthetic":
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
        inst = with_noise(
            inst, NoiseModel(kind=kv["problem.noise"], sigma=kv["problem.sigma"])
        )
    return inst


def _reads(kv: dict, key: str) -> bool:
    """Whether the configured problem kind, rule or attack reads `key`."""
    selector, readers = _READ_ONLY_BY[key]
    return any(kv[selector] == r if isinstance(r, str)
               else kv[selector] == r[0] and kv[r[1]] is not None for r in readers)


def _unread_keys(kv: dict) -> list:
    """A warning for each key set away from its default (or set at all,
    if it has none) that the configured problem kind, rule or attack never
    reads."""
    out = []
    for key, (selector, readers) in _READ_ONLY_BY.items():
        tag, default, _help = _REGISTRY[key]
        if _reads(kv, key) or kv[key] == (
                None if default is None else _convert(key, tag, default)):
            continue
        where = f"{selector} = {kv[selector]}"
        where += "".join(f" with {r[1]} unset" for r in readers
                         if not isinstance(r, str) and r[0] == kv[selector])
        names = [r if isinstance(r, str) else f"{r[0]} with {r[1]} set" for r in readers]
        out.append(f"config key {key!r} is ignored: {where} does not read it "
                   f"(read by {' / '.join(names)} only)")
    return out


def materialize(kv: dict) -> LoadedConfig:
    """Build a fully validated RunConfig from resolved key values. All
    structural invariants are checked here, eagerly — not at run time."""
    warnings = _unread_keys(kv)
    inst = _build_problem(kv)
    n = inst.pop.n

    agg = AggregatorSpec(
        rule=kv["aggregator.rule"], n=n, b=kv["aggregator.b"],
        q=kv["aggregator.q"], iters=kv["aggregator.iters"],
        nu=kv["aggregator.nu"], kappa=kv["aggregator.kappa"],
        variant=kv["aggregator.variant"],
    )
    attack = AttackSpec(
        kind=kv["attack.kind"],
        byzantine_ids=frozenset(inst.pop.byzantine_ids),
        candidate_alphas=tuple(kv["attack.alphas"]),
    )
    gamma0 = kv["schedule.gamma0"]
    if gamma0 is None and kv["schedule.stepsize"] != "pl_piecewise":
        gamma0 = 0.1
    sched = ScheduleSpec(
        stepsize=kv["schedule.stepsize"], gamma0=gamma0,
        s0=kv["schedule.s0"], alpha1=kv["schedule.alpha1"],
        T_max=kv["schedule.T_max"], momentum=kv["schedule.momentum"],
        beta=kv["schedule.beta"], c_beta=kv["schedule.c_beta"],
    )
    kv = dict(kv)
    kv["schedule.gamma0"] = sched.gamma0  # echo the effective value

    x0_vals = kv["run.x0"]
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
        T=kv["run.T"], x0=x0, seed=kv["run.seed"],
        replicates=kv["run.replicates"],
    )
    _validate_run(config)  # eager: gamma*L bounds, dimension/id coherence

    kappa = agg.kappa if agg.kappa is not None else kv["problem.kappa"]
    B = inst.analytic.B
    # B * B overflows to inf on a huge finite B, where B**2 would raise
    kb2 = kappa * B * B if kappa is not None and B is not None else None
    if kb2 is not None and kb2 >= 1.0 / 56.0 and sched.momentum == "tied":
        warnings.append(
            f"kappa*B^2 = {kb2:.6g} >= 1/56: the momentum convergence "
            f"guarantee does not apply (descent constant 3/8 - 21*kappa*B^2 "
            f"becomes {3 / 8 - 21 * kb2:.4g})"
        )
    return LoadedConfig(kv=kv, config=config, warnings=warnings)


def load_run_config(path: str) -> LoadedConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    return materialize(resolve(parse_config_text(text)))


def render_config(kv: dict, sweep: bool = False) -> str:
    """Canonical echo of a resolved config (registry order, one key per
    line); round-trips through parse_config_text."""
    known = dict(_REGISTRY)
    if sweep:
        known.update(_SWEEP_REGISTRY)
    lines = []
    for key in known:
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
