"""Grid sweeps with best-of selection.

A sweep file is an ordinary run config plus sweep.* keys declaring grids
over gamma0, momentum, T, B^2 and kappa. Cells are enumerated in canonical
axis order (kappa, B_sq, gamma0, momentum, T — each grid in file order) and
each cell derives its seed from (master seed, cell index), so a cell's
result does not depend on which cells ran before it. Cells run one after
another in canonical order. A cell that diverges (NumericFailure) is
recorded as `diverged`, one that raises another of the library's errors as
`failed`, and the sweep continues.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace as dc_replace
from typing import Optional

import numpy as np

from .configfile import _REGISTRY, _read_text, _reads, materialize, parse_config_text, resolve
from .core import ConfigurationError, ContractViolation, DataError, NumericFailure, RunConfig
from .trainer import C_BETA, run

AXES = ("kappa", "B_sq", "gamma0", "momentum", "T")
METRICS = ("floor_estimate", "final_f_gap")


def _parse_momentum_token(tok: str):
    kind, *values = tok.split(":")
    try:
        values = [float(v) for v in values]
    except ValueError:
        values = [math.nan]  # not a number: refused with the non-finite ones
    if all(math.isfinite(v) for v in values):
        if kind == "zero" and not values:
            return ("zero", None)
        if kind == "constant" and len(values) == 1:
            return ("constant", values[0])
        if kind == "tied" and len(values) <= 1:
            return ("tied", values[0] if values else C_BETA)
    raise ConfigurationError(
        f"sweep momentum token {tok!r}: expected zero | constant:<beta> | tied[:<c_beta>] "
        "with finite numbers"
    )


@dataclass(frozen=True)
class SweepSpec:
    """Base config plus grids: `grids` maps an axis of AXES to its values.
    An absent or empty axis is the singleton (None,), meaning 'keep the
    base value'."""

    base_kv: dict
    metric: str = "floor_estimate"
    grids: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ConfigurationError(
                f"sweep metric must be one of {METRICS}, got {self.metric!r}"
            )
        if not set(self.grids) <= set(AXES):
            raise ConfigurationError(f"sweep grids take the axes {AXES}; got {sorted(self.grids)}")
        object.__setattr__(self, "grids", {a: tuple(self.grids.get(a) or (None,)) for a in AXES})
        if (
            self.base_kv.get("schedule.stepsize") == "pl_piecewise"
            and any(v is not None for v in self.grids["gamma0"])
        ):
            raise ConfigurationError(
                "a gamma0 grid cannot be combined with the pl_piecewise stepsize "
                "(gamma0 is derived as 2/(alpha1*s0))"
            )
        for tok in self.grids["momentum"]:
            if tok is not None:
                _parse_momentum_token(tok)

    @property
    def n_cells(self) -> int:
        return int(np.prod([len(g) for g in self.grids.values()]))

    def resolved_kv(self) -> dict:
        """The base config plus the sweep.* keys that reproduce this sweep,
        the seed echoed as sweep.seed."""
        grids = {f"sweep.{a}": list(g) for a, g in self.grids.items() if g != (None,)}
        return {**self.base_kv, "sweep.metric": self.metric, "sweep.seed": self.seed, **grids}

    def cell_params(self):
        """All cells in canonical order as (index, {axis: value})."""
        for index, combo in enumerate(itertools.product(*self.grids.values())):
            yield index, dict(zip(AXES, combo))


def load_sweep(path: str) -> SweepSpec:
    text = _read_text(path, "sweep")
    kv = resolve(parse_config_text(text, allow_sweep_keys=True), allow_sweep_keys=True)
    base_kv = {k: kv[k] for k in _REGISTRY}
    materialize(base_kv)  # surface base-config errors before any cell runs
    key = "sweep.seed" if kv["sweep.seed"] is not None else "run.seed"
    if kv[key] < 0:
        # cell_seed's SeedSequence takes only non-negative entropy
        raise ConfigurationError(f"config key {key!r}: the sweep seed must be >= 0, got {kv[key]}")
    return SweepSpec(base_kv=base_kv, metric=kv["sweep.metric"],
                     grids={a: kv[f"sweep.{a}"] for a in AXES}, seed=kv[key])


@dataclass
class SweepCell:
    index: int
    params: dict
    seed: int
    status: str = "pending"      # ok | failed | diverged
    metric: Optional[float] = None
    error: Optional[str] = None
    warnings: tuple = ()         # the cell config's LoadedConfig.warnings


@dataclass
class SweepResult:
    spec: SweepSpec
    cells: list

    @property
    def ok_cells(self):
        return [c for c in self.cells if c.status == "ok"]

    def best_by_group(self) -> dict:
        """(kappa, B_sq) -> best completed cell (smallest metric; ties go to
        the lowest cell index)."""
        best: dict = {}
        for cell in self.ok_cells:
            key = (cell.params["kappa"], cell.params["B_sq"])
            cur = best.get(key)
            if cur is None or cell.metric < cur.metric:
                best[key] = cell
        return best

    def cells_csv(self, path) -> None:
        cols = ("index", "kappa", "B_sq", "gamma0", "momentum", "T",
                "seed", "status", "metric", "error")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for c in self.cells:
                fh.write(",".join([
                    str(c.index),
                    _fmt(c.params["kappa"]),
                    _fmt(c.params["B_sq"]),
                    _fmt(c.params["gamma0"]),
                    c.params["momentum"] or "",
                    _fmt(c.params["T"]),
                    str(c.seed),
                    c.status,
                    _fmt(c.metric),
                    (c.error or "").replace(",", ";").replace("\n", " "),
                ]) + "\n")

    def best_csv(self, path) -> None:
        cols = ("kappa", "B_sq", "best_index", "metric", "gamma0", "momentum", "T")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for (kappa, b_sq), c in sorted(
                self.best_by_group().items(),
                key=lambda kv: (_sort_key(kv[0][0]), _sort_key(kv[0][1])),
            ):
                fh.write(",".join([
                    _fmt(kappa), _fmt(b_sq), str(c.index), _fmt(c.metric),
                    _fmt(c.params["gamma0"]), c.params["momentum"] or "",
                    _fmt(c.params["T"]),
                ]) + "\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _sort_key(v):
    return (v is not None, v if v is not None else 0.0)


def cell_kv(spec: SweepSpec, params: dict) -> dict:
    """Base config with one cell's overrides applied."""
    kv = dict(spec.base_kv)
    if params["B_sq"] is not None:
        if params["B_sq"] < 0:
            raise ConfigurationError("B_sq grid values must be >= 0")
        kv["problem.B"] = math.sqrt(params["B_sq"])
    if params["gamma0"] is not None:
        kv["schedule.gamma0"] = params["gamma0"]
    if params["momentum"] is not None:
        kind, value = _parse_momentum_token(params["momentum"])
        kv["schedule.momentum"] = kind
        if kind == "constant":
            kv["schedule.beta"] = value
        elif kind == "tied":
            kv["schedule.c_beta"] = value
    if params["T"] is not None:
        kv["run.T"] = int(params["T"])
    if params["kappa"] is not None:
        # the kappa keys the cell reads, or both if it reads neither, so that warns
        kappas = ("aggregator.kappa", "problem.kappa")
        for key in [k for k in kappas if _reads(kv, k)] or kappas:
            kv[key] = params["kappa"]
    return kv


def cell_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


def _metric_of(config: RunConfig, metric: str) -> float:
    reps = config.replicates
    vals = []
    for r in range(reps):
        cfg = config if reps == 1 else dc_replace(config, seed=cell_seed(config.seed, r))
        record = run(cfg)
        if metric == "floor_estimate":
            vals.append(record.floor_estimate())
        else:
            v = float(record.f_gap[-1])
            if not math.isfinite(v):
                raise ConfigurationError(
                    "final_f_gap is undefined on this instance (no known minimizer); "
                    "use the floor_estimate metric"
                )
            vals.append(v)
    return float(np.mean(vals))


def run_cell(spec: SweepSpec, index: int, params: dict) -> SweepCell:
    seed = cell_seed(spec.seed, index)
    cell = SweepCell(index=index, params=params, seed=seed)
    try:
        kv = cell_kv(spec, params)
        kv["run.seed"] = seed
        loaded = materialize(kv)
        cell.warnings = tuple(loaded.warnings)
        cell.metric = _metric_of(loaded.config, spec.metric)
        cell.status = "ok"
    except (ConfigurationError, DataError, NumericFailure, ContractViolation) as exc:
        # a failed cell must not poison the sweep; any other exception is a
        # fault of the program, not of the cell, and propagates
        cell.status = "diverged" if isinstance(exc, NumericFailure) else "failed"
        cell.error = f"{type(exc).__name__}: {exc}"
    return cell


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute every cell in canonical order."""
    cells = [run_cell(spec, i, p) for i, p in spec.cell_params()]
    return SweepResult(spec=spec, cells=cells)
