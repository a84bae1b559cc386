"""Byzantine worker behaviors: sign flip, label flip, and the omniscient
"a little is enough" attack that probes the server's actual aggregation
rule before choosing its submission."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .aggregators import AggregatorSpec, OracleContext, aggregate
from .core import ConfigurationError, DataError, DenseVector, NumericFailure, as_matrix

ATTACK_KINDS = ("none", "sign_flip", "label_flip", "alie")
DEFAULT_ALIE_CANDIDATES = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class AttackSpec:
    kind: str = "none"
    candidate_alphas: Tuple[float, ...] = DEFAULT_ALIE_CANDIDATES

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigurationError(f"unknown attack kind {self.kind!r}")
        if self.kind == "alie" and not self.candidate_alphas:
            raise ConfigurationError("alie needs a nonempty candidate set")


@dataclass
class AdversaryView:
    """What an omniscient adversary gets to see in one iteration: every
    honest update (aligned with honest_ids order, as DenseVectors or as the
    rows of an (h, d) array) and the server's aggregator, whose n counts
    every slot; the oracle rules' context carries the current model.
    honest_ids may be an integer ndarray, used as it is (the training loop
    passes a sorted one), or any other sequence of ints."""

    honest_updates: Union[Sequence[DenseVector], np.ndarray]
    honest_ids: Sequence[int]
    aggregator: AggregatorSpec
    context: Optional[OracleContext] = None
    # set by alie: the server's aggregate of the input it crafted, so the
    # caller need not aggregate that input again
    server_output: Optional[np.ndarray] = None


def sign_flip(honest_style_gradient):
    """Return the negated update: a DenseVector, or an array holding one
    update per row. The Byzantine worker computes an honest stochastic
    gradient with its own data and noise stream first; honest workers'
    streams are untouched."""
    return -honest_style_gradient


def label_flip(sample, n_classes: int = 10):
    """Map a sample (features, y) to (features, (C-1) - y). y is one label,
    or an integer array of labels, each flipped, into a new array."""
    features, y = sample
    y = np.asarray(int(y) if np.ndim(y) == 0 else y)
    if y.size and not (0 <= y.min() and y.max() < n_classes):
        bad = next(v for v in y.ravel().tolist() if not 0 <= v < n_classes)
        raise DataError(
            f"label {bad} out of range for {n_classes} classes"
        )
    flipped = (n_classes - 1) - y
    return (features, int(flipped) if flipped.ndim == 0 else flipped)


def alie(
    view: AdversaryView, candidate_alphas: Optional[Sequence[float]] = None
) -> Union[DenseVector, np.ndarray]:
    """Craft the common Byzantine submission mu + alpha*sigma_dev, where mu
    is the honest mean, sigma_dev = sqrt(sum_H ||x_i - mu||^2) (total squared
    deviation over honest workers, not averaged), and the scalar
    alpha*sigma_dev is added to every coordinate.

    alpha is chosen greedily by one probe of the server's actual rule: the
    (len(candidates), n, d) stack holding the honest updates and, in every
    Byzantine slot, one candidate vector per row is aggregated in a single
    call, and the candidate maximizing ||A(...) - mu|| wins. Ties go to the
    first candidate in listed order. The winning row of that call is the
    server's output on the crafted input; it is recorded as
    view.server_output. With zero honest dispersion every candidate
    collapses to mu: the probe is mu alone, mu is returned, and the
    recorded output is the rule's on mu in every Byzantine slot.

    Cost: one stacked aggregate call, the only rule evaluation; around it
    whole-array work only. The probe stack is built with index arrays, and
    all candidates are scored at once, each score sqrt(np.vecdot(dev, dev))
    (np.dot's loop per row, bitwise a per-candidate np.dot); argmax
    returns the first maximum, which is the tie rule above.

    The crafted vector comes back as a (d,) array when the honest updates
    are an (h, d) array, and as a DenseVector otherwise.
    """
    cands = tuple(candidate_alphas) if candidate_alphas is not None else DEFAULT_ALIE_CANDIDATES
    if not cands:
        raise ConfigurationError("alie needs a nonempty candidate set")
    honest = view.honest_updates
    stacked = isinstance(honest, np.ndarray)
    if len(honest) == 0:
        raise ConfigurationError("alie needs at least one honest update")
    box = np.asarray if stacked else DenseVector
    hmat = np.ascontiguousarray(honest, dtype=np.float64) if stacked else as_matrix(honest)
    # np.add.reduce(...) / h is bitwise .mean, and np.add.reduce(..., None) .sum()
    mu = np.add.reduce(hmat, axis=0) / hmat.shape[0]
    dev = hmat - mu
    dev *= dev
    sigma_dev = math.sqrt(float(np.add.reduce(dev, axis=None)))
    alphas = np.asarray(cands, dtype=np.float64)[:, None]
    # at zero dispersion every candidate is mu, and mu is the one probe
    probes = mu[None] if sigma_dev == 0.0 else mu + alphas * sigma_dev

    ids = np.asarray(view.honest_ids, dtype=np.intp)
    spec = view.aggregator
    if not np.logical_and.reduce(np.isfinite(probes), axis=None):
        raise NumericFailure("alie candidate submissions must be finite")
    # every slot holds the probe, then the honest slots their updates
    stack = np.empty((len(probes), spec.n, hmat.shape[1]))
    stack[...] = probes[:, None, :]
    stack[:, ids] = hmat
    outs = aggregate(
        spec,
        stack,
        honest_ids=np.sort(ids) if spec.honest_aware else None,
        context=view.context,
    )
    dev = outs - mu
    best = int(np.sqrt(np.vecdot(dev, dev)).argmax())
    view.server_output = outs[best]
    return box(probes[best])
