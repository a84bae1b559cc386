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
    byzantine_ids: frozenset = frozenset()
    candidate_alphas: Tuple[float, ...] = DEFAULT_ALIE_CANDIDATES

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigurationError(f"unknown attack kind {self.kind!r}")
        object.__setattr__(
            self, "byzantine_ids", frozenset(int(i) for i in self.byzantine_ids)
        )
        if self.kind == "alie" and not self.candidate_alphas:
            raise ConfigurationError("alie needs a nonempty candidate set")


@dataclass
class AdversaryView:
    """What an omniscient adversary gets to see in one iteration: every
    honest update (aligned with honest_ids order, as DenseVectors or as the
    rows of an (h, d) array), the server's aggregator, and the current
    model (a DenseVector or a (d,) array)."""

    honest_updates: Union[Sequence[DenseVector], np.ndarray]
    honest_ids: Sequence[int]
    aggregator: AggregatorSpec
    x: Union[DenseVector, np.ndarray]
    n: int
    context: Optional[OracleContext] = None
    # set by alie: the server's aggregate of the input it crafted, so the
    # caller need not aggregate that input again (None if the attack is inert)
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
    collapses to mu, the attack is inert and nothing is recorded.

    The crafted vector comes back as a (d,) array when the honest updates
    are an (h, d) array, and as a DenseVector otherwise.
    """
    cands = tuple(candidate_alphas) if candidate_alphas is not None else DEFAULT_ALIE_CANDIDATES
    if not cands:
        raise ConfigurationError("alie needs a nonempty candidate set")
    view.server_output = None
    honest = view.honest_updates
    stacked = isinstance(honest, np.ndarray)
    if len(honest) == 0:
        raise ConfigurationError("alie needs at least one honest update")
    box = np.asarray if stacked else DenseVector
    hmat = np.ascontiguousarray(honest, dtype=np.float64) if stacked else as_matrix(honest)
    mu = hmat.mean(axis=0)
    sigma_dev = math.sqrt(float(((hmat - mu) ** 2).sum()))
    if sigma_dev == 0.0:
        return box(mu)

    honest_ids = [int(i) for i in view.honest_ids]
    byz_ids = sorted(set(range(view.n)) - set(honest_ids))
    spec = view.aggregator
    probes = mu + np.asarray(cands, dtype=np.float64)[:, None] * sigma_dev
    if not np.all(np.isfinite(probes)):
        raise NumericFailure("alie candidate submissions must be finite")
    stack = np.empty((len(cands), view.n, hmat.shape[1]))
    stack[:, honest_ids] = hmat
    stack[:, byz_ids] = probes[:, None, :]
    outs = aggregate(
        spec,
        stack,
        honest_ids=honest_ids if spec.honest_aware else None,
        context=view.context,
    )
    best = 0
    best_score = -1.0
    for r, out in enumerate(outs):
        dev = out - mu
        score = math.sqrt(float(np.dot(dev, dev)))
        if score > best_score:
            best_score = score
            best = r
    view.server_output = outs[best]
    return box(probes[best])
