"""Domain-distance metrics and diagnostic tables for trained models.

Distances are cosine distances between domain (or per-class) centroids,
normalized by the mean in-domain spread of the two operands, so they are
invariant to uniform feature rescaling. The tables read the model through
`pipeline.infer` and `pipeline.per_prompt_logits`, the chunked forward that
evaluation uses; their column k is source slot k, the bank's k-th prompt.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import pipeline
from .config import ConfigError
from .datagen import SyntheticDataset
from .pipeline import ModelState

__all__ = [
    "AdapterWeightStats",
    "DegenerateDomainError",
    "DistanceReport",
    "adapter_weight_stats",
    "class_distance",
    "cosine_distance",
    "domain_distance",
    "per_prompt_accuracy_table",
]

SPREAD_FLOOR = 1e-9


class DegenerateDomainError(ConfigError):
    """The data leaves a distance undefined: too few vectors, no shared
    class, or an in-domain spread too small to normalize by."""


@dataclass
class DistanceReport:
    """Pairwise normalized distances plus per-domain spread and aggregates."""

    domain_dist: np.ndarray  # (n, n), symmetric, zero diagonal
    class_dist: np.ndarray | None  # (n, n) or None when classes unavailable
    in_dist: np.ndarray  # (n,) mean cosine distance to own centroid
    cross_in_ratio: float = field(init=False)
    cross_in_class_ratio: float | None = field(init=False)

    def __post_init__(self):
        n = self.domain_dist.shape[0]
        off = ~np.eye(n, dtype=bool)
        self.cross_in_ratio = float(self.domain_dist[off].mean()) if n > 1 else 0.0
        self.cross_in_class_ratio = (
            float(self.class_dist[off].mean()) if self.class_dist is not None and n > 1 else None
        )


@dataclass
class AdapterWeightStats:
    """Per evaluated domain: argmax share (%) and mean weight per source."""

    eval_domains: list
    source_domains: list
    percentages: np.ndarray  # (E, K), rows sum to 100
    averages: np.ndarray  # (E, K), rows sum to 1


def cosine_distance(x: np.ndarray, y: np.ndarray) -> float:
    return 1.0 - float(np.dot(x, y)) / (float(np.linalg.norm(x)) * float(np.linalg.norm(y)))


def _centroid_and_spread(features: np.ndarray) -> tuple[np.ndarray, float]:
    """The centroid and the mean cosine distance of the vectors to it."""
    centroid = features.mean(axis=0)
    cos = features @ centroid / (np.linalg.norm(features, axis=1) * np.linalg.norm(centroid))
    return centroid, float(np.mean(1.0 - cos))


def _normalized_distance(a, b, where: str = "") -> float:
    """Cosine distance of two (centroid, spread) pairs over their mean spread."""
    denom = 0.5 * (a[1] + b[1])
    if denom < SPREAD_FLOOR:
        raise DegenerateDomainError(
            f"in-domain spread {denom:.3g}{where} below {SPREAD_FLOOR}; distance undefined"
        )
    return cosine_distance(a[0], b[0]) / denom


def domain_distance(features_by_domain, labels_by_domain=None) -> DistanceReport:
    """Pairwise normalized centroid distances between domains.

    `features_by_domain` is a sequence of (N_d, D) arrays, each with at least
    two vectors and nonzero spread. When `labels_by_domain` is given, the
    averaged per-class distance matrix is computed as well.
    """
    feats = [np.asarray(f, dtype=np.float64) for f in features_by_domain]
    n = len(feats)
    for d, f in enumerate(feats):
        if len(f) < 2:
            raise DegenerateDomainError(f"domain {d} has {len(f)} feature vectors, need >= 2")
    stats = [_centroid_and_spread(f) for f in feats]

    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = _normalized_distance(stats[i], stats[j], f" between domains {i}, {j}")

    cdist = None
    if labels_by_domain is not None:
        labels = [np.asarray(lab) for lab in labels_by_domain]
        cdist = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                cdist[i, j] = cdist[j, i] = class_distance(feats[i], labels[i], feats[j], labels[j])
    return DistanceReport(domain_dist=dist, class_dist=cdist, in_dist=np.array([s for _, s in stats]))


def class_distance(feats_i, labels_i, feats_j, labels_j) -> float:
    """Mean over shared classes of the normalized distance between per-class subsets.

    Classes missing from either domain are skipped with a warning.
    """
    feats_i, feats_j = np.asarray(feats_i, dtype=np.float64), np.asarray(feats_j, dtype=np.float64)
    labels_i, labels_j = np.asarray(labels_i), np.asarray(labels_j)
    shared = np.intersect1d(labels_i, labels_j)
    if len(shared) == 0:
        raise DegenerateDomainError("no class present in both domains")
    for c in np.setxor1d(labels_i, labels_j):
        warnings.warn(f"class {c} missing from one domain; skipped", stacklevel=2)
    total = sum(_normalized_distance(_centroid_and_spread(feats_i[labels_i == c]),
                                     _centroid_and_spread(feats_j[labels_j == c])) for c in shared)
    return total / len(shared)


def adapter_weight_stats(state: ModelState, dataset: SyntheticDataset, eval_domains) -> AdapterWeightStats:
    """Argmax-share percentages and mean adapter weights per evaluated domain.

    Weights come from `pipeline.infer`, averaged over prompt positions before
    the argmax / mean reductions; column k is source slot k.
    """
    k = state.bank.num_domains
    eval_domains = [d for d in eval_domains if dataset.domain_size(d) > 0]
    percentages = np.zeros((len(eval_domains), k))
    averages = np.zeros((len(eval_domains), k))
    for row, d in enumerate(eval_domains):
        per_sample = pipeline.infer(state, dataset.images[d])[1].mean(axis=1)  # (N, K)
        winners = np.bincount(per_sample.argmax(axis=1), minlength=k)
        percentages[row] = 100.0 * (winners / len(per_sample))
        averages[row] = np.ascontiguousarray(per_sample.T).mean(axis=1)  # a 1-D mean's pairwise sum per slot
    return AdapterWeightStats(list(eval_domains), list(range(k)), percentages, averages)


def per_prompt_accuracy_table(state: ModelState, images: np.ndarray, labels: np.ndarray) -> dict:
    """Accuracy (%) under adapted inference ("adapted") and under the prompt
    of each single source slot k alone ("domain_<k>")."""
    adapted = pipeline.infer(state, images)[0].argmax(axis=1) == labels
    single = pipeline.per_prompt_logits(state, images).argmax(axis=2) == labels[:, None]  # (N, K)
    table = {"adapted": 100.0 * float(adapted.mean())}
    table.update({f"domain_{k}": 100.0 * float(acc) for k, acc in enumerate(single.mean(axis=0))})
    return table
