"""External clustering metrics and multi-trial aggregation.

All four metrics are invariant to relabeling of either partition: accuracy
via optimal assignment on the confusion matrix, mutual information
normalized by the arithmetic mean of the partition entropies, the
adjusted-for-chance Rand index, and F1 over co-clustered sample pairs.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class LabelPair:
    """A predicted and a ground-truth labeling of the same samples."""

    predicted: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "predicted", np.asarray(self.predicted))
        object.__setattr__(self, "truth", np.asarray(self.truth))
        if self.predicted.ndim != 1 or self.truth.ndim != 1:
            raise ValueError("labels must be 1-d sequences")
        if len(self.predicted) == 0:
            raise ValueError("labels must be nonempty")
        if len(self.predicted) != len(self.truth):
            raise ValueError(
                f"label length mismatch: {len(self.predicted)} predicted vs "
                f"{len(self.truth)} truth"
            )

    def contingency(self):
        """Count matrix: rows index truth clusters, columns predicted ones."""
        _, ti = np.unique(self.truth, return_inverse=True)
        _, pi = np.unique(self.predicted, return_inverse=True)
        table = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
        np.add.at(table, (ti, pi), 1)
        return table


def acc(pair):
    """Best fraction of agreeing samples over injective cluster matchings."""
    table = pair.contingency()
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    rows, cols = linear_sum_assignment(padded, maximize=True)
    return float(padded[rows, cols].sum() / len(pair.truth))


def _entropy(counts, n):
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(pair):
    """Mutual information over the arithmetic mean of both entropies.

    Two single-cluster partitions agree perfectly and score 1.
    """
    table = pair.contingency()
    n = len(pair.truth)
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    h_t = _entropy(row, n)
    h_p = _entropy(col, n)
    if h_t == 0.0 and h_p == 0.0:
        return 1.0
    nz = table > 0
    nij = table[nz].astype(np.float64)
    outer = np.outer(row, col)[nz]
    mi = float((nij / n * np.log(n * nij / outer)).sum())
    return max(0.0, mi / (0.5 * (h_t + h_p)))


def _pair_count(counts):
    counts = counts.astype(np.float64)
    return float((counts * (counts - 1) / 2).sum())


def ari(pair):
    """Adjusted Rand index from pair-count statistics of the contingency table."""
    table = pair.contingency()
    n = len(pair.truth)
    sum_ij = _pair_count(table.ravel())
    sum_t = _pair_count(table.sum(axis=1))
    sum_p = _pair_count(table.sum(axis=0))
    total = n * (n - 1) / 2
    expected = sum_t * sum_p / total
    maximum = 0.5 * (sum_t + sum_p)
    if maximum == expected:
        return 1.0  # both partitions degenerate in the same way
    return float((sum_ij - expected) / (maximum - expected))


def pairwise_f1(pair):
    """F1 over same-cluster sample pairs.

    Precision counts truly co-clustered pairs among predicted co-clustered
    pairs, recall the converse; scores 0 when one side has co-clustered
    pairs and the other none, 1 when both have none.
    """
    table = pair.contingency()
    tp = _pair_count(table.ravel())
    pred_pairs = _pair_count(table.sum(axis=0))
    true_pairs = _pair_count(table.sum(axis=1))
    if pred_pairs == 0.0 and true_pairs == 0.0:
        return 1.0
    if pred_pairs == 0.0 or true_pairs == 0.0:
        return 0.0
    precision = tp / pred_pairs
    recall = tp / true_pairs
    if precision + recall == 0.0:
        return 0.0
    return float(2 * precision * recall / (precision + recall))


def all_metrics(pair):
    """(acc, nmi, ari, f1) for one trial."""
    return (acc(pair), nmi(pair), ari(pair), pairwise_f1(pair))


METRIC_NAMES = ("acc", "nmi", "ari", "f1")  # the order of all_metrics


def aggregate_trials(trials):
    """{name: {"mean", "std"}} per metric, std with the n-1 denominator.

    A single trial reports std 0.0 so the mean+/-std presentation stays total.
    """
    if not trials:
        raise ValueError("at least one trial is required")
    arr = np.asarray(trials, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError("each trial must be an (acc, nmi, ari, f1) tuple")
    mean = arr.mean(axis=0)
    if arr.shape[0] == 1:
        std = np.zeros(4)
    else:
        std = arr.std(axis=0, ddof=1)
    return {name: {"mean": m, "std": s}
            for name, m, s in zip(METRIC_NAMES, mean.tolist(), std.tolist())}
