"""External clustering metrics and multi-trial aggregation.

All four metrics are invariant to relabeling of either partition: accuracy
via optimal assignment on the confusion matrix (solved here by the
Hungarian method, in numpy alone), mutual information normalized by the
arithmetic mean of the partition entropies, the adjusted-for-chance Rand
index, and F1 over co-clustered sample pairs.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


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

    @cached_property
    def contingency(self):
        """Count matrix, built once: rows truth clusters, columns predicted."""
        _, ti = np.unique(self.truth, return_inverse=True)
        _, pi = np.unique(self.predicted, return_inverse=True)
        table = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
        np.add.at(table, (ti, pi), 1)
        table.flags.writeable = False  # shared by every metric of the pair
        return table


def _min_cost_assignment(cost):
    """Column assigned to each row in a minimum-total-cost matching of a
    square cost matrix.

    Kuhn's Hungarian method in the shortest-augmenting-path form with row
    and column potentials (Jonker & Volgenant, Computing 1987): row i joins
    the matching along a shortest path of reduced costs, grown one column
    at a time by Dijkstra's rule, in O(n^2) per row with the scan over
    columns vectorised. Integer costs stay exact in float64.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n = cost.shape[0]
    u = np.zeros(n)  # row potentials
    v = cost.min(axis=0)  # column potentials
    row_of = np.full(n, -1)  # row matched to each column, -1 when free
    # start from the tight edges: each row takes the first column whose
    # minimum it holds
    best = cost.argmin(axis=0)
    matched, first = np.unique(best, return_index=True)
    row_of[first] = matched
    # the unmatched rows in order; np.setdiff1d would import numpy.ma
    free = np.ones(n, dtype=bool)
    free[matched] = False
    for i in np.flatnonzero(free):
        dist = np.full(n, np.inf)  # shortest reduced path cost per column
        prev = np.full(n, -1)  # previous column on that path, -1 = row i
        done = np.zeros(n, dtype=bool)
        i0, j0 = i, -1
        while True:
            reduced = cost[i0] - u[i0] - v
            closer = ~done & (reduced < dist)
            dist[closer] = reduced[closer]
            prev[closer] = j0
            j0 = int(np.argmin(np.where(done, np.inf, dist)))
            delta = dist[j0]
            u[i] += delta
            u[row_of[done]] += delta
            v[done] -= delta
            dist[~done] -= delta
            done[j0] = True
            if row_of[j0] < 0:
                break
            i0 = row_of[j0]
        while j0 >= 0:  # flip the matching along the path back to row i
            j1 = prev[j0]
            row_of[j0] = row_of[j1] if j1 >= 0 else i
            j0 = j1
    cols = np.empty(n, dtype=np.intp)
    cols[row_of] = np.arange(n)
    return cols


def acc(pair):
    """Best fraction of agreeing samples over injective cluster matchings."""
    table = pair.contingency
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    cols = _min_cost_assignment(-padded)
    return float(padded[np.arange(size), cols].sum() / len(pair.truth))


def _entropy(counts, n):
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(pair):
    """Mutual information over the arithmetic mean of both entropies, in [0, 1].

    Two single-cluster partitions agree perfectly and score 1.
    """
    table = pair.contingency
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
    return min(1.0, max(0.0, mi / (0.5 * (h_t + h_p))))


def _pair_counts(pair):
    """Sample pairs co-clustered in both labelings, in the truth, and in the
    prediction, from the contingency table."""
    table = pair.contingency.astype(np.float64)
    return tuple(float((c * (c - 1) / 2).sum())
                 for c in (table, table.sum(axis=1), table.sum(axis=0)))


def ari(pair):
    """Adjusted Rand index from pair-count statistics of the contingency table."""
    sum_ij, sum_t, sum_p = _pair_counts(pair)
    n = len(pair.truth)
    total = n * (n - 1) / 2
    expected = sum_t * sum_p / total if total else 0.0
    maximum = 0.5 * (sum_t + sum_p)
    if maximum == expected:
        return 1.0  # both partitions degenerate in the same way, or no pairs
    return float((sum_ij - expected) / (maximum - expected))


def pairwise_f1(pair):
    """F1 over same-cluster sample pairs.

    Precision counts truly co-clustered pairs among predicted co-clustered
    pairs, recall the converse; scores 0 when one side has co-clustered
    pairs and the other none, 1 when both have none.
    """
    tp, true_pairs, pred_pairs = _pair_counts(pair)
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
    if arr.ndim != 2 or arr.shape[1] != len(METRIC_NAMES):
        raise ValueError(
            f"each trial must be an ({', '.join(METRIC_NAMES)}) tuple")
    mean = arr.mean(axis=0)
    if arr.shape[0] == 1:
        std = np.zeros_like(mean)
    else:
        std = arr.std(axis=0, ddof=1)
    return {name: {"mean": m, "std": s}
            for name, m, s in zip(METRIC_NAMES, mean.tolist(), std.tolist())}
