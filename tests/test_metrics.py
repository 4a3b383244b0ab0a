import itertools
import math
import statistics

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment  # test-only oracle

from elmsc.metrics import (
    METRIC_NAMES,
    LabelPair,
    _min_cost_assignment,
    acc,
    aggregate_trials,
    all_metrics,
    ari,
    nmi,
    pairwise_f1,
)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def acc_permutation_oracle(predicted, truth):
    """Exhaustive search over injective cluster-id mappings."""
    pred_ids = sorted(set(predicted))
    true_ids = sorted(set(truth))
    size = max(len(pred_ids), len(true_ids))
    pred_ids = pred_ids + [f"pad_p{i}" for i in range(size - len(pred_ids))]
    true_ids = true_ids + [f"pad_t{i}" for i in range(size - len(true_ids))]
    best = 0
    for perm in itertools.permutations(true_ids):
        mapping = dict(zip(pred_ids, perm))
        hits = sum(1 for p, t in zip(predicted, truth) if mapping[p] == t)
        best = max(best, hits)
    return best / len(truth)


def pair_counts_oracle(predicted, truth):
    """O(n^2) enumeration of all sample pairs."""
    n = len(truth)
    both = pred_only = true_only = neither = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_pred = predicted[i] == predicted[j]
            same_true = truth[i] == truth[j]
            if same_pred and same_true:
                both += 1
            elif same_pred:
                pred_only += 1
            elif same_true:
                true_only += 1
            else:
                neither += 1
    return both, pred_only, true_only, neither


def ari_pair_oracle(predicted, truth):
    both, pred_only, true_only, neither = pair_counts_oracle(predicted, truth)
    total = both + pred_only + true_only + neither
    sum_pred = both + pred_only
    sum_true = both + true_only
    expected = sum_pred * sum_true / total
    maximum = 0.5 * (sum_pred + sum_true)
    if maximum == expected:
        return 1.0
    return (both - expected) / (maximum - expected)


def f1_pair_oracle(predicted, truth):
    both, pred_only, true_only, _ = pair_counts_oracle(predicted, truth)
    pred_pairs = both + pred_only
    true_pairs = both + true_only
    if pred_pairs == 0 and true_pairs == 0:
        return 1.0
    if pred_pairs == 0 or true_pairs == 0:
        return 0.0
    precision = both / pred_pairs
    recall = both / true_pairs
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def nmi_contingency_oracle(predicted, truth):
    """Direct evaluation from contingency counts with natural logs."""
    n = len(truth)
    t_ids = sorted(set(truth))
    p_ids = sorted(set(predicted))
    counts = {
        (t, p): sum(1 for a, b in zip(truth, predicted) if a == t and b == p)
        for t in t_ids for p in p_ids
    }
    row = {t: sum(counts[(t, p)] for p in p_ids) for t in t_ids}
    col = {p: sum(counts[(t, p)] for t in t_ids) for p in p_ids}
    mi = 0.0
    for (t, p), c in counts.items():
        if c:
            mi += c / n * math.log(n * c / (row[t] * col[p]))
    h_t = -sum(r / n * math.log(r / n) for r in row.values() if r)
    h_p = -sum(c / n * math.log(c / n) for c in col.values() if c)
    if h_t == 0 and h_p == 0:
        return 1.0
    return mi / (0.5 * (h_t + h_p))


def pair_of(predicted, truth):
    return LabelPair(predicted=np.asarray(predicted), truth=np.asarray(truth))


# ---------------------------------------------------------------------------
# acc
# ---------------------------------------------------------------------------

def test_acc_identity_and_relabeling():
    truth = [0, 0, 1, 1, 2]
    assert acc(pair_of(truth, truth)) == 1.0
    swapped = [2, 2, 0, 0, 1]
    assert acc(pair_of(swapped, truth)) == 1.0


def test_acc_frozen_small_case():
    assert acc(pair_of([0, 1, 0, 1], [0, 0, 1, 1])) == 0.5
    assert acc_permutation_oracle([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5


def test_acc_matches_permutation_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(4, 20))
        truth = rng.integers(0, 4, size=n)
        predicted = rng.integers(0, 4, size=n)
        assert acc(pair_of(predicted, truth)) == pytest.approx(
            acc_permutation_oracle(predicted.tolist(), truth.tolist()), abs=1e-12
        )


def test_acc_length_mismatch():
    with pytest.raises(ValueError):
        pair_of([0, 1], [0, 1, 2])


def test_acc_at_least_chance_on_balanced_truth():
    rng = np.random.default_rng(1)
    for c in (2, 3, 5):
        truth = np.repeat(np.arange(c), 12)
        predicted = rng.integers(0, c, size=c * 12)
        assert acc(pair_of(predicted, truth)) >= 1 / c - 1e-12


def test_acc_pads_unequal_cluster_counts():
    # 3 predicted clusters against 2 true ones, and the converse: the
    # contingency table is padded square with zero rows or columns
    predicted, truth = [0, 0, 1, 2, 2, 2], [0, 0, 0, 1, 1, 1]
    assert acc(pair_of(predicted, truth)) == 5 / 6
    assert acc_permutation_oracle(predicted, truth) == 5 / 6
    assert acc(pair_of(truth, predicted)) == 5 / 6
    assert acc(pair_of([3, 1, 4, 1, 5], [0, 0, 0, 0, 0])) == 2 / 5


def test_acc_one_sample_and_one_cluster():
    assert acc(pair_of([7], [2])) == 1.0
    assert acc(pair_of([0, 0, 0], [1, 1, 1])) == 1.0


def test_all_metrics_of_one_sample_are_one():
    # one sample has no pairs: ari takes its degenerate branch, no 0/0
    assert all_metrics(LabelPair([0], [0])) == (1.0, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# assignment solver behind acc
# ---------------------------------------------------------------------------

def assert_is_permutation(cols, n):
    assert cols.shape == (n,)
    assert sorted(cols.tolist()) == list(range(n))


def brute_force_min_total(cost):
    n = len(cost)
    return min(sum(cost[i][p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def small_cost_matrices():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        yield rng.integers(-9, 10, size=(n, n))
        yield rng.standard_normal((n, n))
        yield np.full((n, n), 4)  # all equal
        yield rng.integers(0, 2, size=(n, n))  # many ties
        zero_row = rng.integers(0, 20, size=(n, n))
        zero_row[n // 2] = 0
        yield zero_row
        yield -np.eye(n, dtype=np.int64)[rng.permutation(n)]


def test_assignment_matches_brute_force_small():
    for cost in small_cost_matrices():
        n = len(cost)
        cols = _min_cost_assignment(cost)
        assert_is_permutation(cols, n)
        got = cost[np.arange(n), cols].sum()
        want = brute_force_min_total(cost.tolist())
        if np.issubdtype(cost.dtype, np.integer):
            assert got == want, cost
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), cost


def test_assignment_matches_scipy_oracle():
    rng = np.random.default_rng(4)
    for trial in range(60):
        n = int(rng.integers(1, 81))
        if trial % 2:
            cost = rng.uniform(-1, 1, size=(n, n))
        else:
            cost = rng.integers(-50, 50, size=(n, n))
        cols = _min_cost_assignment(cost)
        assert_is_permutation(cols, n)
        rows, want_cols = linear_sum_assignment(cost)
        got = cost[np.arange(n), cols].sum()
        want = cost[rows, want_cols].sum()
        if trial % 2:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        else:
            assert got == want


# ---------------------------------------------------------------------------
# nmi
# ---------------------------------------------------------------------------

def test_nmi_identical_partitions():
    assert nmi(pair_of([0, 1, 1, 2], [5, 7, 7, 9])) == pytest.approx(1.0)


@pytest.mark.parametrize("per_cluster", [15, 20])
def test_nmi_exact_ten_cluster_match_is_exactly_one(per_cluster):
    # unclamped, rounding put this at 1.0000000000000002
    labels = np.repeat(np.arange(10), per_cluster)
    assert nmi(pair_of(labels, labels)) == 1.0


def test_nmi_frozen_hand_computation():
    # truth (0,0,1,1) vs predicted (0,0,0,1):
    # MI = 0.5 ln(4/3) + 0.25 ln(2/3) + 0.25 ln 2, H = ln 2 and
    # -(0.75 ln 0.75 + 0.25 ln 0.25)
    expected = (
        0.5 * math.log(4 / 3) + 0.25 * math.log(2 / 3) + 0.25 * math.log(2)
    ) / (0.5 * (math.log(2) - (0.75 * math.log(0.75) + 0.25 * math.log(0.25))))
    value = nmi(pair_of([0, 0, 0, 1], [0, 0, 1, 1]))
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(
        nmi_contingency_oracle([0, 0, 0, 1], [0, 0, 1, 1]), abs=1e-12
    )


def test_nmi_independent_partitions_near_zero():
    rng = np.random.default_rng(2)
    n = 10_000
    a = rng.integers(0, 4, size=n)
    b = rng.integers(0, 4, size=n)
    assert nmi(pair_of(a, b)) < 0.05


def test_nmi_single_cluster_conventions():
    assert nmi(pair_of([0, 0, 0], [1, 1, 1])) == 1.0
    assert nmi(pair_of([0, 0, 0], [0, 1, 2])) == 0.0


# ---------------------------------------------------------------------------
# ari
# ---------------------------------------------------------------------------

def test_ari_identity():
    assert ari(pair_of([0, 1, 2, 0], [3, 4, 5, 3])) == pytest.approx(1.0)


def test_ari_one_big_cluster_is_zero():
    assert ari(pair_of([0, 0, 0, 0], [0, 0, 1, 1])) == pytest.approx(0.0)


def test_ari_matches_pair_enumeration_six_elements():
    rng = np.random.default_rng(3)
    for _ in range(30):
        predicted = rng.integers(0, 3, size=6)
        truth = rng.integers(0, 3, size=6)
        assert ari(pair_of(predicted, truth)) == pytest.approx(
            ari_pair_oracle(predicted.tolist(), truth.tolist()), abs=1e-12
        )


def test_ari_matches_pair_enumeration_up_to_200():
    rng = np.random.default_rng(4)
    for n in (50, 120, 200):
        predicted = rng.integers(0, 5, size=n)
        truth = rng.integers(0, 5, size=n)
        assert ari(pair_of(predicted, truth)) == pytest.approx(
            ari_pair_oracle(predicted.tolist(), truth.tolist()), abs=1e-12
        )


# ---------------------------------------------------------------------------
# pairwise_f1
# ---------------------------------------------------------------------------

def test_f1_identity():
    assert pairwise_f1(pair_of([0, 1, 0], [2, 3, 2])) == pytest.approx(1.0)


def test_f1_all_singletons_vs_paired_truth():
    assert pairwise_f1(pair_of([0, 1, 2, 3], [0, 0, 1, 1])) == 0.0


def test_f1_matches_pair_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(4, 30))
        predicted = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 4, size=n)
        assert pairwise_f1(pair_of(predicted, truth)) == pytest.approx(
            f1_pair_oracle(predicted.tolist(), truth.tolist()), abs=1e-12
        )


# ---------------------------------------------------------------------------
# relabeling invariance for all four metrics
# ---------------------------------------------------------------------------

def test_all_metrics_relabeling_invariant():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(6, 40))
        predicted = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 4, size=n)
        base = all_metrics(pair_of(predicted, truth))
        perm_p = rng.permutation(4)
        perm_t = rng.permutation(4)
        relabeled = all_metrics(
            pair_of(perm_p[predicted], perm_t[truth])
        )
        assert base == pytest.approx(relabeled, abs=1e-12)


# ---------------------------------------------------------------------------
# aggregate_trials
# ---------------------------------------------------------------------------

def test_aggregate_single_trial_zero_std():
    report = aggregate_trials([(0.9, 0.8, 0.7, 0.6)])
    assert [report[name]["std"] for name in METRIC_NAMES] == [0.0] * 4
    assert report["acc"]["mean"] == pytest.approx(0.9)


def test_aggregate_two_point_formula():
    report = aggregate_trials([(0.9, 0.9, 0.9, 0.9), (1.0, 1.0, 1.0, 1.0)])
    assert report["acc"]["mean"] == pytest.approx(0.95)
    assert report["acc"]["std"] == pytest.approx(math.sqrt(0.005), abs=1e-12)
    assert report["acc"]["std"] == pytest.approx(0.0707, abs=1e-4)


def test_aggregate_matches_statistics_module():
    rng = np.random.default_rng(7)
    trials = [tuple(rng.uniform(0, 1, size=4)) for _ in range(10)]
    report = aggregate_trials(trials)
    for i, name in enumerate(METRIC_NAMES):
        column = [t[i] for t in trials]
        assert report[name]["mean"] == pytest.approx(statistics.fmean(column),
                                                     abs=1e-12)
        assert report[name]["std"] == pytest.approx(statistics.stdev(column),
                                                    abs=1e-12)


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate_trials([])


def test_aggregate_rejects_a_row_of_the_wrong_width():
    with pytest.raises(ValueError, match="each trial must be"):
        aggregate_trials([(1.0, 1.0, 1.0)])


@pytest.mark.parametrize("labels,message", [
    (np.zeros((2, 2), int), "1-d"),
    ([], "nonempty"),
])
def test_label_pair_rejects_labels_that_are_not_a_nonempty_1d_sequence(
        labels, message):
    with pytest.raises(ValueError, match=message):
        LabelPair(predicted=labels, truth=labels)
