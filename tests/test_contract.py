"""Properties that must hold on generated inputs.

Each property runs a bounded, derandomized search (no example database), so
the module is deterministic and takes about a second.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elmsc.metrics import LabelPair, all_metrics

CONTRACT = settings(max_examples=300, derandomize=True, database=None,
                    deadline=None)

LABEL = st.integers(0, 5)  # up to 6 label values


@st.composite
def label_pairs(draw):
    """(predicted, truth) of one length n in [1, 30]."""
    n = draw(st.integers(1, 30))
    predicted = draw(st.lists(LABEL, min_size=n, max_size=n))
    truth = draw(st.lists(LABEL, min_size=n, max_size=n))
    return np.array(predicted), np.array(truth)


@CONTRACT
@given(label_pairs(), st.permutations(range(6)), st.integers(-1000, 1000))
def test_metrics_bounded_renaming_invariant_and_one_on_agreement(
        labels, perm, offset):
    predicted, truth = labels
    scores = all_metrics(LabelPair(predicted, truth))
    for score in scores:
        assert math.isfinite(score) and score <= 1 + 1e-12, scores
    renamed = np.asarray(perm)[predicted] + offset
    assert np.allclose(all_metrics(LabelPair(renamed, truth)), scores,
                       rtol=0, atol=1e-12)
    agreed = all_metrics(LabelPair(truth, truth))
    assert min(agreed) >= 1 - 1e-12, agreed
