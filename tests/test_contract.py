"""Properties that must hold on generated inputs.

Each property runs a bounded, derandomized search (no example database), so
the module is deterministic and takes a few seconds.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elmsc import cli
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


@st.composite
def synthetic_specs(draw):
    """A small synthetic spec: n <= 12 samples in 1-3 views of 1-6 rows."""
    views = draw(st.integers(1, 3))
    return {"clusters": draw(st.integers(2, 4)),
            "per_cluster": draw(st.integers(1, 3)),
            "views": views,
            "latent_dim": draw(st.integers(1, 3)),
            "view_dims": draw(st.lists(st.integers(1, 6), min_size=views,
                                       max_size=views)),
            "noise_sigma": draw(st.sampled_from([0.0, 0.1])),
            "seed": draw(st.integers(0, 3))}


# the example's latent dim 3 exceeds its data's rank of 1, so every
# Procrustes input in its solve is rank-deficient
@settings(CONTRACT, max_examples=60)
@given(synthetic_specs(), st.integers(2, 4), st.integers(1, 6))
@example({"clusters": 2, "per_cluster": 3, "views": 2, "latent_dim": 1,
          "view_dims": [3, 3]}, 2, 3)
def test_cluster_reports_through_its_artifacts_or_one_error_record(
        spec, clusters, latent_dim):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = ["cluster", "--synthetic", json.dumps(spec),
                "--clusters", str(clusters), "--latent-dim", str(latent_dim),
                "--trials", "1", "--out", str(out)]
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA,
                        cli.EXIT_NUMERIC), code
        if code == cli.EXIT_OK:
            assert stderr.getvalue() == ""
            assert (out / "report.json").exists()
        else:
            [line] = stderr.getvalue().splitlines()
            assert set(json.loads(line)) == {"error", "message"}
            if code in (cli.EXIT_CONFIG, cli.EXIT_DATA):
                assert not out.exists()
