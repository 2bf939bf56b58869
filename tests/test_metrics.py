import json

import numpy as np
import pytest

from fddkit.errors import ConfigError, UndefinedMetricError
from fddkit.metrics import (ConfusionMatrix, average_fdr, build_report,
                            confusion, confusion_to_text, far, fdr,
                            fdr_precision, format_report, save_report)


def tally_oracle(true, pred, m):
    counts = np.zeros((m, m), dtype=np.int64)
    for t, p in zip(true, pred):
        counts[t][p] += 1
    return counts


def test_confusion_matches_double_loop_tally():
    rng = np.random.default_rng(8)
    true = rng.integers(0, 3, size=1000)
    pred = rng.integers(0, 3, size=1000)
    cm = confusion(true, pred, 3)
    np.testing.assert_array_equal(cm.counts, tally_oracle(true, pred, 3))
    assert cm.total == 1000


def test_confusion_perfect_is_diagonal():
    true = np.array([0, 1, 2, 2, 1, 0, 0])
    cm = confusion(true, true, 3)
    assert np.all(cm.counts == np.diag(np.diag(cm.counts)))
    np.testing.assert_array_equal(np.diag(cm.counts), [3, 2, 2])


def test_confusion_input_validation():
    with pytest.raises(ConfigError):
        confusion([0, 1], [0], 2)
    with pytest.raises(ConfigError):
        confusion([0, 3], [0, 1], 3)
    with pytest.raises(ConfigError):
        confusion([0, -1], [0, 1], 3)


def test_fdr_far_direct_counts():
    # True class 1 appears 10 times, 8 predicted correctly.
    true = [1] * 10 + [0] * 100
    pred = [1] * 8 + [2, 0] + [0] * 97 + [1, 2, 2]
    cm = confusion(true, pred, 3)
    assert fdr(cm, 1) == 0.8
    assert far(cm, 0) == 0.03
    # Nothing correct for class 2.
    assert cm.counts[2].sum() == 0
    with pytest.raises(UndefinedMetricError):
        fdr(cm, 2)


def test_two_class_identity_far_is_one_minus_normal_fdr():
    rng = np.random.default_rng(13)
    true = rng.integers(0, 2, size=500)
    pred = rng.integers(0, 2, size=500)
    cm = confusion(true, pred, 2)
    assert far(cm, 0) == 1.0 - fdr(cm, 0)


def test_fdr_precision_is_column_based():
    cm = ConfusionMatrix(np.array([[5, 5], [5, 5]]))
    assert fdr(cm, 1) == 0.5
    assert fdr_precision(cm, 1) == 0.5
    cm = ConfusionMatrix(np.array([[9, 1], [0, 10]]))
    assert fdr(cm, 1) == 1.0
    assert fdr_precision(cm, 1) == 10.0 / 11.0


def test_relabeling_preserves_totals():
    rng = np.random.default_rng(2)
    true = rng.integers(0, 4, size=300)
    pred = rng.integers(0, 4, size=300)
    cm = confusion(true, pred, 4)
    perm = np.array([2, 0, 3, 1])
    cm2 = confusion(perm[true], perm[pred], 4)
    assert cm2.total == cm.total
    np.testing.assert_array_equal(cm2.counts[perm][:, perm], cm.counts)


def test_average_fdr_is_arithmetic_mean():
    cm = ConfusionMatrix(np.array([[10, 0, 0], [2, 8, 0], [5, 0, 5]]))
    assert average_fdr(cm, [1, 2]) == (0.8 + 0.5) / 2
    with pytest.raises(UndefinedMetricError):
        average_fdr(cm, [])


def test_build_report_and_formatting():
    true = [0] * 50 + [1] * 25 + [2] * 25
    pred = [0] * 48 + [1, 2] + [1] * 20 + [0] * 5 + [2] * 25
    cm = confusion(true, pred, 3)
    report = build_report(cm, normal=0, metadata={"horizon": 5})
    assert report.far == 0.04
    assert report.fdr_by_class[1] == 0.8
    assert report.fdr_by_class[2] == 1.0
    assert report.avg_fdr == 0.9
    text = format_report(report)
    assert "80.00" in text and "90.00" in text and "4.00" in text
    assert "# horizon: 5" in text


def test_report_rates_stay_in_unit_interval():
    rng = np.random.default_rng(77)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        true = rng.integers(0, m, size=200)
        pred = rng.integers(0, m, size=200)
        cm = confusion(true, pred, m)
        rep = build_report(cm)
        for v in rep.fdr_by_class.values():
            assert 0.0 <= v <= 1.0
        if rep.far is not None:
            assert 0.0 <= rep.far <= 1.0


def test_save_report_files(tmp_path):
    cm = confusion([0, 1, 1], [0, 1, 0], 2)
    report = build_report(cm, metadata={"model": "demo"})
    save_report(report, tmp_path / "out")
    assert (tmp_path / "out" / "confusion.txt").read_text() == "1 0\n1 1\n"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["fdr_by_class"]["1"] == 0.5
    assert summary["far"] == 0.0
    # Deterministic bytes on rewrite.
    first = (tmp_path / "out" / "summary.json").read_bytes()
    save_report(report, tmp_path / "out")
    assert (tmp_path / "out" / "summary.json").read_bytes() == first
    assert confusion_to_text(cm) == "1 0\n1 1\n"
