import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsrg.errors import DimensionError
from tsrg.metrics import (EvalReport, evaluate, render_text,
                          report_from_confusion)


def test_perfect_predictions():
    labels = np.array([0, 1, 2, 1, 0, 2, 2])
    report = evaluate(labels, labels, 3)
    assert report.war == 1.0
    assert report.uar == 1.0


def test_balanced_hand_case():
    report = report_from_confusion(np.array([[8, 2], [3, 7]]))
    assert report.war == pytest.approx(0.75, abs=1e-12)
    assert report.uar == pytest.approx(0.75, abs=1e-12)


def test_imbalanced_hand_case():
    # exact rational arithmetic: WAR = 95/110, UAR = (9/10 + 1/2)/2
    report = report_from_confusion(np.array([[90, 10], [5, 5]]))
    assert report.war == pytest.approx(float(Fraction(95, 110)), abs=1e-12)
    assert report.uar == pytest.approx(0.70, abs=1e-12)
    assert report.war > report.uar  # majority-class bias shows as WAR >> UAR


def test_confusion_sums_to_sample_count():
    rng = np.random.default_rng(0)
    t = rng.integers(0, 3, 50)
    p = rng.integers(0, 3, 50)
    report = evaluate(t, p, 3)
    assert report.confusion.sum() == 50
    assert report.war == pytest.approx(report.confusion.trace() / 50)


def test_absent_class_excluded_from_uar():
    t = np.array([0, 0, 1, 1])
    p = np.array([0, 2, 1, 1])
    report = evaluate(t, p, 3)
    assert report.absent_classes == (2,)
    assert report.uar == pytest.approx((0.5 + 1.0) / 2)


def test_length_mismatch():
    with pytest.raises(DimensionError):
        evaluate(np.array([0, 1]), np.array([0]), 2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=40),
       st.randoms())
def test_joint_permutation_invariance(pairs, rnd):
    t = np.array([a for a, _ in pairs])
    p = np.array([b for _, b in pairs])
    base = evaluate(t, p, 3)
    order = list(range(len(pairs)))
    rnd.shuffle(order)
    permuted = evaluate(t[order], p[order], 3)
    assert permuted == base


def test_uniform_class_sizes_war_equals_uar():
    rng = np.random.default_rng(1)
    t = np.repeat([0, 1, 2], 20)
    p = rng.integers(0, 3, 60)
    report = evaluate(t, p, 3)
    assert abs(report.war - report.uar) < 1e-12


def test_duplication_changes_war_not_uar():
    t = np.array([0, 0, 1, 1, 1, 1])
    p = np.array([0, 1, 1, 1, 1, 0])
    base = evaluate(t, p, 2)
    # duplicate every class-1 sample
    keep = t == 1
    t2 = np.concatenate([t, t[keep]])
    p2 = np.concatenate([p, p[keep]])
    dup = evaluate(t2, p2, 2)
    assert dup.uar == pytest.approx(base.uar, abs=1e-12)
    assert dup.war != pytest.approx(base.war, abs=1e-12)


def test_round_trip():
    report = evaluate(np.array([0, 1, 1, 2]), np.array([0, 1, 2, 2]), 3,
                      ("neg", "pos", "sur"))
    assert EvalReport.from_dict(report.to_dict()) == report


def test_render_text_shows_percentages():
    report = report_from_confusion(np.array([[8, 2], [0, 10]]), ("neg", "pos"))
    text = render_text(report, "demo")
    assert "demo" in text
    assert "80.00" in text and "100.00" in text
    assert "WAR = 90.00%" in text


@st.composite
def count_matrices(draw):
    """k x k counts, k in 2..5, some rows possibly all zero, not all zero."""
    k = draw(st.integers(2, 5))
    conf = np.array(draw(st.lists(st.lists(st.integers(0, 30), min_size=k, max_size=k),
                                  min_size=k, max_size=k)), dtype=np.int64)
    conf[draw(st.lists(st.booleans(), min_size=k, max_size=k))] = 0
    assume(conf.any())
    return conf


@settings(max_examples=100, deadline=None)
@given(count_matrices())
def test_scores_are_derived_from_the_counts(conf):
    report = report_from_confusion(conf)
    rows = [sum(int(c) for c in row) for row in conf]
    present = [i for i, n in enumerate(rows) if n]
    assert report.war == float(Fraction(int(conf.trace()), sum(rows)))
    exact_uar = sum(Fraction(int(conf[i, i]), rows[i]) for i in present) / len(present)
    assert math.isclose(report.uar, exact_uar, rel_tol=1e-14)
    assert report.absent_classes == tuple(i for i, n in enumerate(rows) if not n)

    assert EvalReport.from_dict(report.to_dict()) == report
    record = json.loads(json.dumps(report.to_dict()))
    assert EvalReport.from_dict(record) == report
    record["uar"] = float(np.nextafter(record["uar"], 2.0))
    with pytest.raises(ValueError, match="^war, uar and absent_classes must match"):
        EvalReport.from_dict(record)

