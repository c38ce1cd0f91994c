"""Prediction head, classification loss, and micro/macro F1 metrics."""

import numpy as np
import pytest

from gradcheck import finite_difference_check
from htcinfomax import autodiff as ad
from htcinfomax.autodiff import Tensor
from htcinfomax.encoders import LabelAwareFeatures
from htcinfomax.predictor import (
    PredictorHead,
    bce_loss,
    confusion_counts,
    macro_f1,
    micro_f1,
)


def make_laf(rng, batch=2, labels=4, dim=3):
    return LabelAwareFeatures(
        matrix=Tensor(rng.standard_normal((batch, labels, dim)), requires_grad=True),
        attention=Tensor(np.ones((batch, labels, 1))),
    )


# -- head -------------------------------------------------------------------------


def test_head_shapes_and_probability_range():
    rng = np.random.default_rng(0)
    head = PredictorHead(4, 3, rng)
    preds = head(make_laf(rng))
    assert preds.logits.shape == (2, 4)
    assert preds.probs.shape == (2, 4)
    assert ((preds.probs > 0) & (preds.probs < 1)).all()
    assert set(np.unique(preds.decisions)) <= {0.0, 1.0}


def test_head_threshold_changes_decisions():
    rng = np.random.default_rng(1)
    strict = PredictorHead(4, 3, np.random.default_rng(1), threshold=0.99)
    lax = PredictorHead(4, 3, np.random.default_rng(1), threshold=0.01)
    laf = make_laf(rng)
    assert strict(laf).decisions.sum() <= lax(laf).decisions.sum()


def test_head_decision_rule_is_threshold_on_probs():
    rng = np.random.default_rng(2)
    head = PredictorHead(4, 3, rng, threshold=0.5)
    preds = head(make_laf(rng))
    assert np.array_equal(preds.decisions, (preds.probs >= 0.5).astype(float))


def test_head_gradients_flow():
    rng = np.random.default_rng(3)
    head = PredictorHead(4, 3, rng)
    laf = make_laf(rng)
    targets = (rng.random((2, 4)) > 0.5).astype(float)

    def f():
        return bce_loss(head(laf).logits, targets)

    params = {"input": laf.matrix}
    params.update(head.named_params())
    report = finite_difference_check(f, params)
    assert report.passed, report.summary()


# -- classification loss ------------------------------------------------------------


def test_bce_matches_naive_formula_at_moderate_logits():
    rng = np.random.default_rng(4)
    logits = rng.uniform(-4, 4, (5, 7))
    targets = (rng.random((5, 7)) > 0.5).astype(float)
    loss = bce_loss(Tensor(logits), targets).item()
    p = 1.0 / (1.0 + np.exp(-logits))
    naive = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
    assert loss == pytest.approx(naive, rel=1e-10)


def test_bce_stable_at_extreme_logits():
    logits = Tensor(np.array([[1000.0, -1000.0]]))
    targets = np.array([[1.0, 0.0]])
    assert bce_loss(logits, targets).item() == pytest.approx(0.0, abs=1e-12)
    targets_wrong = np.array([[0.0, 1.0]])
    loss = bce_loss(logits, targets_wrong).item()
    assert np.isfinite(loss) and loss == pytest.approx(1000.0)


def test_bce_shape_mismatch_rejected():
    with pytest.raises(ad.DimensionError):
        bce_loss(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))


# -- metrics ----------------------------------------------------------------------


def brute_force_f1(decisions, targets):
    """Element-by-element confusion enumeration, no vectorized shortcuts."""
    n_labels = decisions.shape[1]
    per_label = []
    tp_all = fp_all = fn_all = 0
    for j in range(n_labels):
        tp = fp = fn = 0
        for i in range(decisions.shape[0]):
            d, t = decisions[i, j], targets[i, j]
            if d == 1 and t == 1:
                tp += 1
            elif d == 1 and t == 0:
                fp += 1
            elif d == 0 and t == 1:
                fn += 1
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        per_label.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0)
    micro = (2 * tp_all / (2 * tp_all + fp_all + fn_all)
             if (2 * tp_all + fp_all + fn_all) > 0 else 0.0)
    return micro, float(np.mean(per_label))


def test_confusion_counts_hand_example():
    decisions = np.array([[1, 0], [1, 1], [0, 0]], dtype=float)
    targets = np.array([[1, 1], [0, 1], [0, 0]], dtype=float)
    tp, fp, fn = confusion_counts(decisions, targets)
    assert tp.tolist() == [1, 1]
    assert fp.tolist() == [1, 0]
    assert fn.tolist() == [0, 1]


def test_f1_hand_example():
    decisions = np.array([[1, 0], [1, 1], [0, 0]], dtype=float)
    targets = np.array([[1, 1], [0, 1], [0, 0]], dtype=float)
    # pooled: tp=2 fp=1 fn=1 -> 2*2/(4+1+1)
    assert micro_f1(decisions, targets) == pytest.approx(4 / 6)
    # label 0: f1=2/3; label 1: f1=2/3
    assert macro_f1(decisions, targets) == pytest.approx(2 / 3)


def test_f1_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(5)
    for _ in range(100):
        decisions = (rng.random((8, 12)) > rng.uniform(0.2, 0.8)).astype(float)
        targets = (rng.random((8, 12)) > rng.uniform(0.2, 0.8)).astype(float)
        micro, macro = brute_force_f1(decisions, targets)
        assert micro_f1(decisions, targets) == micro
        assert macro_f1(decisions, targets) == pytest.approx(macro, abs=0)


def test_f1_empty_label_contributes_zero():
    decisions = np.zeros((4, 3))
    targets = np.zeros((4, 3))
    targets[:, 0] = 1
    decisions[:, 0] = 1
    # label 0 perfect, labels 1 and 2 empty -> macro (1 + 0 + 0)/3
    assert macro_f1(decisions, targets) == pytest.approx(1 / 3)
    assert micro_f1(decisions, targets) == pytest.approx(1.0)


def test_f1_all_empty_is_zero():
    z = np.zeros((3, 4))
    assert micro_f1(z, z) == 0.0
    assert macro_f1(z, z) == 0.0


def test_f1_perfect_predictions():
    rng = np.random.default_rng(6)
    targets = (rng.random((10, 5)) > 0.5).astype(float)
    assert micro_f1(targets, targets) == pytest.approx(1.0)


def test_metrics_shape_mismatch_rejected():
    with pytest.raises(ad.DimensionError):
        micro_f1(np.zeros((2, 3)), np.zeros((2, 4)))
