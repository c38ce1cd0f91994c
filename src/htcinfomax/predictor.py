"""Classification head, binary cross-entropy, and micro/macro F1.

The head flattens the label-aware features of each document and applies a
single linear layer to produce one logit per label.  Losses are computed
in logit space so probabilities never reach 0 or 1 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import LabelAwareFeatures, glorot, zeros_param


@dataclass
class Predictions:
    logits: Tensor          # [B, N]
    probs: np.ndarray       # sigmoid(logits), in (0, 1)
    decisions: np.ndarray   # 0/1 at the threshold; ties go to positive


class PredictorHead:
    """Single linear layer over flattened label-aware features."""

    def __init__(self, num_labels: int, feature_dim: int, rng: np.random.Generator,
                 threshold: float = 0.5):
        flat_dim = num_labels * feature_dim
        self.weight = glorot(rng, (flat_dim, num_labels), flat_dim, num_labels)
        self.bias = zeros_param(num_labels)
        self.threshold = threshold

    def named_params(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}

    def __call__(self, laf: LabelAwareFeatures) -> Predictions:
        b, n, d = laf.matrix.shape
        flat = ad.reshape(laf.matrix, (b, n * d))
        logits = ad.matmul(flat, self.weight, self.bias)
        probs = 1.0 / (1.0 + np.exp(-np.clip(logits.data, -700, 700)))
        decisions = (probs >= self.threshold).astype(np.float64)
        return Predictions(logits=logits, probs=probs, decisions=decisions)


def bce_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy, computed stably from logits.

    Equals the mean over all (document, label) cells of
    -[t*log(p) + (1-t)*log(1-p)] with p = sigmoid(logit).
    """
    if logits.shape != targets.shape:
        raise ad.DimensionError(f"logits {logits.shape} vs targets {targets.shape}")
    t = Tensor(np.asarray(targets, dtype=np.float64))
    per_cell = ad.add(ad.softplus(logits), ad.neg(ad.mul(t, logits)))
    return ad.mean(per_cell)


def _f1(tp: float, fp: float, fn: float) -> float:
    denom = 2.0 * tp + fp + fn
    return 2.0 * tp / denom if denom > 0 else 0.0


def confusion_counts(decisions: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-label (TP, FP, FN) count vectors."""
    decisions = np.asarray(decisions)
    targets = np.asarray(targets)
    if decisions.shape != targets.shape:
        raise ad.DimensionError(f"decisions {decisions.shape} vs targets {targets.shape}")
    tp = ((decisions == 1) & (targets == 1)).sum(axis=0)
    fp = ((decisions == 1) & (targets == 0)).sum(axis=0)
    fn = ((decisions == 0) & (targets == 1)).sum(axis=0)
    return tp, fp, fn


def micro_f1(decisions: np.ndarray, targets: np.ndarray) -> float:
    """F1 of confusion counts pooled over all labels."""
    tp, fp, fn = confusion_counts(decisions, targets)
    return float(_f1(tp.sum(), fp.sum(), fn.sum()))


def macro_f1(decisions: np.ndarray, targets: np.ndarray) -> float:
    """Unweighted mean of per-label F1; an all-zero label contributes 0."""
    tp, fp, fn = confusion_counts(decisions, targets)
    return float(np.mean([_f1(t, p, n) for t, p, n in zip(tp, fp, fn)]))
