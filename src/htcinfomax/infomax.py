"""Text-label mutual information maximization and label prior matching.

A binary discriminator scores (text, label) pairs: positives pair each
document with its ground-truth labels, negatives re-pair the same label
with the next document in the batch, and the resulting Jensen-Shannon
style lower bound on the text-label mutual information is maximized.
A second discriminator adversarially matches the learned label
representations to a uniform [0, 1) prior; the label encoder receives
reversed gradients through the fake-sample path so its distribution moves
toward the prior while the discriminator learns to tell them apart.
A learned sigmoid gate blends the two auxiliary losses into the total
objective next to the classification loss.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import derived_rng
from .encoders import LabelRepresentations, TextFeatures, glorot, zeros_param

LN2 = float(np.log(2.0))

# Relu-followed layers start with a small positive bias so no unit is dead
# at initialization; with narrow layers and small inputs, an all-negative
# preactivation would otherwise freeze the whole discriminator at exactly
# zero logits (zero gradient everywhere below it).
RELU_BIAS = 0.01


class MIDiscriminator:
    """Pair scorer: conv stack over token features, pooled, joined with the
    label representation, then three linear layers to a single logit.

    Default widths: conv d_t->d_t (relu), conv d_t->512 (no activation),
    then linear (512 + d_y)->512->512->1 with relu on the first two.  The
    final layer has no activation; probabilities are formed in the loss
    from the logit, which keeps the log terms finite.

    conv2 and lin1 are linear in their input and are computed in the
    cheaper of two orders that are equal by exact identities, with the
    layer shapes above unchanged: pool, then project (conv2 after the
    masked mean, `pool_text`) and project, then gather (lin1 once per
    document and once per label before the pairs are formed, `score_pairs`).
    """

    def __init__(self, text_dim: int, label_dim: int, hidden: int,
                 rng: np.random.Generator, kernel_size: int = 3):
        self.conv1_kernel = glorot(rng, (kernel_size, text_dim, text_dim),
                                   kernel_size * text_dim, kernel_size * text_dim)
        self.conv1_bias = zeros_param(text_dim, RELU_BIAS)
        self.conv2_kernel = glorot(rng, (kernel_size, text_dim, hidden),
                                   kernel_size * text_dim, kernel_size * hidden)
        self.conv2_bias = zeros_param(hidden)
        joined = hidden + label_dim
        self.lin1_w = glorot(rng, (joined, hidden), joined, hidden)
        self.lin1_b = zeros_param(hidden, RELU_BIAS)
        self.lin2_w = glorot(rng, (hidden, hidden), hidden, hidden)
        self.lin2_b = zeros_param(hidden, RELU_BIAS)
        self.lin3_w = glorot(rng, (hidden, 1), hidden, 1)
        self.lin3_b = zeros_param(1)

    def named_params(self) -> dict[str, Tensor]:
        return {
            "conv1.kernel": self.conv1_kernel, "conv1.bias": self.conv1_bias,
            "conv2.kernel": self.conv2_kernel, "conv2.bias": self.conv2_bias,
            "lin1.weight": self.lin1_w, "lin1.bias": self.lin1_b,
            "lin2.weight": self.lin2_w, "lin2.bias": self.lin2_b,
            "lin3.weight": self.lin3_w, "lin3.bias": self.lin3_b,
        }

    def zero_init(self):
        for p in self.named_params().values():
            p.data[...] = 0.0

    def pool_text(self, token_feats: Tensor, mask: np.ndarray) -> Tensor:
        """Conv stack plus mask-aware mean pooling: [B,S,d_t] -> [B,hidden].

        Equal to masked_mean(conv2(h) + b2) with h = relu(conv1(x) + b1)
        zeroed on padded positions, so a document's result does not depend
        on how wide its batch was padded.  conv2 has no activation, so the
        mean is taken first: tap t of conv2 sees h shifted by t - left, and
        the masked mean of that shifted h is one row of a [k, S] weight
        matrix times h.  The k shifted means, side by side, meet the
        flattened [k*d_t, hidden] kernel in a [B, k*d_t] GEMM instead of
        the [B*S, k*d_t] one of a convolution.
        """
        h = ad.relu(ad.conv1d(token_feats, self.conv1_kernel, self.conv1_bias))
        h = ad.apply_mask(h, mask)
        k, channels, hidden = self.conv2_kernel.shape
        shifted = ad.bmm(Tensor(_shifted_mean_weights(mask, k)), h)
        flat = ad.reshape(shifted, (h.shape[0], k * channels))
        kernel = ad.reshape(self.conv2_kernel, (k * channels, hidden))
        return ad.matmul(flat, kernel, self.conv2_bias)

    def score_pairs(self, doc_idx: np.ndarray, label_idx: np.ndarray,
                    pooled_text: Tensor, label_reps: Tensor) -> Tensor:
        """Logits [P, 1] for the pairs (pooled_text[doc_idx[p]], label_reps[label_idx[p]]).

        lin1 of a joined pair is [text, 0] @ W + [0, label] @ W + b, so the
        B documents and N labels are projected once each, as the rows of
        one block-diagonal input, and each pair adds its two projected
        rows (a 0/1 selector GEMM) instead of running lin1 on P joined rows.
        """
        batch, hidden = pooled_text.shape
        count, label_dim = label_reps.shape
        blocks = ad.concat([
            ad.concat([pooled_text, Tensor(np.zeros((batch, label_dim)))], axis=1),
            ad.concat([Tensor(np.zeros((count, hidden))), label_reps], axis=1),
        ], axis=0)
        projected = ad.matmul(blocks, self.lin1_w)
        rows = np.arange(len(doc_idx))
        selector = np.zeros((len(doc_idx), batch + count))
        selector[rows, doc_idx] = 1.0
        selector[rows, batch + label_idx] = 1.0
        h = ad.relu(ad.matmul(Tensor(selector), projected, self.lin1_b))
        h = ad.relu(ad.matmul(h, self.lin2_w, self.lin2_b))
        return ad.matmul(h, self.lin3_w, self.lin3_b)


def _shifted_mean_weights(mask: np.ndarray, k: int) -> np.ndarray:
    """[B, k, S] weights whose row (b, t) averages tap t of a same-length
    width-k conv over the unmasked positions of sequence b.

    Tap t reads position s + t - left for output s (left = (k-1)//2, zero
    padding outside the sequence), so its weight on position j is the
    masked-mean weight of s = j - t + left.
    """
    m = np.asarray(mask, dtype=np.float64)
    counts = m.sum(axis=1)
    if np.any(counts == 0):
        raise ad.DomainError("mean pooling over a fully masked sequence")
    weights = m / counts[:, None]
    seq_len = m.shape[1]
    left = (k - 1) // 2
    out = np.zeros((m.shape[0], k, seq_len))
    for tap in range(k):
        shift = tap - left
        lo, hi = max(0, shift), min(seq_len, seq_len + shift)
        out[:, tap, lo:hi] = weights[:, lo - shift:hi - shift]
    return out


class PriorDiscriminator:
    """Three linear layers (label_dim -> h1 -> h2 -> 1) ending in a sigmoid."""

    def __init__(self, label_dim: int, hidden: tuple[int, int],
                 rng: np.random.Generator):
        h1, h2 = hidden
        self.lin1_w = glorot(rng, (label_dim, h1), label_dim, h1)
        self.lin1_b = zeros_param(h1, RELU_BIAS)
        self.lin2_w = glorot(rng, (h1, h2), h1, h2)
        self.lin2_b = zeros_param(h2, RELU_BIAS)
        self.lin3_w = glorot(rng, (h2, 1), h2, 1)
        self.lin3_b = zeros_param(1)

    def named_params(self) -> dict[str, Tensor]:
        return {
            "lin1.weight": self.lin1_w, "lin1.bias": self.lin1_b,
            "lin2.weight": self.lin2_w, "lin2.bias": self.lin2_b,
            "lin3.weight": self.lin3_w, "lin3.bias": self.lin3_b,
        }

    def zero_init(self):
        for p in self.named_params().values():
            p.data[...] = 0.0

    def logits(self, reps: Tensor) -> Tensor:
        h = ad.relu(ad.matmul(reps, self.lin1_w, self.lin1_b))
        h = ad.relu(ad.matmul(h, self.lin2_w, self.lin2_b))
        return ad.matmul(h, self.lin3_w, self.lin3_b)

    def __call__(self, reps: Tensor) -> Tensor:
        """Probability in (0, 1) that each row came from the prior."""
        return ad.sigmoid(self.logits(reps))


class LossWeightEstimator:
    """Sigmoid of [batch-mean text feature, label-mean representation] dotted
    with [w_text; w_label], plus a bias; starts at 0.5 (zero init)."""

    def __init__(self, text_dim: int, label_dim: int):
        self.w_text = zeros_param((text_dim, 1))
        self.w_label = zeros_param((label_dim, 1))
        self.bias = zeros_param(())

    def named_params(self) -> dict[str, Tensor]:
        return {"w_text": self.w_text, "w_label": self.w_label, "bias": self.bias}

    def __call__(self, pooled_text: Tensor, lr: LabelRepresentations) -> Tensor:
        means = ad.concat([ad.mean(pooled_text, axis=0), ad.mean(lr.matrix, axis=0)])
        weights = ad.concat([self.w_text, self.w_label])
        dot = ad.reshape(ad.matmul(ad.reshape(means, (1, -1)), weights), ())
        return ad.sigmoid(ad.add(dot, self.bias))


def mi_pairs(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (pos_doc, label, neg_doc) for in-batch pairing.

    One positive pair per (document, ground-truth label); the negative
    pairs the same label with the cyclically next document, which is a
    different sample whenever the batch has at least two documents.
    """
    batch = targets.shape[0]
    if batch < 2:
        raise ad.ContractError("negative sampling requires batch >= 2")
    pos_doc, label_col = np.nonzero(targets)
    if len(np.unique(pos_doc)) != batch:
        raise ad.ContractError("every document needs at least one target label")
    neg_doc = (pos_doc + 1) % batch
    return pos_doc, label_col, neg_doc


def _js_loss(logits: Tensor) -> Tensor:
    """-(mean(log D(real)) + mean(log(1 - D(fake)))) with D = sigmoid(logit),
    from the [2n, 1] logits of n real rows followed by n fake ones.

    With log(1 - D(x)) = logsigmoid(-x) and equal halves, the bound is
    twice the mean of logsigmoid(sign * logit) with sign +1 on the real
    half and -1 on the fake half, so one pass scores both halves.
    """
    sign = np.ones((logits.shape[0], 1))
    sign[logits.shape[0] // 2:] = -1.0
    return ad.mul(ad.mean(ad.logsigmoid(ad.mul(logits, Tensor(sign)))), -2.0)


def mi_loss(tf: TextFeatures, lr: LabelRepresentations, targets: np.ndarray,
            disc: MIDiscriminator) -> Tensor:
    """Negated mutual information lower bound over in-batch pairs.

    The JS bound of `_js_loss` with the positive pairs as real rows and
    the negatives as fake: 2*ln2 when the discriminator is at chance,
    approaching 0 as it separates the joint from the product of marginals.
    Encoder and discriminator both descend this loss (cooperative).
    """
    pos_doc, label_col, neg_doc = mi_pairs(targets)
    pooled = disc.pool_text(tf.token_feats, tf.mask)
    return _js_loss(disc.score_pairs(np.concatenate([pos_doc, neg_doc]),
                                     np.concatenate([label_col, label_col]),
                                     pooled, lr.matrix))


def sample_prior(count: int, dim: int, seed: int) -> Tensor:
    """Deterministic i.i.d. uniform [0, 1) draws, one row per label."""
    return Tensor(derived_rng(seed, "label-prior").random((count, dim)))


def prior_matching_loss(lr: LabelRepresentations, prior: Tensor,
                        disc: PriorDiscriminator) -> Tensor:
    """Mean over labels of -(log D(prior_i) + log(1 - D(label_i))).

    The JS bound of `_js_loss`, with the prior rows as real and the label
    representations as fake, both scored in one discriminator pass.  The
    discriminator descends this loss as written; the label encoder sees
    reversed gradients through its (fake) rows, so the same backward pass
    pushes the learned label distribution toward the prior.
    """
    if prior.shape != lr.matrix.shape:
        raise ad.DimensionError(
            f"prior shape {prior.shape} does not match label representations {lr.matrix.shape}")
    return _js_loss(disc.logits(ad.concat([prior, ad.grad_reverse(lr.matrix)], axis=0)))


@dataclass
class LossBundle:
    """Scalars of one training step; total = l_c + f*l_mi + (1-f)*l_pr."""

    l_c: float
    l_mi: float
    l_pr: float
    f_weight: float
    total: float

    def to_dict(self) -> dict:
        return {"L": self.total, "L_c": self.l_c, "L_MI": self.l_mi,
                "L_pr": self.l_pr, "F": self.f_weight}


class NumericError(RuntimeError):
    """A loss term became non-finite."""


def _check_finite(value: float, name: str):
    if not np.isfinite(value):
        raise NumericError(f"loss term {name} is not finite: {value}")


def total_loss(l_c: Tensor, l_mi: Tensor | None, l_pr: Tensor | None,
               f_weight: Tensor | None) -> tuple[Tensor, LossBundle]:
    """Combine per Eq-style gating: l_c + (w_MI*l_mi + w_pr*l_pr).

    Disabled terms pass None.  With both auxiliary terms present the gate
    gives (w_MI, w_pr) = (f, 1 - f); a lone auxiliary term gets weight 1
    (added as is), and with both disabled the objective degenerates to the
    classification loss.  The reported F is f, 1.0 without the prior term
    and 0.0 otherwise, which keeps the bundle identity exact.
    """
    for name, term in (("L_c", l_c), ("L_MI", l_mi), ("L_pr", l_pr)):
        if term is not None:
            _check_finite(term.item(), name)
    gated = l_mi is not None and l_pr is not None
    if gated and f_weight is None:
        raise ad.ContractError("full objective requires the loss weight gate")
    f_value = f_weight.item() if gated else float(l_mi is not None)
    _check_finite(f_value, "F")
    # None stands for weight 1: the term is added without a multiply
    weights = (f_weight, ad.add(ad.neg(f_weight), 1.0)) if gated else (None, None)
    weighted = [term if w is None else ad.mul(w, term)
                for term, w in zip((l_mi, l_pr), weights) if term is not None]
    total = ad.add(l_c, functools.reduce(ad.add, weighted)) if weighted else l_c
    l_mi_value, l_pr_value = (0.0 if t is None else t.item() for t in (l_mi, l_pr))
    return total, LossBundle(l_c.item(), l_mi_value, l_pr_value, f_value, total.item())
