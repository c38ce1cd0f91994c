"""Text encoder, label structure encoder, and multi-label attention.

The text encoder is an embedding layer followed by parallel same-length
1-D convolutions (kernel widths 2/3/4 by default) whose channel outputs
concatenate to the token feature width.  Label representations come from
a two-layer graph convolution over the normalized taxonomy adjacency,
seeded from a learned per-label embedding table.  Multi-label attention
then pools token features once per label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import Batch


def glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def embedding_table(rng: np.random.Generator, rows: int, dim: int) -> Tensor:
    return Tensor(rng.uniform(-0.1, 0.1, size=(rows, dim)), requires_grad=True)


def zeros_param(shape, fill: float = 0.0) -> Tensor:
    return Tensor(np.full(shape, fill, dtype=np.float64), requires_grad=True)


@dataclass
class TextFeatures:
    token_feats: Tensor      # [B, S, d_t], zeroed on masked positions
    pooled: Tensor           # [B, d_t], mask-aware mean over S
    mask: np.ndarray         # [B, S] 0/1


@dataclass
class LabelRepresentations:
    matrix: Tensor           # [N, d_y], one row per non-root label in id order


@dataclass
class LabelAwareFeatures:
    matrix: Tensor           # [B, N, d_t]
    attention: Tensor        # [B, N, S], rows sum to 1, zero on masked slots


class TextEncoder:
    """Token embeddings plus parallel CNNs producing d_t features per token."""

    def __init__(self, vocab_size: int, embed_dim: int, feature_dim: int,
                 kernel_sizes: tuple[int, ...], rng: np.random.Generator):
        if feature_dim % len(kernel_sizes) != 0:
            raise ad.DimensionError(
                f"feature_dim {feature_dim} not divisible by {len(kernel_sizes)} kernel branches")
        self.kernel_sizes = tuple(kernel_sizes)
        channels = feature_dim // len(kernel_sizes)
        self.embedding = embedding_table(rng, vocab_size, embed_dim)
        self.kernels = [
            glorot(rng, (k, embed_dim, channels), fan_in=k * embed_dim, fan_out=k * channels)
            for k in self.kernel_sizes
        ]
        self.biases = [zeros_param(channels) for _ in self.kernel_sizes]

    def named_params(self) -> dict[str, Tensor]:
        params = {"embedding": self.embedding}
        for k, kernel, bias in zip(self.kernel_sizes, self.kernels, self.biases):
            params[f"conv{k}.kernel"] = kernel
            params[f"conv{k}.bias"] = bias
        return params

    def __call__(self, batch: Batch) -> TextFeatures:
        # Zero padding embeddings before the convolution: a document's
        # features must not depend on how wide its batch was padded.
        embedded = ad.apply_mask(ad.embedding_lookup(self.embedding, batch.token_ids), batch.mask)
        branches = [
            ad.conv1d(embedded, kernel, bias)
            for kernel, bias in zip(self.kernels, self.biases)
        ]
        feats = ad.relu(ad.concat(branches, axis=2))
        feats = ad.apply_mask(feats, batch.mask)
        pooled = ad.masked_mean(feats, batch.mask)
        return TextFeatures(token_feats=feats, pooled=pooled, mask=batch.mask)


class StructureEncoder:
    """Two graph-convolution layers over the label hierarchy.

    H1 = relu(A_hat @ H0 @ W0 + b0), Y = A_hat @ H1 @ W1 + b1, where H0 is
    a learned embedding per taxonomy node.  Output keeps only non-root
    rows, in label id order.
    """

    def __init__(self, adjacency: Tensor, nonroot_ids: list[int], label_dim: int,
                 rng: np.random.Generator):
        n_nodes = adjacency.shape[0]
        self.adjacency = adjacency
        self.nonroot_ids = np.asarray(nonroot_ids, dtype=np.int64)
        self.node_embedding = embedding_table(rng, n_nodes, label_dim)
        self.w0 = glorot(rng, (label_dim, label_dim), label_dim, label_dim)
        self.b0 = zeros_param(label_dim)
        self.w1 = glorot(rng, (label_dim, label_dim), label_dim, label_dim)
        self.b1 = zeros_param(label_dim)

    def named_params(self) -> dict[str, Tensor]:
        return {
            "node_embedding": self.node_embedding,
            "gcn0.weight": self.w0,
            "gcn0.bias": self.b0,
            "gcn1.weight": self.w1,
            "gcn1.bias": self.b1,
        }

    def __call__(self) -> LabelRepresentations:
        hidden = ad.relu(ad.matmul(ad.matmul(self.adjacency, self.node_embedding), self.w0, self.b0))
        out = ad.matmul(ad.matmul(self.adjacency, hidden), self.w1, self.b1)
        return LabelRepresentations(matrix=ad.embedding_lookup(out, self.nonroot_ids))


def multi_label_attention(tf: TextFeatures, lr: LabelRepresentations) -> LabelAwareFeatures:
    """Per-label softmax attention over token positions.

    scores[b, j, s] = <token_feats[b, s], label[j]>, masked softmax over s,
    then a weighted sum of token features per label.
    """
    b, s, d = tf.token_feats.shape
    n, d_y = lr.matrix.shape
    if d != d_y:
        raise ad.DimensionError(f"token feature width {d} != label width {d_y}")
    flat = ad.reshape(tf.token_feats, (b * s, d))
    scores = ad.reshape(ad.matmul(flat, ad.transpose(lr.matrix, (1, 0))), (b, s, n))
    scores = ad.transpose(scores, (0, 2, 1))  # [B, N, S]
    attention = ad.masked_softmax(scores, tf.mask[:, None, :], axis=2)
    context = ad.bmm(attention, tf.token_feats)
    return LabelAwareFeatures(matrix=context, attention=attention)
