"""Optimization loop, parameter registry, checkpointing, and evaluation.

One training step runs the whole forward pass (text encoder, structure
encoder, attention, predictor, and the active information maximization
losses), a single backward pass with the adversarial gradient routing
baked into the graph, global-norm gradient clipping, and one Adam update.
Fixed (seed, data, config) triples give bit-identical trajectories.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import math
import os
import re
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataio import (_INTEGER, _POSITIVE, _REAL, DEFAULT_SEED, Batch, ConfigError, DataError,
                     Document, Settings, Vocabulary, _is_count, _is_real, _is_width, derived_rng,
                     make_batches)
from .encoders import (LabelRepresentations, StructureEncoder, TextEncoder, TextFeatures,
                       multi_label_attention)
from .infomax import (
    LossBundle,
    LossWeightEstimator,
    MIDiscriminator,
    NumericError,
    PriorDiscriminator,
    mi_loss,
    prior_matching_loss,
    sample_prior,
    total_loss,
)
from .predictor import Predictions, PredictorHead, bce_loss, confusion_counts, f1_from_counts
from .taxonomy import Taxonomy, normalized_adjacency, parse_taxonomy

CHECKPOINT_MAGIC = b"HTCIMAX1"
CHECKPOINT_VERSION = 4
_SHA256_HEX = re.compile(r"[0-9a-f]{64}")

log = logging.getLogger(__name__)


class CheckpointError(RuntimeError):
    """Unreadable, truncated, or architecturally incompatible checkpoint."""


def derive_seed(seed: int, *keys) -> int:
    """Stable integer sub-seed for a named stream."""
    return int(derived_rng(seed, *keys).integers(0, 2**31 - 1))


@dataclass
class ModelDims(Settings):
    """Layer widths; defaults give the full-scale configuration."""

    embed_dim: int = 300
    feature_dim: int = 300       # token feature width d_t
    label_dim: int = 300         # label representation width d_y
    text_kernels: tuple[int, ...] = (2, 3, 4)
    mi_hidden: int = 512
    mi_kernel: int = 3
    prior_hidden: tuple[int, int] = (1000, 200)

    SECTION = "dims"
    KINDS = {
        **dict.fromkeys(("embed_dim", "feature_dim", "label_dim", "mi_hidden", "mi_kernel"),
                        _POSITIVE),
        **dict.fromkeys(("text_kernels", "prior_hidden"), (
            lambda v: isinstance(v, (list, tuple)) and all(map(_is_width, v)),
            "a list of positive integers")),
    }

    def check(self):
        if self.feature_dim != self.label_dim:
            raise ConfigError("attention requires feature_dim == label_dim")
        if not self.text_kernels or self.feature_dim % len(self.text_kernels) != 0:
            raise ConfigError("feature_dim must divide evenly across >= 1 text kernels")
        if len(set(self.text_kernels)) != len(self.text_kernels):
            raise ConfigError("text_kernels must be distinct: each names its own parameters")
        if len(self.prior_hidden) != 2:
            raise ConfigError("prior_hidden must hold exactly two widths")


@dataclass
class TrainConfig(Settings):
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = DEFAULT_SEED
    disable_mi: bool = False
    disable_label_prior: bool = False
    threshold: float = 0.5
    max_len: int = 64
    clip_norm: float = 5.0       # 0 turns gradient clipping off
    checkpoint_path: str | None = None
    log_path: str | None = None
    dims: ModelDims = field(default_factory=ModelDims)

    SECTION = "train"
    KINDS = {
        "epochs": (_is_count, "a non-negative integer"),
        "batch_size": _POSITIVE, "max_len": _POSITIVE,
        "seed": _INTEGER,
        "learning_rate": (lambda v: _is_real(v) and v > 0, "a positive number"),
        "threshold": _REAL,
        "clip_norm": (lambda v: _is_real(v) and v >= 0, "a non-negative number"),
        **dict.fromkeys(("disable_mi", "disable_label_prior"),
                        (lambda v: isinstance(v, bool), "true or false")),
        **dict.fromkeys(("checkpoint_path", "log_path"),
                        (lambda v: v is None or isinstance(v, str), "a string or null")),
        "dims": ModelDims,
    }

    def check(self):
        if self.batch_size < 2 and not self.disable_mi:
            raise ConfigError("batch_size must be >= 2 unless the MI loss is disabled")


def _arena_zeros(size: int) -> np.ndarray:
    """A zeroed float64 vector whose first element sits on a 64-byte boundary."""
    raw = np.zeros(size + 7)
    skip = (-raw.ctypes.data % 64) // 8
    return raw[skip:skip + size]


class ParamRegistry:
    """Ordered, uniquely named map of every trainable tensor, laid out once
    into an arena of flat vectors.

    `layout()` (called by `Model.__init__`, or by the first `Adam` or
    `clip_gradients` on a bare registry) copies every parameter into one
    flat `data` vector and rebinds its `data` to its block there, and sets
    its `grad_view` to the same block of a flat `grad` vector.  Blocks are
    padded to a multiple of 8 values, so each starts 64-byte aligned; the
    padding stays zero.  Parameters are registered before the layout.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._blocks: list[tuple[int, tuple[int, ...]]] = []    # (offset, shape) per parameter
        self.data: np.ndarray | None = None
        self.grad: np.ndarray | None = None

    def register(self, prefix: str, named: dict[str, Tensor]):
        if self.data is not None:
            raise ad.ContractError("cannot register parameters after the arena is laid out")
        for name, tensor in named.items():
            full = f"{prefix}.{name}"
            if full in self._params:
                raise ad.ContractError(f"duplicate parameter name {full!r}")
            self._params[full] = tensor

    def items(self):
        return self._params.items()

    def names(self) -> list[str]:
        return list(self._params)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def zero_grad(self):
        for p in self._params.values():
            p.grad = None

    def layout(self, fill: bool = True):
        """Lay the parameters out into the arena; later calls do nothing.
        `fill` false leaves the blocks zero, for a caller that overwrites
        every value."""
        if self.data is not None:
            return
        offset = 0
        for name, p in self._params.items():
            if p.grad_view is not None:
                raise ad.ContractError(f"parameter {name!r} already lives in another registry")
            self._blocks.append((offset, p.shape))
            offset += -(-p.data.size // 8) * 8
        self.data, self.grad = _arena_zeros(offset), _arena_zeros(offset)
        for p, data, grad in zip(self._params.values(), self.views(self.data),
                                 self.views(self.grad)):
            if fill:
                data[...] = p.data
            p.data, p.grad_view = data, grad

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each parameter's block of an arena-sized vector, in registry order."""
        return [flat[offset:offset + math.prod(shape)].reshape(shape)
                for offset, shape in self._blocks]

    def gradients(self) -> np.ndarray:
        """The flat gradient vector.  Each parameter's gradient must be its
        arena block, where backward writes it: a missing one, or an array a
        caller assigned directly, is a ContractError naming the parameter."""
        self.layout()
        for name, p in self._params.items():
            if p.grad is not p.grad_view:
                raise ad.ContractError(f"missing gradient for parameter {name!r}")
        return self.grad


class Model:
    """Full classifier with the active information maximization parts.

    Components behind disabled ablation flags are not constructed, so the
    registry holds exactly the parameters the objective trains.
    """

    def __init__(self, tax: Taxonomy, vocab: Vocabulary, config: TrainConfig, init: bool = True):
        """`init` false draws no initial values: the randomly initialised
        parameters are left unset, for a caller that overwrites every value
        (`load_model`)."""
        dims = config.dims
        self.tax = tax
        self.vocab = vocab
        self.config = config
        self.num_labels = tax.num_labels
        # which checkpoint the values came from, when load_model built this model
        self.header_sha256: str | None = None

        def rng(part: str) -> np.random.Generator | None:
            return derived_rng(config.seed, "init", part) if init else None

        self.text_encoder = TextEncoder(len(vocab), dims.embed_dim, dims.feature_dim,
                                        dims.text_kernels, rng("text"))
        self.structure_encoder = StructureEncoder(normalized_adjacency(tax), tax.nonroot_ids(),
                                                  dims.label_dim, rng("structure"))
        self.head = PredictorHead(self.num_labels, dims.feature_dim, rng("head"),
                                  threshold=config.threshold)
        self.mi_disc = None if config.disable_mi else MIDiscriminator(
            dims.feature_dim, dims.label_dim, dims.mi_hidden, rng("mi"), kernel_size=dims.mi_kernel)
        self.prior_disc = None if config.disable_label_prior else PriorDiscriminator(
            dims.label_dim, dims.prior_hidden, rng("prior"))
        self.gate = (None if config.disable_mi or config.disable_label_prior
                     else LossWeightEstimator(dims.feature_dim, dims.label_dim))

        self.registry = ParamRegistry()
        for prefix, part in (("text", self.text_encoder), ("structure", self.structure_encoder),
                             ("head", self.head), ("mi", self.mi_disc),
                             ("prior", self.prior_disc), ("gate", self.gate)):
            if part is not None:
                self.registry.register(prefix, part.named_params())
        self.registry.layout(fill=init)

    def forward(self, batch: Batch, lr: LabelRepresentations | None = None,
                responses: np.ndarray | None = None
                ) -> tuple[TextFeatures, LabelRepresentations, Predictions]:
        """The pass shared by training and inference.

        The label representations and the vocabulary's token responses
        depend on no document, so inference over many batches computes them
        once (`lr`, `responses`).  None computes the label representations
        here and projects only the batch's own tokens.
        """
        tf = self.text_encoder(batch, responses)
        if lr is None:
            lr = self.structure_encoder()
        return tf, lr, self.head(multi_label_attention(tf, lr))

    def losses(self, batch: Batch, prior_seed: int) -> tuple[Tensor, LossBundle]:
        tf, lr, preds = self.forward(batch)
        l_c = bce_loss(preds.logits, batch.targets)
        l_mi = mi_loss(tf, lr, batch.targets, self.mi_disc) if self.mi_disc else None
        l_pr = None
        if self.prior_disc is not None:
            prior = sample_prior(self.num_labels, self.config.dims.label_dim, prior_seed)
            l_pr = prior_matching_loss(lr, prior, self.prior_disc)
        f_weight = self.gate(tf.pooled, lr) if self.gate is not None else None
        return total_loss(l_c, l_mi, l_pr, f_weight)

    def predict(self, batch: Batch) -> Predictions:
        """`iter_predictions` over the one batch."""
        return next(iter_predictions([batch], self))[1]


def param_shapes(config: TrainConfig, vocab_size: int, tax: Taxonomy) -> dict[str, tuple[int, ...]]:
    """The registry's parameter names and shapes for `Model(tax, vocab, config)`,
    derived without allocating any of them."""
    d = config.dims
    channels = d.feature_dim // len(d.text_kernels)
    shapes = {"text.embedding": (vocab_size, d.embed_dim)}
    for k in d.text_kernels:
        shapes[f"text.conv{k}.kernel"] = (k, d.embed_dim, channels)
        shapes[f"text.conv{k}.bias"] = (channels,)
    y, t, n = d.label_dim, d.feature_dim, tax.num_labels
    shapes.update({"structure.node_embedding": (tax.num_nodes, y),
                   "structure.gcn0.weight": (y, y), "structure.gcn0.bias": (y,),
                   "structure.gcn1.weight": (y, y), "structure.gcn1.bias": (y,),
                   "head.weight": (n * t, n), "head.bias": (n,)})

    def mlp(prefix, widths):
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]), start=1):
            shapes[f"{prefix}.lin{i}.weight"] = (fan_in, fan_out)
            shapes[f"{prefix}.lin{i}.bias"] = (fan_out,)

    if not config.disable_mi:
        k, h = d.mi_kernel, d.mi_hidden
        shapes.update({"mi.conv1.kernel": (k, t, t), "mi.conv1.bias": (t,),
                       "mi.conv2.kernel": (k, t, h), "mi.conv2.bias": (h,)})
        mlp("mi", (h + y, h, h, 1))
    if not config.disable_label_prior:
        mlp("prior", (y, *d.prior_hidden, 1))
    if not (config.disable_mi or config.disable_label_prior):
        shapes.update({"gate.w_text": (t, 1), "gate.w_label": (y, 1), "gate.bias": ()})
    return shapes


ADAM_CHUNK = 32768     # values per chunk: the working set of one chunk stays in cache
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction and one step count `t` for all parameters.

    The moments are two flat vectors laid out like the registry's arena, so
    `registry.views(m)` holds each parameter's block.  `step` updates the
    arena in place, a chunk at a time, through two halves of a scratch vector.
    """

    def __init__(self, registry: ParamRegistry, lr: float):
        registry.layout()
        self.registry = registry
        self.lr = lr
        self.t = 0
        self.m = _arena_zeros(registry.data.size)
        self.v = _arena_zeros(registry.data.size)
        self._scratch = np.empty(2 * min(registry.data.size, ADAM_CHUNK))
        self._chunks = self._chunk_views()

    def step(self):
        self.registry.gradients()
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        # Kingma & Ba's efficient form: with c1 = 1 - b1^t and c2 = 1 - b2^t,
        #   lr * (m / c1) / (sqrt(v / c2) + eps) = step * m / (sqrt(v) + eps_hat)
        # for step = lr * sqrt(c2) / c1 and eps_hat = eps * sqrt(c2)
        root_c2 = math.sqrt(1.0 - b2 ** self.t)
        step, eps_hat = self.lr * root_c2 / (1.0 - b1 ** self.t), ADAM_EPS * root_c2
        for data, g, m, v, a, b in self._chunks:
            # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, g, out=a)
            np.multiply(a, 1.0 - b2, out=a)
            np.add(v, a, out=v)
            # data -= step * (m / (sqrt(v) + eps_hat))
            np.sqrt(v, out=a)
            np.add(a, eps_hat, out=a)
            np.divide(m, a, out=b)
            np.multiply(b, step, out=b)
            np.subtract(data, b, out=data)
        self.registry.zero_grad()
        # Once a step allocates nothing long-lived, glibc trims the top of the
        # heap when the step's activations are freed, and the next step faults
        # those pages back in (6.5-7k minor faults per default-dims step, with
        # backward freeing the graph as it goes; 5.6-6.3k with this block).
        # The scratch vector keeps the heap top in use: a fresh one replaces
        # it when it lies higher; otherwise it is freed at once.  Keeping the
        # first step's scratch pins nothing when a caller holds that step's
        # graph, and a fresh one every step pins every other step only, each
        # landing in the hole its predecessor's predecessor left.
        fresh = np.empty(self._scratch.size)
        if fresh.ctypes.data > self._scratch.ctypes.data:
            self._scratch = fresh
            self._chunks = self._chunk_views()

    def _chunk_views(self) -> list[tuple[np.ndarray, ...]]:
        """(data, grad, m, v, a, b) views of each chunk of the arena; a and b
        are the two halves of the scratch vector."""
        half = self._scratch.size // 2
        flats = (self.registry.data, self.registry.grad, self.m, self.v)
        chunks = []
        for lo in range(0, self.registry.data.size, ADAM_CHUNK):
            views = tuple(flat[lo:lo + ADAM_CHUNK] for flat in flats)
            n = views[0].size
            chunks.append(views + (self._scratch[:n], self._scratch[half:half + n]))
        return chunks


def clip_gradients(registry: ParamRegistry, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Raises NumericError, before any gradient is scaled, when the sum of
    squares is not finite: some gradient holds a NaN or an infinity, or
    the squares of finite values overflow.
    """
    grad = registry.gradients()
    with np.errstate(over="ignore"):      # an overflow is reported below, as NumericError
        total = float(grad @ grad)
    if not math.isfinite(total):
        for name, p in registry.items():
            if not np.isfinite(p.grad).all():
                raise NumericError(f"gradient of parameter {name!r} is not finite")
        raise NumericError(f"the gradients' sum of squares overflowed to {total} "
                           f"although every gradient is finite")
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        grad *= max_norm / norm
    return norm


def train_step(batch: Batch, model: Model, optimizer: Adam, global_step: int) -> LossBundle:
    """One forward/backward/update cycle; returns the loss scalars."""
    prior_seed = derive_seed(model.config.seed, "prior", global_step)
    total, bundle = model.losses(batch, prior_seed)
    model.registry.zero_grad()
    ad.backward(total)
    clip_gradients(model.registry, model.config.clip_norm)
    optimizer.step()
    return bundle


def iter_predictions(batches: Iterable[Batch], model: Model) -> Iterator[tuple[Batch, Predictions]]:
    """(batch, predictions) for each batch, with no graph recorded.  The label
    representations and the vocabulary's token responses are computed once:
    read from one table over every token, a document's predictions do not
    depend on the other documents of its batch."""
    with ad.no_grad():
        lr = model.structure_encoder()
        responses = model.text_encoder.responses()
    for batch in batches:
        with ad.no_grad():
            preds = model.forward(batch, lr, responses)[2]
        yield batch, preds


def evaluate(batches: Iterable[Batch], model: Model) -> dict:
    """Pooled micro/macro F1 plus mean classification loss over one pass of
    `batches`, which may be lazy: each batch adds to per-label counts and is
    dropped.  Mutates nothing."""
    counts = np.zeros((3, model.num_labels))       # TP, FP and FN per label
    loss_sum = 0.0
    cell_count = 0
    for batch, preds in iter_predictions(batches, model):
        counts += confusion_counts(preds.decisions, batch.targets)
        loss_sum += bce_loss(preds.logits, batch.targets).item() * batch.targets.size
        cell_count += batch.targets.size
    if not cell_count:
        raise DataError("evaluate called with an empty dataset")
    micro, macro = f1_from_counts(*counts)
    return {"micro_f1": micro, "macro_f1": macro, "L_c": loss_sum / cell_count}


@dataclass
class TrainResult:
    model: Model
    optimizer: Adam
    records: list[dict]
    global_step: int
    epochs_completed: int


def run_training(train_docs: list[Document], val_docs: list[Document], tax: Taxonomy,
                 vocab: Vocabulary, config: TrainConfig,
                 resume_from: str | None = None,
                 stop_when=None, on_step=None) -> TrainResult:
    """Train for config.epochs, logging one JSON record per epoch.

    `stop_when(record)` may end training early (used by calibration runs);
    `on_step(bundle)` observes every step's loss scalars; `resume_from`
    restores parameters, optimizer state, and progress from a checkpoint
    so a split run reproduces an uninterrupted one.
    """
    for split, docs in (("training", train_docs), ("validation", val_docs)):
        if any(not doc.labels for doc in docs):
            raise DataError(f"{split} document with an empty label set")
    model = Model(tax, vocab, config)
    optimizer = Adam(model.registry, config.learning_rate)
    start_epoch = 0
    global_step = 0
    if resume_from is not None:
        start_epoch, global_step = restore_checkpoint(resume_from, model, optimizer)

    mi_enabled = not config.disable_mi
    least = config.batch_size if mi_enabled else 1      # MI trains on full batches only
    if config.epochs > start_epoch and len(train_docs) < least:
        raise DataError(f"one training batch needs {least} documents, got {len(train_docs)}")
    val_batches = make_batches(val_docs, config.batch_size, config.max_len, tax) if val_docs else []
    records: list[dict] = []
    epochs_completed = start_epoch
    log_fh = open(config.log_path, "a", encoding="utf-8") if config.log_path else None
    try:
        for epoch in range(start_epoch, config.epochs):
            tick = time.perf_counter()
            batches = make_batches(train_docs, config.batch_size, config.max_len, tax,
                                   shuffle_seed=derive_seed(config.seed, "shuffle", epoch),
                                   drop_partial=mi_enabled)
            sums = {"L": 0.0, "L_c": 0.0, "L_MI": 0.0, "L_pr": 0.0, "F": 0.0}
            for batch in batches:
                bundle = train_step(batch, model, optimizer, global_step)
                global_step += 1
                if on_step is not None:
                    on_step(bundle)
                for key, value in bundle.to_dict().items():
                    sums[key] += value
            record = {"epoch": epoch}
            record.update({k: v / len(batches) for k, v in sums.items()})
            if val_batches:
                val = evaluate(val_batches, model)
                record.update({"micro_f1": val["micro_f1"], "macro_f1": val["macro_f1"],
                               "val_L_c": val["L_c"]})
            else:
                record.update({"micro_f1": None, "macro_f1": None})
            record["wall_time_s"] = round(time.perf_counter() - tick, 3)
            records.append(record)
            line = json.dumps(record, sort_keys=True)
            if log_fh:
                log_fh.write(line + "\n")
                log_fh.flush()
            log.debug("%s", line)
            epochs_completed = epoch + 1
            if stop_when is not None and stop_when(record):
                break
    finally:
        if log_fh:
            log_fh.close()

    if config.checkpoint_path:
        save_checkpoint(config.checkpoint_path, model, optimizer,
                        epochs_completed=epochs_completed, global_step=global_step)
    return TrainResult(model=model, optimizer=optimizer, records=records,
                       global_step=global_step, epochs_completed=epochs_completed)


# -- persistence ----------------------------------------------------------------


def _body_sections(registry: ParamRegistry, optimizer: Adam | None):
    """(body_sha256 part, kind, arena vector) per body section in body order:
    the values, then Adam's m, then Adam's v; without an optimizer the values."""
    yield "values", "values", registry.data
    if optimizer is not None:
        yield "moments", "Adam's m", optimizer.m
        yield "moments", "Adam's v", optimizer.v


def save_checkpoint(path, model: Model, optimizer: Adam,
                    epochs_completed: int = 0, global_step: int = 0):
    """Self-describing versioned binary: JSON header + little-endian doubles.

    The header stores the version, the resolved config with null output
    paths (so the bytes do not depend on where they are written), the
    progress, vocabulary, the text the taxonomy was parsed from (parsing it
    again gives every label its id), and `body_sha256`: one SHA-256 over
    the values section and one over the two moment sections.  The body
    holds three unpadded sections, each one block per parameter in
    registry order: the values, then Adam's m, then Adam's v; the reader
    derives that layout from the config.  `global_step` must be
    `optimizer.t`, since the reader restores Adam's step count from it.
    """
    if global_step != optimizer.t:
        raise ad.ContractError(f"global_step {global_step} is not the optimizer's step count "
                               f"{optimizer.t}, which a checkpoint restores from it")
    digests = {"values": hashlib.sha256(), "moments": hashlib.sha256()}
    blocks = []
    for part, _, flat in _body_sections(model.registry, optimizer):
        for block in model.registry.views(flat):
            # C-ordered little-endian float64 already, so neither hashing nor writing copies it
            blocks.append(np.ascontiguousarray(block, dtype="<f8"))
            digests[part].update(blocks[-1])
    header = {
        "version": CHECKPOINT_VERSION,
        "config": {**model.config.to_dict(), "checkpoint_path": None, "log_path": None},
        "progress": {"epochs_completed": epochs_completed, "global_step": global_step},
        "vocab": model.vocab.to_json(),
        "taxonomy": model.tax.text,
        "body_sha256": {part: digest.hexdigest() for part, digest in digests.items()},
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:        # written whole beside it, then swapped in: a failed write keeps the old one
        with open(temp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for block in blocks:
                fh.write(block)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


@contextlib.contextmanager
def _open_checkpoint(path):
    """The checkpoint file open for reading; an OSError is a CheckpointError."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from None


def _read_header(fh, path) -> tuple[dict, tuple, dict[str, tuple[int, ...]], str]:
    """Validate a checkpoint's header and the body's exact length, leaving `fh`
    at the body.  In order: the magic, the header length, the JSON, the
    version, `progress` and `body_sha256` ("corrupt header"); the config,
    taxonomy and vocabulary ("malformed header"), whose `param_shapes` is the
    body's layout; then the body's exact length against that layout, so a
    config implying more than the file holds allocates nothing.  Returns
    the header, its (taxonomy, vocabulary, config), the layout and
    `header_sha256`, the SHA-256 of every byte before the body: since the
    header holds the body's digests, it names the verified file."""
    size = os.fstat(fh.fileno()).st_size
    start = fh.read(16)
    if start[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic or version)")
    body_start = 16 + int.from_bytes(start[8:16], "little")
    if size < body_start:
        raise CheckpointError(f"{path} is truncated inside the header")
    header_bytes = fh.read(body_start - 16)
    if len(header_bytes) != body_start - 16:
        raise CheckpointError(f"{path} is truncated inside the header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
        version = header.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path} is checkpoint format version {version!r}; this "
                                  f"reader reads only version {CHECKPOINT_VERSION}, whose "
                                  "layout follows from its config")
        progress = header["progress"]
        if not (isinstance(progress, dict) and _is_count(progress.get("epochs_completed"))
                and _is_count(progress.get("global_step"))):
            raise ValueError("progress must hold two non-negative integer counts")
        digests = header["body_sha256"]
        if not (isinstance(digests, dict) and set(digests) == {"values", "moments"} and all(
                isinstance(d, str) and _SHA256_HEX.fullmatch(d) for d in digests.values())):
            raise ValueError("body_sha256 must map values and moments to SHA-256 hex digests")
    except (ValueError, AttributeError, KeyError, TypeError, RecursionError) as err:
        raise CheckpointError(f"{path} has a corrupt header: {err!r}") from None
    try:
        config = TrainConfig.from_dict(header["config"])
        tax, vocab = parse_taxonomy(header["taxonomy"]), Vocabulary.from_json(header["vocab"])
        layout = param_shapes(config, len(vocab), tax)
    except (ValueError, AttributeError, KeyError, TypeError) as err:
        raise CheckpointError(f"{path} has a malformed header: {err!r}") from None
    expected = 3 * 8 * sum(map(math.prod, layout.values()))     # the values, m and v sections
    actual = size - body_start
    if actual < expected:
        raise CheckpointError(f"{path} is truncated or has a corrupt header: the header "
                              f"describes {expected} body bytes, the file holds {actual}")
    if actual > expected:
        raise CheckpointError(f"{path} has {actual - expected} trailing bytes after its last block")
    return header, (tax, vocab, config), layout, hashlib.sha256(start + header_bytes).hexdigest()


def _read_body(fh, path, header: dict, registry: ParamRegistry, optimizer: Adam | None):
    """Stream the body, whose layout is the registry's, section by section into
    the arena and the optimizer's moments: each block is read with `readinto`
    into its arena view, hashed and refused if it holds a NaN or an infinity.
    Without an optimizer only the values section, a prefix of the body, is
    read, and the moments' digest is unchecked."""
    digests = {}
    for part, kind, vector in _body_sections(registry, optimizer):
        digest = digests.setdefault(part, hashlib.sha256())
        for name, block in zip(registry.names(), registry.views(vector)):
            flat = block.reshape(-1)        # the contiguous arena block itself
            if fh.readinto(flat) != flat.nbytes:
                raise CheckpointError(f"{path} is truncated: the body ended inside "
                                      f"parameter {name!r}")
            digest.update(flat)
            if sys.byteorder != "little":     # the body is little-endian
                flat.byteswap(inplace=True)
            if not np.isfinite(flat).all():
                raise CheckpointError(f"{path} holds a non-finite number in the {kind} "
                                      f"of parameter {name!r}")
    for part, digest in digests.items():
        if digest.hexdigest() != header["body_sha256"][part]:
            raise CheckpointError(f"{path} is corrupt: the digest of its {part} blocks does "
                                  "not match the header's body_sha256")


def restore_checkpoint(path, model: Model, optimizer: Adam) -> tuple[int, int]:
    """Read parameter values and optimizer state into an existing model's arena.

    Returns (epochs_completed, global_step), and sets `optimizer.t` to the
    latter.  A parameter whose name or shape differs between the header's
    layout and the model raises CheckpointError naming it before any value
    moves, and so does a taxonomy or vocabulary unlike the model's.  A body
    refused part-way leaves the model and the optimizer part-written: the
    caller discards both, as `run_training` does when this raises."""
    with _open_checkpoint(path) as fh:
        header, (tax, vocab, _), layout, _ = _read_header(fh, path)
        expected = {name: p.shape for name, p in model.registry.items()}
        for name in {**expected, **layout}:
            if layout.get(name) != expected.get(name):
                raise CheckpointError(
                    f"{path} does not fit this model, which expects parameter {name!r} of shape "
                    f"{expected.get(name)}, its body holds {layout.get(name)}")
        # equal shapes can hold rows of other tokens or nodes of other labels
        for what, theirs, ours in (("taxonomy", tax, model.tax), ("vocabulary", vocab, model.vocab)):
            if theirs != ours:
                raise CheckpointError(f"{path} does not fit this model: its {what} differs")
        _read_body(fh, path, header, model.registry, optimizer)
    optimizer.t = header["progress"]["global_step"]
    return header["progress"]["epochs_completed"], header["progress"]["global_step"]


def load_model(path) -> Model:
    """Rebuild a model purely from a checkpoint (config, vocab, taxonomy), read
    once, without its Adam moments, straight into the arena of a model that
    draws no initial values.  Its `header_sha256` names the checkpoint."""
    with _open_checkpoint(path) as fh:
        header, (tax, vocab, config), _, header_sha256 = _read_header(fh, path)
        model = Model(tax, vocab, config, init=False)
        _read_body(fh, path, header, model.registry, None)
    model.header_sha256 = header_sha256
    return model
