"""Span tracing for the traced benchmark run.

Wrappers installed around the package's public functions record one span
(name, start, end, parent) per call.  Each wrapper replaces the name its
caller resolves at call time (`trainer.mi_loss`, not only
`infomax.mi_loss`), so no file under `src/` changes and uninstalling
restores the original objects.  Spans stay in memory until the run ends.

Self time is a span's duration minus the time its child spans cover.  A
"step" is one `train_step` call.  Layer metrics are totals over the
spans inside the steps divided by the number of steps.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from pathlib import Path

import numpy as np

# autodiff ops the model calls; each reports calls, forward self time and
# (replayed in isolation) backward time.
OPS = (
    "add", "neg", "mul", "matmul", "bmm", "transpose", "reshape", "concat",
    "embedding_lookup", "relu", "sigmoid", "softplus", "logsigmoid",
    "masked_softmax", "mean", "apply_mask", "masked_mean", "conv1d", "grad_reverse",
)
# ops whose operation count and bytes moved are computed from shapes
GEMM_OPS = ("conv1d", "matmul", "bmm")
# the span of one step
STEP = "trainer.step"
# timed backward runs per replayed op signature; the median is kept
REPLAY_REPEATS = 3


class Tracer:
    """In-memory span recorder plus the per-step op signatures for replay."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self._step_depth = 0
        self.signatures: dict[tuple, list] = {}   # signature -> [op, fn, args, kwargs, calls]
        self.missing: list[str] = []              # call sites not found in the package

    def _open(self, name: str):
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        step = name == STEP
        self._step_depth += step
        return span, step

    def _close(self, opened):
        span, step = opened
        span[2] = time.perf_counter()
        self._stack.pop()
        self._step_depth -= step

    def wrap(self, name: str, fn, count=None, op: str | None = None):
        """Return `fn` recording a span per call.

        `count(args, kwargs, result)` returns exact counts ({name: number})
        kept on the span; `op` marks an autodiff op whose arguments are kept
        for the kernel replay when the call happens inside a step.
        """

        def traced(*args, **kwargs):
            opened = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(opened)
            if count is not None:
                opened[0][4] = count(args, kwargs, result)
            if op is not None and self._step_depth:
                self._remember(op, fn, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code; yields the span."""
        opened = self._open(name)
        try:
            yield opened[0]
        finally:
            self._close(opened)

    def _remember(self, op, fn, args, kwargs):
        key = (op,) + tuple(_describe(a) for a in args) + tuple(
            (k, _describe(v)) for k, v in sorted(kwargs.items()))
        entry = self.signatures.get(key)
        if entry is None:
            self.signatures[key] = [op, fn, args, kwargs, 1]
        else:
            entry[4] += 1

    def write(self, path: Path):
        """Write every span as one JSON array per line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "counts"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _describe(value):
    """Hashable description of an op argument: shapes, not values."""
    shape = getattr(value, "shape", None)
    if shape is not None:
        return ("array", tuple(shape), bool(getattr(value, "requires_grad", False)))
    if isinstance(value, (list, tuple)):
        return tuple(_describe(v) for v in value)
    return repr(value)


def _pairs(args, kwargs, result):
    return {"pairs": int(args[1].shape[0])}      # args[0] is the discriminator


def _tape_nodes(args, kwargs, result):
    return {"nodes": len(result)}


def _batches_made(args, kwargs, result):
    positions = sum(b.mask.size for b in result)
    valid = sum(float(b.mask.sum()) for b in result)
    return {"batches": len(result), "positions": positions, "padded": positions - valid}


def _checkpoint_bytes(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


def patch_table(pkg) -> list[tuple]:
    """(owner, attribute, span name, count, op) for every traced call site."""
    ad, dataio, taxonomy, encoders = pkg.autodiff, pkg.dataio, pkg.taxonomy, pkg.encoders
    infomax, predictor, trainer, cli = pkg.infomax, pkg.predictor, pkg.trainer, pkg.cli
    table = [
        (dataio, "load_corpus", "dataio.load_corpus", None, None),
        (dataio, "build_vocab_from_file", "dataio.build_vocab", None, None),
        (cli, "build_vocab_from_file", "dataio.build_vocab", None, None),
        (dataio, "make_batches", "dataio.make_batches", _batches_made, None),
        (trainer, "make_batches", "dataio.make_batches", _batches_made, None),
        (cli, "make_batches", "dataio.make_batches", _batches_made, None),
        (cli, "load_corpus", "dataio.load_corpus", None, None),
        (taxonomy, "load_taxonomy", "taxonomy.load", None, None),
        (cli, "load_taxonomy", "taxonomy.load", None, None),
        (trainer, "parse_taxonomy", "taxonomy.load", None, None),
        (trainer, "normalized_adjacency", "taxonomy.adjacency", None, None),
        (encoders.TextEncoder, "__call__", "encoders.text", None, None),
        (encoders.StructureEncoder, "__call__", "encoders.structure", None, None),
        (trainer, "multi_label_attention", "encoders.attention", None, None),
        (predictor.PredictorHead, "__call__", "predictor.head", None, None),
        (trainer, "bce_loss", "predictor.bce", None, None),
        (trainer, "micro_f1", "predictor.f1", None, None),
        (trainer, "macro_f1", "predictor.f1", None, None),
        (trainer, "mi_loss", "infomax.mi_loss", None, None),
        (infomax.MIDiscriminator, "pool_text", "infomax.mi_pool_text", None, None),
        (infomax.MIDiscriminator, "score_pairs", "infomax.mi_score_pairs", _pairs, None),
        (trainer, "prior_matching_loss", "infomax.prior_loss", None, None),
        (infomax.LossWeightEstimator, "__call__", "infomax.gate", None, None),
        (trainer, "total_loss", "infomax.total_loss", None, None),
        (ad, "backward", "autodiff.backward", None, None),
        (ad, "topo_order", "autodiff.topo_order", _tape_nodes, None),
        (trainer, "clip_gradients", "trainer.clip", None, None),
        (trainer.Adam, "step", "trainer.adam", None, None),
        (trainer, "train_step", "trainer.step", None, None),
        (trainer, "evaluate", "trainer.evaluate", None, None),
        (cli, "evaluate", "trainer.evaluate", None, None),
        (trainer, "save_checkpoint", "trainer.save_checkpoint", _checkpoint_bytes, None),
        (trainer, "load_model", "trainer.load_model", None, None),
        (cli, "load_model", "trainer.load_model", None, None),
        (trainer.Model, "predict", "trainer.model_predict", None, None),
    ]
    for op in OPS:
        table.append((ad, op, f"autodiff.{op}", None, op))
    return table


@contextlib.contextmanager
def installed(tracer: Tracer, pkg):
    """Install every wrapper for the block; always restore the originals.

    A call site the package no longer has is skipped and listed in
    `tracer.missing`; its metrics read 0.
    """
    saved = []
    try:
        for owner, attr, name, count, op in patch_table(pkg):
            original = vars(owner).get(attr)
            if original is None:
                tracer.missing.append(f"{owner.__name__}.{attr}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count=count, op=op))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- analysis -------------------------------------------------------------------


class Totals:
    """Per span name: calls, inclusive ms, self ms and summed counts."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.ms: dict[str, float] = {}
        self.self_ms: dict[str, float] = {}
        self.counts: dict[str, dict[str, float]] = {}

    def add(self, name, dur, own, count):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.ms[name] = self.ms.get(name, 0.0) + dur
        self.self_ms[name] = self.self_ms.get(name, 0.0) + own
        if count:
            bucket = self.counts.setdefault(name, {})
            for key, value in count.items():
                bucket[key] = bucket.get(key, 0) + value

    def mean_ms(self, name) -> float:
        calls = self.calls.get(name, 0)
        return self.ms[name] / calls if calls else 0.0

    def count(self, name, key) -> float:
        return self.counts.get(name, {}).get(key, 0)


def analyse(tracer: Tracer) -> dict:
    """Aggregate the spans of a traced run.

    `all`: every span; `in_step`: spans inside a step (the step's own
    span included); `in_eval`: spans inside an `evaluate` call; `steps`:
    the number of steps; `step_ms`: mean step duration; `step_self`: mean
    self ms per step by span name, which sums to `step_ms`.
    """
    spans = tracer.spans
    n = len(spans)
    child_ms = [0.0] * n
    in_step = [False] * n
    in_eval = [False] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
            in_step[i] = in_step[parent]
            in_eval[i] = in_eval[parent] or spans[parent][0] == "trainer.evaluate"
        in_step[i] = in_step[i] or name == STEP

    everything, stepped, evals = Totals(), Totals(), Totals()
    step_self: dict[str, float] = {}
    steps = 0
    step_total = 0.0
    for i, (name, start, end, parent, count) in enumerate(spans):
        dur = (end - start) * 1e3
        own = dur - child_ms[i]
        everything.add(name, dur, own, count)
        if in_eval[i]:
            evals.add(name, dur, own, count)
        if not in_step[i]:
            continue
        stepped.add(name, dur, own, count)
        step_self[name] = step_self.get(name, 0.0) + own
        if name == STEP:
            steps += 1
            step_total += dur
    return {
        "all": everything,
        "in_step": stepped,
        "in_eval": evals,
        "steps": steps,
        "step_ms": step_total / steps if steps else 0.0,
        "step_self": {k: v / steps for k, v in sorted(step_self.items())} if steps else {},
    }


# -- kernel accounting ------------------------------------------------------------


def _gemm_cost(op: str, args, out_shape, backward: bool) -> tuple[float, float]:
    """(floating-point operations, bytes moved) computed from shapes.

    Bytes count each operand read once and each result written once, in
    float64; the backward adds one GEMM per input that takes a gradient.
    """
    a, b = args[0], args[1]
    if op == "conv1d":
        x = a.shape if len(a.shape) == 3 else (1,) + tuple(a.shape)
        k, c_in, c_out = b.shape
        mac = x[0] * x[1] * c_in * c_out * k
    elif op == "matmul":
        mac = a.shape[0] * a.shape[1] * b.shape[1]
    else:
        mac = a.shape[0] * a.shape[1] * a.shape[2] * b.shape[2]
    sizes = [int(np.prod(a.shape)), int(np.prod(b.shape)), int(np.prod(out_shape))]
    flop = 2.0 * mac
    moved = 8.0 * sum(sizes)
    if backward:
        for operand, size in ((a, sizes[0]), (b, sizes[1])):
            if getattr(operand, "requires_grad", False):
                flop += 2.0 * mac
                other = sizes[1] if operand is a else sizes[0]
                moved += 8.0 * (sizes[2] + other + size)
    return flop, moved


def replay_ops(tracer: Tracer, steps: int) -> dict:
    """Re-run each op signature seen inside the steps in isolation.

    Returns per-op, per-step {"bwd_ms", "flop", "bytes"}.  The backward
    time is the median over REPLAY_REPEATS runs of the op's recorded
    backward closure on an all-ones output gradient, at the traced shapes.
    """
    result = {op: {"bwd_ms": 0.0, "flop": 0.0, "bytes": 0.0} for op in OPS}
    if not steps:
        return result
    for op, fn, args, kwargs, calls in tracer.signatures.values():
        per_step = calls / steps
        tensors = [a for a in _flatten(args) if hasattr(a, "requires_grad")]
        timings = []
        out = None
        for _ in range(REPLAY_REPEATS):
            for t in tensors:
                t.grad = None
            out = fn(*args, **kwargs)
            closure = getattr(out, "_backward", None)
            if closure is None:
                break
            grad = np.ones_like(out.data)
            start = time.perf_counter()
            closure(grad)
            timings.append((time.perf_counter() - start) * 1e3)
        for t in tensors:
            t.grad = None
        entry = result[op]
        if timings:
            entry["bwd_ms"] += per_step * float(np.median(timings))
        if op in GEMM_OPS:
            flop, moved = _gemm_cost(op, args, out.shape, out.requires_grad)
            entry["flop"] += per_step * flop
            entry["bytes"] += per_step * moved
    return result


def _flatten(args):
    for a in args:
        if isinstance(a, (list, tuple)):
            yield from _flatten(a)
        else:
            yield a
