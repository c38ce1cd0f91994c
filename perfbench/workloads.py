"""The benchmark's workloads: inputs made from a seed, set-up, the measured
loop and the correctness checks.

The package is driven only through its public API: `generate_synthetic`,
`load_taxonomy`, `build_vocab_from_file`, `load_corpus`, `make_batches`,
`Model`, `Adam`, `run_training` with `on_step`, `evaluate`,
`save_checkpoint`, `load_model`, `Model.predict` and
`cli.main(["predict", ...])`.  Every call goes through the module
attribute, so the traced run's wrappers see it.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import htcinfomax
from htcinfomax import autodiff, cli, dataio, taxonomy, trainer

import tracing

# p90 is reported only when at least ten samples lie beyond it.
MIN_STEP_SAMPLES = 100
# Once the run has its minimum number of `run_training` calls, measuring
# stops past this many seconds even if the step-sample target is not met,
# so that a run on a much slower machine still ends within its time
# limit; `samples` shows the shortfall.
MAX_MEASURE_S = 60.0
# Before each measured call, set-up is repeated at least SETUP_REPEATS
# times and for SETUP_MIN_S seconds; the median over the run is reported.
# Spreading the samples over the run matters: on a shared machine the
# set-up time moves by 30% between blocks of a few hundred milliseconds.
SETUP_REPEATS = 5
SETUP_MIN_S = 0.2
# After each `run_training` call the trained model is evaluated this many
# times (then its reloaded checkpoint once) and `predict` runs this many
# times: one evaluate or predict of train-full's val split takes under a
# second and varies by up to 20% between calls in one process.
EVAL_REPEATS = 3
PREDICT_REPEATS = 4
# The shared host's speed drifts by up to half between minutes and hours,
# which no run length averages out.  So a fixed single-thread GEMM, the
# reference, is timed next to everything the benchmark times: before and
# after each set-up, evaluate and predict call, and after a training step
# once REF_EVERY_S has passed since the last reference sample.  Every
# time sample is multiplied by REF_NOMINAL_S over the median of the
# reference samples around it (REF_NEIGHBOURS on each side, plus any taken
# inside it), i.e. reported as seconds on a machine where the reference
# takes REF_NOMINAL_S, its median on the baseline machine.  The benchmark's
# own callback work, reference included, is left out of every interval.
REF_SHAPE = (512, 384, 300)     # (m, k, n), the shape class of conv1d's GEMMs
REF_NOMINAL_S = 2.1e-3
REF_EVERY_S = 0.1
REF_NEIGHBOURS = 2
LOSS_IDENTITY_TOL = 1e-12
# Training must at least halve the untrained model's validation loss and
# close this share of the gap between its micro-F1 and 1 (the macro-F1
# share is set per workload); a change that breaks learning fails this
# check.
MICRO_F1_GAP_SHARE = 0.5


@dataclass(frozen=True)
class TrainWorkload:
    """Training through `run_training` with the full objective."""

    name: str
    generator: dict
    dims: dict
    batch_size: int
    max_len: int
    learning_rate: float
    epochs: int
    # Share of the gap from the untrained model's val macro-F1 to 1 that
    # training must close (see `learning_errors`).
    macro_f1_gap_share: float
    train_docs: int | None = None      # leading slice of the train split


WORKLOADS = {
    # The paper configuration and the shape of the acceptance suite's
    # full_run: 39 labels, 24-token documents, default ModelDims (3.07 M
    # parameters).  GEMM-bound: conv1d, the MI discriminator and Adam.
    # 52 steps per run_training call, so two calls give 102 step intervals.
    # Over seeds 1-10 one epoch closed 0.18-0.25 of the macro-F1 gap.
    "train-full": TrainWorkload(
        name="train-full", generator={}, dims={}, batch_size=64, max_len=24,
        learning_rate=1e-3, epochs=1, macro_f1_gap_share=0.1, train_docs=52 * 64),
    # The gate-7 shape: same tape as train-full but ~8 ms steps, so per-op
    # Python overhead dominates; its rare labels carry the macro-F1 that
    # prior matching is claimed to lift.  Over seeds 1-10 training closed
    # 0.62-0.81 of the macro-F1 gap.  With the gradient of logsigmoid (used
    # only by the MI and prior losses) negated it closed at most 0.07 on
    # seeds 1-3, while L_c and micro-F1 passed on two of them; with
    # grad_reverse's backward scaled by 1000, 0.35-0.43 on three of five.
    "train-small-imbalanced": TrainWorkload(
        name="train-small-imbalanced",
        generator={"depth": 2, "branching": 3, "imbalance_exponent": 1.5,
                   "docs_per_label": 60, "doc_len": 12, "val_docs_per_label": 25},
        dims={"embed_dim": 60, "feature_dim": 60, "label_dim": 60,
              "mi_hidden": 48, "prior_hidden": (96, 48)},
        batch_size=16, max_len=12, learning_rate=2e-3, epochs=8, macro_f1_gap_share=0.5),
}


# -- correctness checks ------------------------------------------------------------


class Checks:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, errors: list[str]):
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(errors)}")

    @contextlib.contextmanager
    def operation(self, what: str):
        """Count an exception escaping the block as one failed operation."""
        try:
            yield
        except Exception as err:  # the run keeps going and reports the failure
            self.record(what, [f"{type(err).__name__}: {err}"])


def bundle_errors(bundle) -> list[str]:
    """The step's loss scalars obey L = L_c + F*L_MI + (1-F)*L_pr."""
    values = bundle.to_dict()
    errors = [f"{k} = {v!r} is not finite" for k, v in values.items() if not math.isfinite(v)]
    f = values["F"]
    if not 0.0 < f < 1.0:
        errors.append(f"F = {f!r} outside (0, 1)")
    if not errors:
        gap = abs(values["L"] - (values["L_c"] + f * values["L_MI"] + (1.0 - f) * values["L_pr"]))
        if gap > LOSS_IDENTITY_TOL:
            errors.append(f"|L - (L_c + F*L_MI + (1-F)*L_pr)| = {gap:.3e} > {LOSS_IDENTITY_TOL:g}")
    return errors


def params_sha256(model) -> str:
    digest = hashlib.sha256()
    for name, p in model.registry.items():
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(p.data).tobytes())
    return digest.hexdigest()


def mismatches(expected: dict, got: dict) -> list[str]:
    return [f"{k}: {got.get(k)!r} != {v!r}" for k, v in expected.items() if got.get(k) != v]


def learning_errors(untrained: dict, trained: dict, macro_f1_gap_share: float) -> list[str]:
    errors = []
    if not 2.0 * trained["L_c"] <= untrained["L_c"]:
        errors.append(f"val L_c {trained['L_c']:.4g} is not at most half the untrained "
                      f"{untrained['L_c']:.4g}")
    for key, share in (("micro_f1", MICRO_F1_GAP_SHARE), ("macro_f1", macro_f1_gap_share)):
        floor = untrained[key] + share * (1.0 - untrained[key])
        if not trained[key] >= floor:
            errors.append(f"val {key} {trained[key]:.4g} < {floor:.4g}, {share:g} of the way "
                          f"from the untrained {untrained[key]:.4g} to 1")
    return errors


def model_decisions(model, batches) -> np.ndarray:
    with autodiff.no_grad():
        return np.concatenate([model.predict(b).decisions for b in batches], axis=0)


@dataclass
class PredictRun:
    code: int
    start: float
    end: float
    records: list[dict]


def run_predict(checkpoint, data, out_dir, tracer=None) -> PredictRun:
    capture = io.StringIO()
    argv = ["predict", "--checkpoint", str(checkpoint), "--data", str(data), "--out", str(out_dir)]
    span = tracer.span("cli.predict") if tracer else contextlib.nullcontext()
    with span as record:
        start = time.perf_counter()
        with contextlib.redirect_stdout(capture):
            code = cli.main(argv)
        end = time.perf_counter()
        text = capture.getvalue()
        if record is not None:
            record[4] = {"bytes": len(text.encode("utf-8"))}
    return PredictRun(code, start, end, [json.loads(line) for line in text.splitlines()])


def predict_errors(run: PredictRun, names: list[str], expected: np.ndarray,
                   targets: np.ndarray, evaluation: dict) -> list[str]:
    """`predict` emits, per document, exactly the decisions `evaluate` scores."""
    if run.code != 0:
        return [f"predict exited with {run.code}"]
    if len(run.records) != expected.shape[0]:
        return [f"predict emitted {len(run.records)} records for {expected.shape[0]} documents"]
    column = {name: j for j, name in enumerate(names)}
    got = np.zeros_like(expected)
    for i, record in enumerate(run.records):
        for name in record["labels"]:
            got[i, column[name]] = 1.0
    errors = []
    if not np.array_equal(got, expected):
        rows = int((got != expected).any(axis=1).sum())
        errors.append(f"decisions differ from evaluate's on {rows} documents")
    f1 = {"micro_f1": htcinfomax.micro_f1(got, targets), "macro_f1": htcinfomax.macro_f1(got, targets)}
    errors += mismatches({k: evaluation[k] for k in f1}, f1)
    return errors


# -- measurement ---------------------------------------------------------------------


class Reference:
    """Timed samples of the reference GEMM, by the time each ended."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m, k, n = REF_SHAPE
        self.a = rng.standard_normal((m, k))
        self.b = rng.standard_normal((k, n))
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> float:
        """Time one reference GEMM with its operands in cache; returns when
        it ended.  The untimed first product reloads them, so what the
        program left in the cache does not change the time."""
        self.a @ self.b
        start = time.perf_counter()
        self.a @ self.b
        end = time.perf_counter()
        self.ends.append(end)
        self.seconds.append(end - start)
        return end

    def due(self) -> bool:
        return not self.ends or time.perf_counter() - self.ends[-1] >= REF_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the median reference time around [start, end]."""
        lo = max(bisect.bisect_right(self.ends, start) - REF_NEIGHBOURS, 0)
        hi = bisect.bisect_right(self.ends, end) + REF_NEIGHBOURS
        return REF_NOMINAL_S / statistics.median(self.seconds[lo:hi])


@dataclass
class Measurement:
    """Samples of one measured segment, normalised by the reference; `raw`
    holds the same samples as the wall clock read them."""

    setup_s: list[float] = field(default_factory=list)
    step_ms: list[float] = field(default_factory=list)
    docs_per_s: list[float] = field(default_factory=list)
    eval_docs_per_s: list[float] = field(default_factory=list)
    predict_docs_per_s: list[float] = field(default_factory=list)
    raw: dict = field(default_factory=dict)
    reference_s: list[float] = field(default_factory=list)
    validation: dict = field(default_factory=dict)   # evaluate output on the val split

    def add_time(self, name: str, seconds: float, scale: float, unit: float = 1.0):
        """A duration, in s (or ms with unit=1e3)."""
        getattr(self, name).append(seconds * scale * unit)
        self.raw.setdefault(name, []).append(seconds * unit)

    def add_rate(self, name: str, count: float, seconds: float, scale: float):
        """`count` items done in `seconds`, per second."""
        getattr(self, name).append(count / (seconds * scale))
        self.raw.setdefault(name, []).append(count / seconds)


def percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def timed_setups(setup, m: Measurement, ref: Reference):
    """Run `setup` repeatedly, recording each duration; returns the last result."""
    spans: list[tuple[float, float]] = []
    while len(spans) < SETUP_REPEATS or sum(b - a for a, b in spans) < SETUP_MIN_S:
        start = ref.sample()
        result = setup()
        spans.append((start, time.perf_counter()))
    ref.sample()
    for start, end in spans:
        m.add_time("setup_s", end - start, ref.scale(start, end))
    return result


def keep_measuring(m: Measurement, reps: int, begin: float, seconds: float,
                   min_steps: int, min_reps: int) -> bool:
    elapsed = time.perf_counter() - begin
    if reps >= min_reps and elapsed > MAX_MEASURE_S:
        return False
    return reps < min_reps or len(m.step_ms) < min_steps or elapsed < seconds


def within_epoch_steps(calls: list[tuple[float, float]],
                       steps_per_epoch: int) -> list[tuple[float, float]]:
    """(start, end) of every step but each epoch's first, from the `on_step`
    callbacks' (entry, exit) times: a step runs from one callback's exit to
    the next one's entry."""
    out = []
    for lo in range(0, len(calls), steps_per_epoch):
        epoch = calls[lo:lo + steps_per_epoch]
        out += [(prev[1], cur[0]) for prev, cur in zip(epoch, epoch[1:])]
    return out


class TrainSession:
    """Inputs and state of a training workload across measured segments."""

    def __init__(self, spec: TrainWorkload, seed: int, work: Path, checks: Checks):
        self.spec, self.seed, self.work, self.checks = spec, seed, work, checks
        self.first_sha: str | None = None
        self.untrained: dict | None = None
        data = work / "data"
        htcinfomax.generate_synthetic(htcinfomax.GeneratorConfig(**spec.generator), seed, data)
        self.paths = {k: data / f"{k}.jsonl" for k in ("train", "val")}
        self.paths["taxonomy"] = data / "taxonomy.txt"
        self.checkpoint = work / "model.ckpt"
        dims = dict(spec.dims)
        if "prior_hidden" in dims:
            dims["prior_hidden"] = tuple(dims["prior_hidden"])
        self.config = trainer.TrainConfig(
            epochs=spec.epochs, batch_size=spec.batch_size, learning_rate=spec.learning_rate,
            seed=seed, max_len=spec.max_len, checkpoint_path=str(self.checkpoint),
            dims=trainer.ModelDims(**dims))

    def setup(self):
        """Taxonomy, vocabulary and corpus load plus the Model/Adam build."""
        tax = taxonomy.load_taxonomy(self.paths["taxonomy"])
        vocab = dataio.build_vocab_from_file(self.paths["train"])
        train = dataio.load_corpus(self.paths["train"], vocab, tax)[:self.spec.train_docs]
        val = dataio.load_corpus(self.paths["val"], vocab, tax)
        model = trainer.Model(tax, vocab, self.config)
        trainer.Adam(model.registry, self.config.learning_rate)
        return tax, vocab, train, val, model

    def measure(self, seconds: float, min_steps: int, min_reps: int, tracer=None) -> Measurement:
        m = Measurement()
        ref = Reference()
        tax, vocab, train, val, untrained = timed_setups(self.setup, m, ref)
        steps_per_epoch = len(train) // self.config.batch_size
        val_batches = dataio.make_batches(val, self.config.batch_size, self.config.max_len, tax)
        targets = np.concatenate([b.targets for b in val_batches], axis=0)
        if self.untrained is None:
            self.untrained = trainer.evaluate(val_batches, untrained)
        evaluation = None
        reps = 0
        begin = time.perf_counter()
        while keep_measuring(m, reps, begin, seconds, min_steps, min_reps):
            if reps:
                timed_setups(self.setup, m, ref)
            calls: list[tuple[float, float]] = []     # (entry, exit) of each on_step

            def on_step(bundle):
                entry = time.perf_counter()
                self.checks.record("train step", bundle_errors(bundle))
                if ref.due():
                    ref.sample()
                calls.append((entry, time.perf_counter()))

            reps += 1
            with self.checks.operation("measured call"):
                start = ref.sample()
                result = trainer.run_training(train, val, tax, vocab, self.config, on_step=on_step)
                end = time.perf_counter()
                ref.sample()
                own = sum(b - a for a, b in calls)
                m.add_rate("docs_per_s", len(calls) * self.config.batch_size, end - start - own,
                           ref.scale(start, end))
                for a, b in within_epoch_steps(calls, steps_per_epoch):
                    m.add_time("step_ms", b - a, ref.scale(a, b), unit=1e3)
                sha = params_sha256(result.model)
                if self.first_sha is None:
                    self.first_sha = sha
                else:
                    self.checks.record("same-seed rerun", [] if sha == self.first_sha else
                                       [f"parameter sha256 {sha[:16]} != {self.first_sha[:16]}"])
                evaluation = self._evaluate(result, val_batches, m, ref)
                decisions = model_decisions(result.model, val_batches)
                for _ in range(PREDICT_REPEATS):
                    ref.sample()
                    run = run_predict(self.checkpoint, self.paths["val"], self.work / "predict",
                                      tracer)
                    ref.sample()
                    m.add_rate("predict_docs_per_s", len(run.records), run.end - run.start,
                               ref.scale(run.start, run.end))
                    self.checks.record("predict", predict_errors(
                        run, tax.target_names(), decisions, targets, evaluation))
                continue
            break       # the failure is recorded; later calls would fail alike
        if evaluation is not None:
            m.validation = {"trained": evaluation, "untrained": self.untrained}
            self.checks.record("learning", learning_errors(self.untrained, evaluation,
                                                           self.spec.macro_f1_gap_share))
        m.reference_s = ref.seconds
        return m

    def _evaluate(self, result, val_batches, m: Measurement, ref: Reference) -> dict:
        """Time `evaluate` of the trained model, EVAL_REPEATS times, and of
        its reloaded checkpoint.

        All must equal each other and the last epoch record.
        """
        docs = sum(b.size for b in val_batches)

        def timed_evaluate(model):
            start = ref.sample()
            out = trainer.evaluate(val_batches, model)
            end = time.perf_counter()
            ref.sample()
            m.add_rate("eval_docs_per_s", docs, end - start, ref.scale(start, end))
            return out

        evaluation = timed_evaluate(result.model)
        for _ in range(EVAL_REPEATS - 1):
            self.checks.record("repeated evaluate",
                               mismatches(evaluation, timed_evaluate(result.model)))
        last = result.records[-1]
        self.checks.record("last epoch record", mismatches(
            {"micro_f1": last["micro_f1"], "macro_f1": last["macro_f1"], "L_c": last["val_L_c"]},
            evaluation))
        reloaded = timed_evaluate(trainer.load_model(self.checkpoint))
        self.checks.record("checkpoint round trip", mismatches(evaluation, reloaded))
        return evaluation


# -- metrics ------------------------------------------------------------------------------


def end_to_end(m: Measurement, unnormalised: bool = False) -> dict:
    """The user-visible metrics of an untraced run."""
    samples = m.raw if unnormalised else vars(m)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": median(samples["setup_s"]),
        "docs_per_s": median(samples["docs_per_s"]),
        "step_ms_p50": percentile(samples["step_ms"], 50),
        "step_ms_p90": percentile(samples["step_ms"], 90),
        "eval_docs_per_s": median(samples["eval_docs_per_s"]),
        "predict_docs_per_s": median(samples["predict_docs_per_s"]),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: tracing.Tracer, traced: Measurement,
              plain: Measurement) -> tuple[dict, dict]:
    """Layer metrics of a traced run, plus the step accounting table."""
    a = tracing.analyse(tracer)
    everything, scope, evals = a["all"], a["in_step"], a["in_eval"]
    steps = a["steps"]

    def per_step(name):
        return ratio(scope.ms.get(name, 0.0), steps)

    evaluations = everything.calls.get("trainer.evaluate", 0)
    positions = everything.count("dataio.make_batches", "positions")
    predicts = everything.calls.get("cli.predict", 0)
    out = {
        "dataio.load_corpus_ms": everything.mean_ms("dataio.load_corpus"),
        "dataio.build_vocab_ms": everything.mean_ms("dataio.build_vocab"),
        "dataio.make_batches_ms": ratio(everything.ms.get("dataio.make_batches", 0.0),
                                        everything.count("dataio.make_batches", "batches")),
        "dataio.pad_fraction": ratio(everything.count("dataio.make_batches", "padded"), positions),
        "taxonomy.load_ms": everything.mean_ms("taxonomy.load") + everything.mean_ms("taxonomy.adjacency"),
        "encoders.text.fwd_ms": per_step("encoders.text"),
        "encoders.structure.fwd_ms": per_step("encoders.structure"),
        "encoders.attention.fwd_ms": per_step("encoders.attention"),
        "encoders.structure.calls_per_eval": ratio(evals.calls.get("encoders.structure", 0), evaluations),
        "predictor.head.fwd_ms": per_step("predictor.head"),
        "predictor.bce.fwd_ms": per_step("predictor.bce"),
        "predictor.f1_ms": ratio(evals.ms.get("predictor.f1", 0.0), evaluations),
        "infomax.mi_loss.fwd_ms": per_step("infomax.mi_loss"),
        "infomax.mi_pool_text.fwd_ms": per_step("infomax.mi_pool_text"),
        "infomax.mi_score_pairs.fwd_ms": per_step("infomax.mi_score_pairs"),
        "infomax.mi_pairs_per_step": ratio(scope.count("infomax.mi_score_pairs", "pairs"), steps),
        "infomax.prior_loss.fwd_ms": per_step("infomax.prior_loss"),
        "infomax.gate.fwd_ms": per_step("infomax.gate"),
        "infomax.total_loss_ms": per_step("infomax.total_loss"),
        "autodiff.backward_ms": per_step("autodiff.backward"),
        "autodiff.topo_order_ms": per_step("autodiff.topo_order"),
        "autodiff.tape_nodes_per_step": ratio(scope.count("autodiff.topo_order", "nodes"), steps),
    }
    kernels = tracing.replay_ops(tracer, steps)
    for op in tracing.OPS:
        name = f"autodiff.{op}"
        out[f"{name}.calls"] = ratio(scope.calls.get(name, 0), steps)
        out[f"{name}.fwd_ms"] = ratio(scope.self_ms.get(name, 0.0), steps)
        out[f"{name}.bwd_ms"] = kernels[op]["bwd_ms"]
    for op in tracing.GEMM_OPS:
        out[f"autodiff.{op}.flop"] = kernels[op]["flop"]
        out[f"autodiff.{op}.bytes"] = kernels[op]["bytes"]
    traced_p50 = percentile(traced.step_ms, 50)
    out.update({
        "trainer.adam_ms": per_step("trainer.adam"),
        "trainer.clip_ms": per_step("trainer.clip"),
        "trainer.step_ms": per_step("trainer.step"),
        "trainer.step_self_ms": a["step_self"].get("trainer.step", 0.0),
        "trainer.evaluate_ms": everything.mean_ms("trainer.evaluate"),
        "trainer.save_checkpoint_ms": everything.mean_ms("trainer.save_checkpoint"),
        "trainer.checkpoint_bytes": ratio(everything.count("trainer.save_checkpoint", "bytes"),
                                          everything.calls.get("trainer.save_checkpoint", 0)),
        "trainer.load_model_ms": everything.mean_ms("trainer.load_model"),
        "cli.predict.self_ms": ratio(everything.self_ms.get("cli.predict", 0.0), predicts),
        "cli.predict.bytes_out": ratio(everything.count("cli.predict", "bytes"), predicts),
        "trace.step_ms_p50": traced_p50,
        "trace.overhead_ms": traced_p50 - percentile(plain.step_ms, 50),
    })
    accounting = {
        "step": tracing.STEP,
        "steps": steps,
        # the base of every ratio: calls per span name, positions batched
        "calls": dict(sorted(everything.calls.items())),
        "positions_batched": positions,
        "step_ms": a["step_ms"],
        "self_ms_per_step": a["step_self"],
        "self_ms_sum": sum(a["step_self"].values()),
    }
    return out, accounting


# -- one run ---------------------------------------------------------------------------


def metric_units(root: Path) -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and the per-layer metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    """Machine, toolchain and code identity of the measurement."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((root / "src" / "htcinfomax").glob("*.py")):
        src.update(path.name.encode("utf-8"))
        src.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
    }


def run(spec, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """Measure one workload; returns (details, result).

    Untraced: set-up and the measured loop for `seconds` (longer when the
    workload needs more step samples), giving the end-to-end metrics.
    Traced: half the time untraced, half with spans, giving the per-layer
    metrics and the tracing overhead.
    """
    e2e_units, layer_units = metric_units(root)
    checks = Checks()
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{spec.name}-s{seed}-", dir=work_root))
    details = {"workload": spec.name, "seed": seed, "seconds": seconds, "trace": int(trace),
               "environment": environment(root)}
    try:
        session = TrainSession(spec, seed, work, checks)
        if not trace:
            samples = session.measure(seconds, MIN_STEP_SAMPLES, min_reps=2)
            values, units = end_to_end(samples), e2e_units
        else:
            plain = session.measure(seconds / 2, 0, min_reps=1)
            tracer = tracing.Tracer()
            with tracing.installed(tracer, htcinfomax):
                samples = session.measure(seconds / 2, 0, min_reps=1, tracer=tracer)
            values, accounting = per_layer(tracer, samples, plain)
            units = layer_units
            details["step_accounting"] = accounting
            details["untraced_call_sites"] = tracer.missing
            spans = root / ".perfbench_out" / f"spans-{spec.name}-s{seed}.jsonl.gz"
            tracer.write(spans)
            details["spans"] = str(spans.relative_to(root))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()       # only when no other run is using it
    details["samples"] = {"setup": len(samples.setup_s), "step": len(samples.step_ms),
                          "main_calls": len(samples.docs_per_s),
                          "eval_calls": len(samples.eval_docs_per_s),
                          "predict_calls": len(samples.predict_docs_per_s)}
    reference = samples.reference_s
    details["reference"] = {"shape": REF_SHAPE, "nominal_ms": REF_NOMINAL_S * 1e3,
                            "median_ms": median(reference) * 1e3, "samples": len(reference)}
    if samples.step_ms:
        # the end-to-end metrics as the wall clock read them, before normalising
        details["unnormalised"] = end_to_end(samples, unnormalised=True)
    details["validation"] = samples.validation
    details["failures"] = checks.messages
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed if checks.attempted else 1,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    return details, result


def emit(details: dict, result: dict):
    print(json.dumps({"perfbench": details}, sort_keys=True))
    print(json.dumps(result), flush=True)
