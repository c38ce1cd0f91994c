"""Checks of the benchmark itself, at tiny dims.

Every metric BENCHMARK.json names is emitted with its unit, and a broken
loss bundle, checkpoint, prediction or MI/prior gradient counts as a
failed operation rather than a pass.  Run with `python -m pytest perfbench/tests`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import htcinfomax  # noqa: E402
from htcinfomax import autodiff, trainer  # noqa: E402

import workloads  # noqa: E402

TINY_DIMS = {"embed_dim": 12, "feature_dim": 12, "label_dim": 12, "mi_hidden": 8,
             "prior_hidden": (8, 4)}
TINY = workloads.TrainWorkload(
    name="tiny-train",
    generator={"depth": 2, "branching": 2, "docs_per_label": 16, "doc_len": 6,
               "val_docs_per_label": 4},
    dims=TINY_DIMS, batch_size=4, max_len=6, learning_rate=1e-2, epochs=4,
    macro_f1_gap_share=0.5)


@pytest.fixture
def root(tmp_path, monkeypatch):
    """A checkout stand-in: BENCHMARK.json and src/, outputs kept in tmp."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.setattr(workloads, "MIN_STEP_SAMPLES", 4)
    return tmp_path


def run(root, trace=False):
    return workloads.run(TINY, seed=3, seconds=0.01, trace=trace, root=root)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_every_metric_is_emitted_with_its_unit(root, trace):
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    details, result = run(root, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, details
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    assert set(details["environment"]) == {"cpu", "nproc", "python", "numpy", "blas",
                                           "openblas_num_threads", "git_commit", "src_sha256"}
    if trace:
        assert details["untraced_call_sites"] == []
        accounting = details["step_accounting"]
        assert accounting["self_ms_sum"] == pytest.approx(accounting["step_ms"])


def test_exact_counts(root):
    _, result = run(root, trace=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # depth-2 documents carry 2 labels: 4 docs x 2 labels x (positive + negative)
    assert metrics["infomax.mi_pairs_per_step"] == 16
    assert metrics["autodiff.tape_nodes_per_step"] == 145
    assert metrics["dataio.pad_fraction"] == 0.0
    # evaluate recomputes the structure encoder once per batch: 16 val docs / 4
    assert metrics["encoders.structure.calls_per_eval"] == 4


def bundle(**changes):
    values = {"l_c": 0.7, "l_mi": 1.3, "l_pr": 1.4, "f_weight": 0.5}
    values.update(changes)
    values.setdefault("total", values["l_c"] + values["f_weight"] * values["l_mi"]
                      + (1 - values["f_weight"]) * values["l_pr"])
    return htcinfomax.LossBundle(**values)


def test_bundle_checks():
    assert workloads.bundle_errors(bundle()) == []
    assert workloads.bundle_errors(bundle(total=bundle().total + 1e-9))
    assert workloads.bundle_errors(bundle(f_weight=1.0))
    assert workloads.bundle_errors(bundle(l_mi=float("nan")))


def test_learning_check():
    untrained = {"micro_f1": 0.2, "macro_f1": 0.1, "L_c": 0.69}

    def errors(**trained):
        return workloads.learning_errors(
            untrained, {"micro_f1": 0.9, "macro_f1": 0.6, "L_c": 0.1, **trained}, 0.5)

    assert errors() == []
    assert errors(L_c=0.5)
    assert errors(micro_f1=0.5)
    assert errors(macro_f1=0.5)


def test_timings_are_scaled_by_the_reference_samples_around_them():
    ref = workloads.Reference()
    ref.ends = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    ref.seconds = [9.0, 2.0, 2.0, 4.0, 4.0, 4.0, 9.0]
    # two samples before (2.0, 3.0), one inside (4.0) and two after (5.0, 6.0)
    assert ref.scale(3.5, 4.5) == workloads.REF_NOMINAL_S / 4.0
    # nothing inside: the two on each side
    assert ref.scale(3.2, 3.4) == workloads.REF_NOMINAL_S / 3.0
    m = workloads.Measurement()
    m.add_time("step_ms", 0.01, 0.5, unit=1e3)
    m.add_rate("docs_per_s", 100, 2.0, 0.5)
    assert (m.step_ms, m.raw["step_ms"]) == ([5.0], [10.0])
    assert (m.docs_per_s, m.raw["docs_per_s"]) == ([100.0], [50.0])


def test_two_training_calls_even_past_the_time_cap(root, monkeypatch):
    monkeypatch.setattr(workloads, "MAX_MEASURE_S", 0.0)
    details, result = run(root)
    assert result["correct"], details
    assert details["samples"]["main_calls"] == 2     # so the same-seed rerun check ran


def test_broken_mi_and_prior_gradient_fails_the_learning_check(root, monkeypatch):
    # logsigmoid is used only by the MI and prior losses; negating its
    # gradient leaves every loss value, hence the bundle identity, intact.
    original = autodiff.logsigmoid
    monkeypatch.setattr(autodiff, "logsigmoid", lambda a: autodiff.grad_reverse(original(a)))
    details, result = run(root)
    assert not result["correct"] and result["failed"] >= 1
    learning = [m for m in details["failures"] if m.startswith("learning")]
    assert len(learning) == 1 and "val macro_f1" in learning[0], details["failures"]
    # only the macro-F1 floor catches it at this seed
    assert "L_c" not in learning[0] and "micro_f1" not in learning[0]


def test_tampered_loss_bundle_is_a_failed_operation(root, monkeypatch):
    original = trainer.train_step

    def tampered(*args, **kwargs):
        good = original(*args, **kwargs)
        return dataclasses.replace(good, total=good.total + 1e-6)

    monkeypatch.setattr(trainer, "train_step", tampered)
    details, result = run(root)
    assert not result["correct"]
    assert result["failed"] >= details["samples"]["step"]     # every training step
    assert any(m.startswith("train step") for m in details["failures"])


def test_mismatched_checkpoint_is_a_failed_operation(root, monkeypatch):
    original = trainer.load_model

    def other_weights(path):
        model = original(path)
        model.head.weight.data += 1e-3
        return model

    monkeypatch.setattr(trainer, "load_model", other_weights)
    details, result = run(root)
    assert not result["correct"] and result["failed"] >= 1
    assert any(m.startswith("checkpoint round trip") for m in details["failures"])


def test_predict_that_disagrees_with_evaluate_is_a_failed_operation(root, monkeypatch):
    monkeypatch.setattr(workloads, "model_decisions",
                        lambda model, batches: 1.0 - np.concatenate(
                            [b.targets for b in batches], axis=0))
    details, result = run(root)
    assert not result["correct"] and result["failed"] >= 1
    assert any(m.startswith("predict") for m in details["failures"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
