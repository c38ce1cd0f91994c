"""Command-line interface: subcommands, exit codes, manifests, schemas."""

import io
import json
import os
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from htcinfomax import autodiff as ad
from htcinfomax import cli, trainer
from htcinfomax.dataio import (Document, GeneratorConfig, load_corpus, make_batches,
                               read_raw_corpus)
from htcinfomax.trainer import iter_predictions, load_model

TINY_TRAIN_CONFIG = {
    "epochs": 2,
    "batch_size": 4,
    "learning_rate": 0.01,
    "max_len": 16,
    "dims": {"embed_dim": 12, "feature_dim": 12, "label_dim": 12,
             "mi_hidden": 8, "prior_hidden": [10, 6]},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated corpus plus one trained checkpoint, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert cli.main(["gendata", "--out", str(data), "--depth", "2", "--branching", "2",
                     "--docs-per-label", "10", "--doc-len", "8",
                     "--vocab-per-label", "5", "--seed", "3"]) == 0
    config = root / "config.json"
    config.write_text(json.dumps(TINY_TRAIN_CONFIG), encoding="utf-8")
    assert cli.main(["train", "--data", str(data), "--config", str(config),
                     "--out", str(run), "--seed", "1"]) == 0
    return {"root": root, "data": data, "run": run, "config": config,
            "checkpoint": run / "model.ckpt"}


# -- gendata ----------------------------------------------------------------------


def test_gendata_stdout_json_and_stderr_table(tmp_path, capsys):
    rc = cli.main(["gendata", "--out", str(tmp_path / "d"), "--depth", "2",
                   "--branching", "2", "--docs-per-label", "2", "--doc-len", "4",
                   "--vocab-per-label", "3", "--seed", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    payload = json.loads(captured.out)
    assert payload["label_count"] == 6
    assert payload["depth"] == 2
    assert "L (labels)" in captured.err
    assert "Avg-L" in captured.err


def test_gendata_same_flags_identical_hashes(tmp_path, capsys):
    flags = ["--depth", "2", "--branching", "2", "--docs-per-label", "3",
             "--doc-len", "4", "--vocab-per-label", "3", "--seed", "9"]
    cli.main(["gendata", "--out", str(tmp_path / "a"), *flags])
    first = json.loads(capsys.readouterr().out)["files"]
    cli.main(["gendata", "--out", str(tmp_path / "b"), *flags])
    second = json.loads(capsys.readouterr().out)["files"]
    assert first == second


def test_gendata_writes_run_manifest(tmp_path, capsys):
    out = tmp_path / "d"
    cli.main(["gendata", "--out", str(out), "--depth", "2", "--branching", "2",
              "--docs-per-label", "2", "--doc-len", "4", "--vocab-per-label", "3"])
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "gendata"
    assert manifest["config"]["depth"] == 2
    assert manifest["config"]["seed"] == 7
    assert "outputs" in manifest and "artifact_version" in manifest


def test_gendata_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"depth": 2, "branching": 3, "docs_per_label": 2,
                               "doc_len": 4, "vocab_per_label": 3}), encoding="utf-8")
    cli.main(["gendata", "--out", str(tmp_path / "d"), "--config", str(cfg),
              "--branching", "2"])
    payload = json.loads(capsys.readouterr().out)
    # depth from file, branching overridden by flag: 2-ary depth-2 tree
    assert payload["label_count"] == 6


def test_gendata_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"dpeth": 3}), encoding="utf-8")
    assert cli.main(["gendata", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 2
    assert "dpeth" in capsys.readouterr().err


def test_gendata_invalid_flag_value_is_usage_error(tmp_path, capsys):
    rc = cli.main(["gendata", "--out", str(tmp_path / "d"), "--branching", "1"])
    assert rc == 2


# Every GeneratorConfig field, so a field added later is covered with no edit here.
GENERATOR_FIELDS = fields(GeneratorConfig)
SMALL_CORPUS = {"depth": 2, "branching": 2, "vocab_per_label": 2, "docs_per_label": 2,
                "doc_len": 2}


def _field_value(f):
    """A valid value for the field that no small corpus setting above uses."""
    return 0.25 if f.type == "float" else 3


def _gendata_config(tmp_path, capsys, argv) -> dict:
    rc = cli.main(["gendata", "--out", str(tmp_path / "d"), *argv])
    assert rc == 0, capsys.readouterr().err
    return json.loads((tmp_path / "d" / "run_manifest.json").read_text(encoding="utf-8"))["config"]


@pytest.mark.parametrize("f", GENERATOR_FIELDS, ids=lambda f: f.name)
def test_gendata_flag_sets_each_generator_field(tmp_path, capsys, f):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(SMALL_CORPUS), encoding="utf-8")
    value = _field_value(f)
    config = _gendata_config(tmp_path, capsys, ["--config", str(cfg),
                                                f"--{f.name.replace('_', '-')}", str(value)])
    assert config[f.name] == value and type(config[f.name]) is type(value)


@pytest.mark.parametrize("f", GENERATOR_FIELDS, ids=lambda f: f.name)
def test_gendata_config_file_sets_each_generator_field(tmp_path, capsys, f):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({**SMALL_CORPUS, f.name: _field_value(f)}), encoding="utf-8")
    assert _gendata_config(tmp_path, capsys, ["--config", str(cfg)])[f.name] == _field_value(f)


@pytest.mark.parametrize("f", GENERATOR_FIELDS, ids=lambda f: f.name)
def test_gendata_config_file_value_of_wrong_kind_names_the_key(tmp_path, capsys, f):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({**SMALL_CORPUS, f.name: "x"}), encoding="utf-8")
    rc = cli.main(["gendata", "--out", str(tmp_path / "d"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"gendata.{f.name} must be" in err and "Traceback" not in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("file_seed,flags,seed", [(None, [], 7), (5, [], 5), (5, ["--seed", "11"], 11),
                                                  (None, ["--seed", "11"], 11)])
def test_gendata_seed_is_flag_then_file_then_default(tmp_path, capsys, file_seed, flags, seed):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({**SMALL_CORPUS, **({} if file_seed is None else {"seed": file_seed})}),
                   encoding="utf-8")
    assert _gendata_config(tmp_path, capsys, ["--config", str(cfg), *flags])["seed"] == seed
    files = json.loads(capsys.readouterr().out)["files"]
    # the corpus is the one --seed <seed> writes, not only the manifest's record
    assert cli.main(["gendata", "--out", str(tmp_path / "flag"), "--config", str(cfg),
                     "--seed", str(seed)]) == 0
    assert json.loads(capsys.readouterr().out)["files"] == files


@pytest.mark.parametrize("seed", ["x", 2.5, True, None])
def test_gendata_config_file_seed_of_wrong_kind_names_the_key(tmp_path, capsys, seed):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({**SMALL_CORPUS, "seed": seed}), encoding="utf-8")
    rc = cli.main(["gendata", "--out", str(tmp_path / "d"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "gendata.seed must be an integer" in err and "Traceback" not in err
    assert not (tmp_path / "d").exists()


# -- train ------------------------------------------------------------------------


def test_train_writes_log_with_all_scalars(workspace):
    lines = (workspace["run"] / "train_log.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        assert {"L", "L_c", "L_MI", "L_pr", "F"} <= set(record)


def test_train_stdout_reports_run_summary(workspace, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workspace["data"]),
                   "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r"), "--seed", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seeds"] == [2]
    assert payload["runs"][0]["micro_f1"] is not None
    assert (tmp_path / "r" / "model.ckpt").exists()


def test_train_base_ablation_reports_l_equal_l_c(workspace, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workspace["data"]),
                   "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r"), "--seed", "1",
                   "--disable-mi", "--disable-label-prior", "--batch-size", "2"])
    assert rc == 0
    for line in (tmp_path / "r" / "train_log.jsonl").read_text().splitlines():
        record = json.loads(line)
        assert record["L"] == record["L_c"]
        assert record["L_MI"] == 0.0 and record["L_pr"] == 0.0


def test_train_seed_sweep_reports_means(workspace, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workspace["data"]),
                   "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r"), "--seeds", "1,2", "--epochs", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seeds"] == [1, 2]
    assert len(payload["runs"]) == 2
    per_seed = [r["micro_f1"] for r in payload["runs"]]
    assert payload["mean_micro_f1"] == pytest.approx(sum(per_seed) / 2)
    assert (tmp_path / "r" / "model_seed1.ckpt").exists()
    assert (tmp_path / "r" / "model_seed2.ckpt").exists()


def test_train_flag_overrides_config_file(workspace, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workspace["data"]),
                   "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r"), "--seed", "1", "--epochs", "1"])
    assert rc == 0
    lines = (tmp_path / "r" / "train_log.jsonl").read_text().splitlines()
    assert len(lines) == 1  # flag epochs=1 beats config epochs=2


def test_train_missing_data_dir_is_usage_error(tmp_path, capsys):
    rc = cli.main(["train", "--data", str(tmp_path / "nope")])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


def test_train_checkpoint_with_seeds_rejected(workspace, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workspace["data"]), "--seeds", "1,2",
                   "--checkpoint", str(tmp_path / "m.ckpt")])
    assert rc == 2


@pytest.mark.parametrize("seeds,pair", [
    ("0,4294967296", "0 and 4294967296"),
    ("-1,4294967295", "-1 and 4294967295"),
    ("3,5,3", "3 and 3"),
])
def test_train_seeds_selecting_the_same_streams_rejected(workspace, tmp_path, capsys, seeds, pair):
    rc = cli.main(["train", "--data", str(workspace["data"]), "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r"), f"--seeds={seeds}", "--epochs", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"--seeds {pair} select the same random streams" in err and "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv,message", [
    (["train", "--seeds", "-1,4294967295"], "--seeds -1 and 4294967295 select the same"),
    (["eval", "--threshold", "-inf"], "--threshold must be a finite number, got -inf"),
    (["predict", "--threshold", "-nan"], "--threshold must be a finite number, got nan"),
])
def test_values_starting_with_a_dash_reach_their_flag(workspace, tmp_path, capsys, argv, message):
    # argparse alone reads "-1,4294967295" and "-inf" as options ("expected one argument")
    command, flag, value = argv
    rest = (["--data", str(workspace["data"]), "--config", str(workspace["config"])]
            if command == "train" else
            ["--checkpoint", str(workspace["checkpoint"]), "--data", str(workspace["data"] / "test.jsonl")])
    rc = cli.main([command, *rest, "--out", str(tmp_path / "r"), flag, value])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err and "expected one argument" not in err
    assert not (tmp_path / "r").exists()


def test_a_negative_seed_list_trains_as_a_separate_value(workspace, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workspace["data"]), "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r"), "--seeds", "-3,4", "--epochs", "1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["seeds"] == [-3, 4]


def test_a_flag_missing_its_value_is_still_a_usage_error(workspace, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                  "--data", str(workspace["data"] / "test.jsonl"), "--threshold", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "--threshold: expected one argument" in capsys.readouterr().err


def test_train_invalid_batch_size_combination(workspace, tmp_path, capsys):
    rc = cli.main(["train", "--data", str(workspace["data"]),
                   "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r"), "--batch-size", "1"])
    assert rc == 2
    assert "batch_size" in capsys.readouterr().err


@pytest.mark.parametrize("dims", [
    5,
    {"text_kernels": 3},
    {"embed_dim": "wide"},
    {"embed_dim": 12, "hidden_width": 4},
    {"embed_dim": 12, "prior_hidden": [10]},
])
def test_train_malformed_dims_is_usage_error(workspace, tmp_path, capsys, dims):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_TRAIN_CONFIG, "dims": dims}), encoding="utf-8")
    rc = cli.main(["train", "--data", str(workspace["data"]), "--config", str(config),
                   "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command,key,value", [
    ("gendata", "depth", "3"),
    ("train", "learning_rate", "x"),
    ("train", "epochs", "2"),
    ("train", "batch_size", None),
    ("train", "threshold", "a"),
    ("train", "clip_norm", "z"),
    ("train", "clip_norm", -1.0),
    ("train", "checkpoint_path", "elsewhere.ckpt"),
    ("train", "log_path", "elsewhere.jsonl"),
])
def test_config_value_of_wrong_kind_is_usage_error(workspace, tmp_path, capsys, command, key, value):
    config = tmp_path / "config.json"
    base = TINY_TRAIN_CONFIG if command == "train" else {}
    config.write_text(json.dumps({**base, key: value}), encoding="utf-8")
    args = ["--data", str(workspace["data"])] if command == "train" else []
    rc = cli.main([command, *args, "--config", str(config), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "usage error" in err and key in err and "Traceback" not in err
    assert not (tmp_path / "r" / "model.ckpt").exists()


@pytest.mark.parametrize("flags,seed", [([], 3), (["--seed", "5"], 5)])
def test_train_seed_precedence_is_flag_then_config_file(workspace, tmp_path, capsys, flags, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_TRAIN_CONFIG, "epochs": 1, "seed": 3}), encoding="utf-8")
    rc = cli.main(["train", "--data", str(workspace["data"]), "--config", str(config),
                   "--out", str(tmp_path / "r"), *flags])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["seeds"] == [seed]
    manifest = json.loads((tmp_path / "r" / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["seeds"] == [seed]
    assert manifest["config"]["runs"][str(seed)]["seed"] == seed
    assert load_model(tmp_path / "r" / "model.ckpt").config.seed == seed


def test_train_manifest_written(workspace):
    manifest = json.loads((workspace["run"] / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "train"
    assert "train" in manifest["inputs"]
    assert "sha256" in manifest["inputs"]["train"]
    assert manifest["config"]["runs"]["1"]["epochs"] == 2


@pytest.mark.parametrize("variables,threads,source", [
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, "1", "OPENBLAS_NUM_THREADS"),
    ({"OMP_NUM_THREADS": "2"}, "2", "OMP_NUM_THREADS"),
    ({}, "default", None),
])
def test_manifests_record_the_blas_thread_setting(workspace, tmp_path, capsys, monkeypatch,
                                                  variables, threads, source):
    # fixed-seed results are bit-identical only at one thread setting, so
    # train, eval and predict each record it, and train's summary repeats it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in variables.items():
        monkeypatch.setenv(var, value)
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    expected = {"name": blas["name"], "version": blas["version"], "threads": threads,
                "threads_from": source, "cpus": len(os.sched_getaffinity(0))}
    assert cli.main(["train", "--data", str(workspace["data"]), "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "train"), "--epochs", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["blas"] == expected
    for command in ("train", "eval", "predict"):
        if command != "train":
            assert cli.main([command, "--checkpoint", str(tmp_path / "train" / "model.ckpt"),
                             "--data", str(workspace["data"] / "test.jsonl"),
                             "--out", str(tmp_path / command)]) == 0
        manifest = json.loads((tmp_path / command / "run_manifest.json").read_text(encoding="utf-8"))
        assert manifest["blas"] == expected


# -- eval -------------------------------------------------------------------------


def test_eval_prints_single_json_object(workspace, tmp_path, capsys):
    rc = cli.main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert set(payload) == {"micro_f1", "macro_f1", "L_c"}
    assert "micro F1" in captured.err


def test_eval_of_a_checkpoint_matches_training_when_a_later_branch_is_listed_first(
        tmp_path, capsys):
    # b's children come first in the file, so they take lower ids than a's;
    # the checkpoint must keep every label name on its trained row and column
    data = tmp_path / "data"
    data.mkdir()
    (data / "taxonomy.txt").write_text("Root\ta\tb\nb\tb1\tb2\na\ta1\ta2\n", encoding="utf-8")
    rng = np.random.default_rng(0)
    records = [{"token": [f"{leaf}w{k}" for k in rng.integers(0, 3, 6)],
                "label": [leaf[0], leaf]} for leaf in ("a1", "a2", "b1", "b2") for _ in range(8)]
    text = "".join(json.dumps(r) + "\n" for r in records)
    for split in ("train", "val"):
        (data / f"{split}.jsonl").write_text(text, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_TRAIN_CONFIG, "epochs": 6}), encoding="utf-8")
    assert cli.main(["train", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    last = json.loads((tmp_path / "r" / "train_log.jsonl").read_text(
        encoding="utf-8").splitlines()[-1])
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "r" / "model.ckpt"),
                     "--data", str(data / "val.jsonl"), "--out", str(tmp_path)]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert (metrics["micro_f1"], metrics["macro_f1"], metrics["L_c"]) == \
        (last["micro_f1"], last["macro_f1"], last["val_L_c"])


def test_eval_is_idempotent(workspace, tmp_path, capsys):
    args = ["eval", "--checkpoint", str(workspace["checkpoint"]),
            "--data", str(workspace["data"] / "test.jsonl"), "--out", str(tmp_path)]
    cli.main(args)
    first = capsys.readouterr().out
    cli.main(args)
    second = capsys.readouterr().out
    assert first == second


def test_eval_missing_checkpoint_is_usage_error(workspace, tmp_path, capsys):
    rc = cli.main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--data", str(workspace["data"] / "test.jsonl")])
    assert rc == 2


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_non_finite_threshold_is_usage_error(workspace, tmp_path, capsys, command, threshold):
    rc = cli.main([command, "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path), f"--threshold={threshold}"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--threshold must be a finite number" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_eval_corrupt_checkpoint_is_runtime_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage!" * 8)
    rc = cli.main(["eval", "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 1


def test_eval_corrupt_checkpoint_header_is_runtime_error(workspace, tmp_path, capsys):
    blob = workspace["checkpoint"].read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:16] + b"{" * length + blob[16 + length:])
    rc = cli.main(["eval", "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "corrupt header" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("first_extent", [-1, 2.5, 2**62])
def test_bad_parameter_shape_in_checkpoint_header_is_runtime_error(
        workspace, tmp_path, capsys, command, first_extent):
    blob = workspace["checkpoint"].read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + length])
    header["params"][0]["shape"][0] = first_extent
    edited = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(edited)) + edited + blob[16 + length:])
    rc = cli.main([command, "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "corrupt header" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_config_wider_than_its_body_is_runtime_error(
        workspace, tmp_path, capsys, monkeypatch, command):
    # embed_dim 10**9 over a body of tiny parameters: refused before any allocation
    blob = workspace["checkpoint"].read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + length])
    header["config"]["dims"]["embed_dim"] = 10**9
    edited = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(edited)) + edited + blob[16 + length:])
    monkeypatch.setattr(trainer, "Model", lambda *args: pytest.fail("Model built"))
    rc = cli.main([command, "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "malformed header" in err and "'text.embedding'" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("case", ["progress-not-object", "adam-other-names", "trailing-bytes"])
def test_hostile_checkpoint_is_runtime_error(workspace, tmp_path, capsys, command, case):
    blob = workspace["checkpoint"].read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + length])
    body = blob[16 + length:]
    if case == "progress-not-object":
        header["progress"] = [1, 2]
    elif case == "adam-other-names":
        header["adam"].pop(header["params"][0]["name"])
    else:
        body += b"\x00" * 8
    edited = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(edited)) + edited + body)
    rc = cli.main([command, "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: {bad}")


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("bad_id", ["past-the-table", "negative"])
def test_checkpoint_vocabulary_id_outside_the_table_is_runtime_error(
        workspace, tmp_path, capsys, command, bad_id):
    blob = workspace["checkpoint"].read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + length])
    vocab = header["vocab"]
    # every token but PAD and UNK, so the evaluated documents read the bad id
    for token, token_id in vocab.items():
        if token_id > 1:
            vocab[token] = len(vocab) + 900 if bad_id == "past-the-table" else -1
    edited = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(edited)) + edited + blob[16 + length:])
    rc = cli.main([command, "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        captured.err.strip()]
    assert "malformed header" in captured.err and "vocabulary" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("bad_id", ["1", True, 2.9], ids=["string", "bool", "float"])
def test_checkpoint_vocabulary_id_of_another_kind_is_malformed(workspace, tmp_path, capsys, bad_id):
    # int() would read each as an id of the table: "1" and true as 1, 2.9 as 2
    blob = workspace["checkpoint"].read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + length])
    vocab = header["vocab"]
    vocab[next(token for token, token_id in vocab.items() if token_id == int(bad_id))] = bad_id
    edited = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(edited)) + edited + blob[16 + length:])
    with pytest.raises(trainer.CheckpointError, match="malformed header.*integer id"):
        load_model(bad)
    rc = cli.main(["eval", "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "test.jsonl"), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""


class ShortReads(io.BufferedReader):
    """Returns half of each block read, as if the file shrank after its
    size was taken."""

    def readinto(self, buffer):
        view = memoryview(buffer).cast("B")
        return super().readinto(view[:len(view) // 2])


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_body_short_after_the_size_check_is_runtime_error(
        workspace, tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(trainer, "open", lambda path, mode: ShortReads(io.FileIO(path, mode)),
                        raising=False)
    rc = cli.main([command, "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(workspace["data"] / "test.jsonl"), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "is truncated: the body ended inside parameter" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_a_non_finite_result_is_refused_not_printed(workspace, tmp_path, capsys, monkeypatch,
                                                    command):
    # a backstop behind the checkpoint reader and training, which refuse
    # non-finite numbers first: stdout holds strict JSON or nothing
    if command == "train":
        train = cli.run_training

        def run_training(*args, **kwargs):
            result = train(*args, **kwargs)
            result.records[-1]["L"] = float("nan")
            return result

        monkeypatch.setattr(cli, "run_training", run_training)
        argv = ["train", "--data", str(workspace["data"]), "--config", str(workspace["config"]),
                "--epochs", "1"]
    elif command == "eval":
        monkeypatch.setattr(cli, "evaluate", lambda batches, model: {
            "L_c": float("nan"), "macro_f1": 0.0, "micro_f1": 0.0})
        argv = ["eval", "--checkpoint", str(workspace["checkpoint"]),
                "--data", str(workspace["data"] / "test.jsonl")]
    else:
        predictions = cli.iter_predictions
        monkeypatch.setattr(cli, "iter_predictions", lambda batches, model: (
            (batch, replace(preds, probs=np.full_like(preds.probs, np.inf)))
            for batch, preds in predictions(batches, model)))
        argv = ["predict", "--checkpoint", str(workspace["checkpoint"]),
                "--data", str(workspace["data"] / "test.jsonl")]
    rc = cli.main(argv + ["--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "not JSON compliant" in only_error_line(captured.err)


# -- predict ----------------------------------------------------------------------


def test_predict_emits_one_json_line_per_document(workspace, tmp_path, capsys):
    rc = cli.main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(workspace["data"] / "test.jsonl"),
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    n_docs = len((workspace["data"] / "test.jsonl").read_text().splitlines())
    assert len(lines) == n_docs
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"labels", "probs"}
        assert all(0.0 < p < 1.0 for p in record["probs"].values())
        assert all(name in record["probs"] for name in record["labels"])


def test_predict_empty_input_exits_zero_with_no_output(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    rc = cli.main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(empty), "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_predict_malformed_json_is_data_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"token": ["x"]}\nnot json\n', encoding="utf-8")
    rc = cli.main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert ":2:" in capsys.readouterr().err


@pytest.mark.parametrize("record", ['[1, 2]', '{"token": "n0#w0 n0#w1"}'])
def test_predict_malformed_record_is_data_error(workspace, tmp_path, capsys, record):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"token": ["x"]}\n' + record + "\n", encoding="utf-8")
    rc = cli.main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().out == ""


def test_predict_emits_the_decisions_evaluate_scores(workspace, tmp_path, capsys):
    # ragged documents, some longer than max_len (16); the last record's label
    # is not in the taxonomy, which predict ignores
    records = [json.loads(line) for line in
               (workspace["data"] / "test.jsonl").read_text(encoding="utf-8").splitlines()]
    labeled = []
    for i, rec in enumerate(records[:11]):
        tokens = (rec["token"] * 4)[:2 + 3 * i]
        labeled.append({"token": tokens, "label": rec["label"]})
    labeled_path = tmp_path / "labeled.jsonl"
    labeled_path.write_text("".join(json.dumps(r) + "\n" for r in labeled), encoding="utf-8")
    unknown = labeled[:-1] + [{"token": labeled[-1]["token"], "label": ["no-such-label"]}]
    predict_path = tmp_path / "predict.jsonl"
    predict_path.write_text("".join(json.dumps(r) + "\n" for r in unknown), encoding="utf-8")

    model = load_model(workspace["checkpoint"])
    assert max(len(r["token"]) for r in labeled) > model.config.max_len
    batches = make_batches(load_corpus(labeled_path, model.vocab, model.tax),
                           model.config.batch_size, model.config.max_len, model.tax)
    with ad.no_grad():
        preds = [model.predict(b) for b in batches]
    decisions = np.concatenate([p.decisions for p in preds])
    probs = np.concatenate([p.probs for p in preds])

    rc = cli.main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(predict_path), "--out", str(tmp_path)])
    assert rc == 0
    emitted = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(emitted) == len(labeled)
    names = model.tax.target_names()
    for row, record in enumerate(emitted):
        assert record["labels"] == [n for j, n in enumerate(names) if decisions[row, j] == 1.0]
        assert [record["probs"][n] for n in names] == probs[row].tolist()


def reference_predict_output(checkpoint, path, threshold=None) -> str:
    """predict's stdout as one json.dumps(record, sort_keys=True) line per document."""
    model = load_model(checkpoint)
    if threshold is not None:
        model.head.threshold = threshold
    names = model.tax.target_names()
    docs = [Document(tokens=model.vocab.encode(tokens), labels=frozenset())
            for _, tokens, _ in read_raw_corpus(path)]
    lines = []
    batches = make_batches(docs, model.config.batch_size, model.config.max_len, model.tax)
    for batch, preds in iter_predictions(batches, model):
        for i in range(batch.size):
            record = {
                "labels": [names[j] for j in range(model.num_labels) if preds.decisions[i, j] >= 1.0],
                "probs": {names[j]: float(preds.probs[i, j]) for j in range(model.num_labels)},
            }
            lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("with_threshold", [False, True])
def test_predict_stdout_bytes_are_pinned(workspace, tmp_path, capsys, with_threshold):
    # ragged documents over several batches: one token long, longer than
    # max_len (16), with unknown tokens, with and without labels
    records = [json.loads(line) for line in
               (workspace["data"] / "test.jsonl").read_text(encoding="utf-8").splitlines()]
    ragged = [{"token": (rec["token"] * 4)[:1 + 3 * i]} for i, rec in enumerate(records[:9])]
    ragged += [{"token": ["n0#w0", "unseen"], "label": ["n0"]}, {"token": ["n1#w1"]}]
    path = tmp_path / "ragged.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in ragged), encoding="utf-8")
    argv = ["predict", "--checkpoint", str(workspace["checkpoint"]), "--data", str(path),
            "--out", str(tmp_path)]
    threshold = None
    if with_threshold:
        # the median probability: some labels pass it, some do not
        emitted = [json.loads(line) for line in
                   reference_predict_output(workspace["checkpoint"], path).splitlines()]
        threshold = float(np.median([p for r in emitted for p in r["probs"].values()]))
        argv.append(f"--threshold={threshold!r}")
    expected = reference_predict_output(workspace["checkpoint"], path, threshold)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
    assert expected.count("\n") == len(ragged)
    if with_threshold:
        chosen = [len(json.loads(line)["labels"]) for line in expected.splitlines()]
        assert 0 < sum(chosen) < len(chosen) * len(emitted[0]["probs"])


def test_predict_sorts_label_names_as_json_sort_keys_does(workspace, tmp_path, capsys):
    # predict sorts the names once per call; the bytes must stay those of
    # json.dumps(record, sort_keys=True) for names that JSON escapes
    data = tmp_path / "data"
    data.mkdir()
    tree = {'q"uote': ["\u00fcber", "Zed"], "back\\slash": ["\u00df", "a\u2603"]}
    (data / "taxonomy.txt").write_text("".join(
        "\t".join([parent, *kids]) + "\n" for parent, kids in [("Root", list(tree)), *tree.items()]),
        encoding="utf-8")
    rng = np.random.default_rng(2)
    records = [{"token": [f"w{leaf}{k}" for k in rng.integers(0, 3, 5)], "label": [top, leaf]}
               for top, leaves in tree.items() for leaf in leaves for _ in range(4)]
    (data / "train.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records),
                                      encoding="utf-8")
    assert cli.main(["train", "--data", str(data), "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "r"), "--epochs", "1"]) == 0
    capsys.readouterr()
    checkpoint = tmp_path / "r" / "model.ckpt"
    names = load_model(checkpoint).tax.target_names()
    assert names != sorted(names)
    assert cli.main(["predict", "--checkpoint", str(checkpoint), "--data", str(data / "train.jsonl"),
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out == reference_predict_output(checkpoint, data / "train.jsonl")
    assert '"q\\"uote": ' in out and '"back\\\\slash": ' in out and '"\\u00fcber": ' in out


def test_predict_accepts_unlabeled_documents(workspace, tmp_path, capsys):
    unlabeled = tmp_path / "unlabeled.jsonl"
    unlabeled.write_text('{"token": ["n0#w0", "n0#w1", "unseen"]}\n', encoding="utf-8")
    rc = cli.main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                   "--data", str(unlabeled), "--out", str(tmp_path)])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record["probs"]) == {"n0", "n1", "n0.0", "n0.1", "n1.0", "n1.1"}


# -- plumbing ---------------------------------------------------------------------


def test_invalid_log_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("HTCIM_LOG", "shouty")
    assert cli.main(["gendata", "--out", "ignored"]) == 2
    assert "HTCIM_LOG" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


# A JSON parser recurses once per nesting level; each input refuses a
# document nested deeper than it can parse with its own typed error.
DEEP_JSON = "[" * 100_000


def test_deeply_nested_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text(DEEP_JSON, encoding="utf-8")
    rc = cli.main(["gendata", "--out", str(tmp_path / "d"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"config file {cfg} is not valid JSON" in err and "Traceback" not in err


def copy_data(workspace, tmp_path):
    """A copy of the shared corpus's taxonomy and training split to corrupt."""
    data = tmp_path / "data"
    data.mkdir()
    for name in ("taxonomy.txt", "train.jsonl"):
        (data / name).write_bytes((workspace["data"] / name).read_bytes())
    return data


def test_deeply_nested_corpus_line_is_data_error(workspace, tmp_path, capsys):
    data = copy_data(workspace, tmp_path)
    lines = len((data / "train.jsonl").read_text(encoding="utf-8").splitlines())
    with open(data / "train.jsonl", "a", encoding="utf-8") as fh:
        fh.write(DEEP_JSON + "\n")
    rc = cli.main(["train", "--data", str(data), "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"train.jsonl:{lines + 1}: malformed JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_deeply_nested_checkpoint_header_is_runtime_error(workspace, tmp_path, capsys, command):
    blob = workspace["checkpoint"].read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = DEEP_JSON.encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + length:])
    rc = cli.main([command, "--checkpoint", str(bad),
                   "--data", str(workspace["data"] / "test.jsonl"), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "corrupt header" in err and "Traceback" not in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


# Every input must be UTF-8 text; a byte sequence that is not gives the
# reader's typed error, never a traceback.
INVALID_UTF8 = b"\xff\xfe not text\n"


def test_invalid_utf8_taxonomy_is_taxonomy_error(workspace, tmp_path, capsys):
    data = copy_data(workspace, tmp_path)
    (data / "taxonomy.txt").write_bytes(INVALID_UTF8)
    rc = cli.main(["train", "--data", str(data), "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"taxonomy {data / 'taxonomy.txt'} is not UTF-8" in err and "Traceback" not in err


def test_invalid_utf8_corpus_line_is_data_error(workspace, tmp_path, capsys):
    data = copy_data(workspace, tmp_path)
    lines = len((data / "train.jsonl").read_text(encoding="utf-8").splitlines())
    with open(data / "train.jsonl", "ab") as fh:
        fh.write(INVALID_UTF8)
    rc = cli.main(["train", "--data", str(data), "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"train.jsonl:{lines + 1}: not UTF-8" in err and "Traceback" not in err


def test_invalid_utf8_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(INVALID_UTF8)
    rc = cli.main(["gendata", "--out", str(tmp_path / "d"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"config file {cfg} is not valid JSON" in err and "Traceback" not in err


def only_error_line(err: str) -> str:
    """The one `error:` line of stderr; nothing may be a traceback."""
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if line.startswith("error:")]
    return line


@pytest.mark.parametrize("train_lines,flags,message", [
    (3, ["--batch-size", "8"], "one training batch needs 8 documents, got 3"),
    (0, [], "one training batch needs 4 documents, got 0")], ids=["three-of-eight", "empty"])
def test_train_without_a_training_batch_is_runtime_error(workspace, tmp_path, capsys,
                                                           train_lines, flags, message):
    data = copy_data(workspace, tmp_path)
    lines = (data / "train.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (data / "train.jsonl").write_text("".join(lines[:train_lines]), encoding="utf-8")
    out = tmp_path / "r"
    rc = cli.main(["train", "--data", str(data), "--config", str(workspace["config"]),
                   "--out", str(out), *flags])
    assert rc == 1
    assert message in only_error_line(capsys.readouterr().err)
    assert not (out / "model.ckpt").exists() and not (out / "train_log.jsonl").exists()


@pytest.mark.parametrize("text", ["Root\n", "Root\t\n"], ids=["bare", "empty-child"])
def test_taxonomy_without_a_label_is_taxonomy_error(workspace, tmp_path, capsys, text):
    data = copy_data(workspace, tmp_path)
    (data / "taxonomy.txt").write_text(text, encoding="utf-8")
    rc = cli.main(["train", "--data", str(data), "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "taxonomy has no label under 'Root'" in only_error_line(capsys.readouterr().err)


def test_out_of_memory_is_runtime_error(workspace, tmp_path, capsys, monkeypatch):
    # raised, not provoked: a real huge allocation may succeed under overcommit
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(cli, "run_training", allocate)
    rc = cli.main(["train", "--data", str(workspace["data"]), "--config", str(workspace["config"]),
                   "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "Unable to allocate 14.6 TiB" in only_error_line(capsys.readouterr().err)
