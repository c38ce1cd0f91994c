"""Command-line interface: gendata, train, eval, predict.

Machine-readable JSON goes to stdout, strict JSON only: a NaN or an
infinity is refused (exit 1), never printed.  Human-readable tables and
progress go to stderr.  Every command writes a run manifest (resolved
config, seed, input hashes, output paths) before doing any other work
(`eval` and `predict` once the checkpoint is read, since the manifest
names it by the digest that read verifies), so a run can be reproduced
from its manifest alone.  Config precedence is defaults, then
a JSON config file, then command-line flags.  Exit codes: 0 success,
1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .dataio import (
    DEFAULT_SEED,
    ConfigError,
    DataError,
    Document,
    GeneratorConfig,
    _is_int,
    file_sha256,
    generate_synthetic,
    iter_corpus,
    load_corpus,
    load_training_corpus,
    make_batches,
    read_raw_corpus,
)
from .infomax import NumericError
from .taxonomy import TaxonomyError, load_taxonomy
from .trainer import (
    CheckpointError,
    TrainConfig,
    evaluate,
    iter_predictions,
    load_model,
    run_training,
)

log = logging.getLogger("htcinfomax")

MANIFEST_NAME = "run_manifest.json"


class UsageError(Exception):
    """Bad flags, missing files, or inconsistent flag combinations."""


def _setup_logging():
    levels = {"quiet": logging.ERROR, "warning": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("HTCIM_LOG", "info").lower()
    if name not in levels:
        raise UsageError(f"HTCIM_LOG must be one of {sorted(levels)}, got {name!r}")
    logging.basicConfig(stream=sys.stderr, level=levels[name],
                        format="%(levelname)s %(name)s: %(message)s")
    return name


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {p}")
    return p


def _load_config_file(path) -> dict:
    p = _require_file(path, "config file")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as err:
        raise UsageError(f"config file {p} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {p} must hold a JSON object")
    return data


def _resolve(file_cfg: dict, flag_cfg: dict) -> dict:
    """config file < flags; None flag values mean 'not given'.  Keys neither
    sets keep the settings class's defaults."""
    return {**file_cfg, **{k: v for k, v in flag_cfg.items() if v is not None}}


def _blas_setting() -> dict:
    """The BLAS library numpy was built against and this process's thread
    setting: OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else "default".
    Fixed-seed results are bit-identical only at one thread setting."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    var = next((v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if os.environ.get(v)), None)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": os.environ[var] if var else "default", "threads_from": var, "cpus": cpus}


def _hashed(path) -> dict:
    """The manifest record of an input file: its path and whole-file SHA-256."""
    return {"path": str(path), "sha256": file_sha256(path)}


def _json(obj) -> str:
    """`obj` as strict JSON with sorted keys.  A NaN or an infinity, which
    JSON cannot hold, is a NumericError (exit 1)."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as err:
        raise NumericError(f"cannot write the result as JSON: {err}") from None


def _write_manifest(out_dir, command: str, config: dict, inputs: dict, outputs: dict,
                    blas: dict | None = None) -> Path:
    """`inputs` maps each input's name to its record (`_hashed` for a file)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": {name: str(p) for name, p in outputs.items()},
    }
    if blas is not None:
        manifest["blas"] = blas
    path = out / MANIFEST_NAME
    temp = path.with_name(f".{MANIFEST_NAME}.{os.getpid()}.tmp")
    try:        # written whole beside it, then swapped in: a failed write keeps the old one
        with open(temp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)
    log.debug("wrote manifest %s", path)
    return path


def _table(rows: list[tuple[str, object]], title: str):
    width = max(len(k) for k, _ in rows)
    print(title, file=sys.stderr)
    for key, value in rows:
        print(f"  {key.ljust(width)} : {value}", file=sys.stderr)


# -- gendata ---------------------------------------------------------------------


def cmd_gendata(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    # the seed is --seed, else the file's seed, else the default
    file_seed = file_cfg.pop("seed", DEFAULT_SEED)
    if not _is_int(file_seed):
        raise ConfigError(f"gendata.seed must be an integer, got {file_seed!r}")
    seed = args.seed if args.seed is not None else file_seed
    config = GeneratorConfig.from_dict(
        _resolve(file_cfg, {f.name: getattr(args, f.name) for f in fields(GeneratorConfig)}))

    out_dir = Path(args.out)
    outputs = {name: out_dir / f"{name}.jsonl" for name in ("train", "val", "test")}
    outputs["taxonomy"] = out_dir / "taxonomy.txt"
    outputs["manifest"] = out_dir / "manifest.json"
    inputs = {"config_file": _hashed(args.config)} if args.config else {}
    _write_manifest(out_dir, "gendata", {**config.to_dict(), "seed": seed}, inputs, outputs)

    manifest = generate_synthetic(config, seed, out_dir)
    _table([
        ("L (labels)", manifest["label_count"]),
        ("Depth", manifest["depth"]),
        ("Avg-L", f"{manifest['avg_labels_per_doc']:.2f}"),
        ("train docs", manifest["splits"]["train"]),
        ("val docs", manifest["splits"]["val"]),
        ("test docs", manifest["splits"]["test"]),
    ], f"synthetic corpus at {out_dir}")
    print(_json({
        "out_dir": str(out_dir),
        "seed": seed,
        "label_count": manifest["label_count"],
        "depth": manifest["depth"],
        "avg_labels_per_doc": manifest["avg_labels_per_doc"],
        "splits": manifest["splits"],
        "files": manifest["files"],
    }))
    return 0


# -- train -----------------------------------------------------------------------


def _train_settings(args) -> dict:
    """The --config file's settings overlaid by the flags.  The file may not
    set the output paths: --out and --checkpoint place them per run."""
    file_cfg = _load_config_file(args.config) if args.config else {}
    for key in ("checkpoint_path", "log_path"):
        if key in file_cfg:
            raise UsageError(f"config file {args.config} sets {key}; "
                             "outputs are placed by --out and --checkpoint")
    return _resolve(file_cfg, {
        "epochs": args.epochs, "batch_size": args.batch_size,
        "learning_rate": args.lr, "threshold": args.threshold,
        "disable_mi": True if args.disable_mi else None,
        "disable_label_prior": True if args.disable_label_prior else None,
    })


def _parse_seeds(args, file_seed) -> list:
    """--seeds, else --seed, else the config file's seed, else the default."""
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            raise UsageError(f"--seeds must be a comma-separated integer list, got {args.seeds!r}") from None
        if not seeds:
            raise UsageError("--seeds is empty")
        streams = {}       # derived_rng keys every stream on seed mod 2**32
        for seed in seeds:
            key = seed & 0xFFFFFFFF
            if key in streams:
                raise UsageError(f"--seeds {streams[key]} and {seed} select the same random "
                                 "streams: seeds equal modulo 2**32 train identical runs")
            streams[key] = seed
        return seeds
    return [args.seed if args.seed is not None else file_seed]


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise UsageError(f"--data must be a directory with train/val JSON-lines files: {data_dir}")
    train_path = _require_file(data_dir / "train.jsonl", "training corpus")
    val_path = data_dir / "val.jsonl"
    val_path = val_path if val_path.is_file() else None
    tax_path = _require_file(args.taxonomy or data_dir / "taxonomy.txt", "taxonomy")

    settings = _train_settings(args)
    seeds = _parse_seeds(args, settings.get("seed", DEFAULT_SEED))
    if args.checkpoint and len(seeds) > 1:
        raise UsageError("--checkpoint names a single file; it cannot be combined with --seeds")

    out_dir = Path(args.out)
    plans = []
    for seed in seeds:
        suffix = f"_seed{seed}" if len(seeds) > 1 else ""
        ckpt = Path(args.checkpoint) if args.checkpoint else out_dir / f"model{suffix}.ckpt"
        logp = out_dir / f"train_log{suffix}.jsonl"
        plans.append((seed, TrainConfig.from_dict({**settings, "seed": seed,
                                                   "checkpoint_path": str(ckpt),
                                                   "log_path": str(logp)})))

    inputs = {"train": train_path, "taxonomy": tax_path}
    if val_path:
        inputs["val"] = val_path
    if args.config:
        inputs["config_file"] = args.config
    outputs = {}
    for seed, config in plans:
        outputs[f"checkpoint_seed{seed}"] = config.checkpoint_path
        outputs[f"log_seed{seed}"] = config.log_path
    blas = _blas_setting()
    _write_manifest(out_dir, "train",
                    {"seeds": seeds, "runs": {str(s): c.to_dict() for s, c in plans}},
                    {name: _hashed(p) for name, p in inputs.items()}, outputs, blas)

    tax = load_taxonomy(tax_path)
    vocab, train_docs = load_training_corpus(train_path, tax)
    val_docs = load_corpus(val_path, vocab, tax) if val_path else []

    runs = []
    for seed, config in plans:
        Path(config.log_path).unlink(missing_ok=True)
        log.info("training seed %d (%d epochs, batch %d, lr %g)",
                 seed, config.epochs, config.batch_size, config.learning_rate)
        result = run_training(train_docs, val_docs, tax, vocab, config)
        final = result.records[-1] if result.records else {}
        runs.append({
            "seed": seed,
            "checkpoint": config.checkpoint_path,
            "log": config.log_path,
            "epochs": result.epochs_completed,
            "micro_f1": final.get("micro_f1"),
            "macro_f1": final.get("macro_f1"),
            "L": final.get("L"),
        })
        _table([(k, runs[-1][k]) for k in ("seed", "epochs", "micro_f1", "macro_f1", "L")],
               f"run complete (seed {seed})")

    summary = {"runs": runs, "seeds": seeds, "blas": blas}
    measured = [r for r in runs if r["micro_f1"] is not None]
    if measured:
        summary["mean_micro_f1"] = float(np.mean([r["micro_f1"] for r in measured]))
        summary["mean_macro_f1"] = float(np.mean([r["macro_f1"] for r in measured]))
        if len(measured) > 1:
            _table([("mean micro F1", f"{summary['mean_micro_f1']:.4f}"),
                    ("mean macro F1", f"{summary['mean_macro_f1']:.4f}")],
                   f"sweep over {len(measured)} seeds")
    print(_json(summary))
    return 0


# -- eval and predict ------------------------------------------------------------


def _load_for_inference(args, corpus: str):
    """Check the inputs, load the model, write the manifest, apply --threshold.
    The manifest names the checkpoint by the `header_sha256` of its one
    verified read: the header holds the body's digests."""
    if args.threshold is not None and not np.isfinite(args.threshold):
        raise UsageError(f"--threshold must be a finite number, got {args.threshold}")
    ckpt_path = _require_file(args.checkpoint, "checkpoint")
    data_path = _require_file(args.data, corpus)
    model = load_model(ckpt_path)
    _write_manifest(Path(args.out), args.command, {"threshold": args.threshold},
                    {"checkpoint": {"path": str(ckpt_path), "header_sha256": model.header_sha256},
                     "data": _hashed(data_path)}, {}, _blas_setting())
    if args.threshold is not None:
        model.head.threshold = args.threshold
    return model, data_path


def _batches(docs, model):
    """The model's inference batches of `docs`, each made when it is consumed,
    so that one batch of the input is held at a time."""
    docs = iter(docs)
    while chunk := list(itertools.islice(docs, model.config.batch_size)):
        yield from make_batches(chunk, model.config.batch_size, model.config.max_len, model.tax)


def cmd_eval(args) -> int:
    model, data_path = _load_for_inference(args, "evaluation corpus")
    read = itertools.count()        # zip draws from it once per document
    docs = (doc for doc, _ in zip(iter_corpus(data_path, model.vocab, model.tax), read))
    metrics = evaluate(_batches(docs, model), model)
    _table([("micro F1", f"{metrics['micro_f1']:.4f}"),
            ("macro F1", f"{metrics['macro_f1']:.4f}"),
            ("L_c", f"{metrics['L_c']:.6f}"),
            ("documents", next(read))], f"evaluation of {data_path}")
    print(_json(metrics))
    return 0


def cmd_predict(args) -> int:
    model, data_path = _load_for_inference(args, "input corpus")
    names = model.tax.target_names()
    # labels are optional here and ignored: every document gets an empty label set
    docs = (Document(tokens=model.vocab.encode(tokens), labels=frozenset())
            for _, tokens, _ in read_raw_corpus(data_path))
    # the bytes of json.dumps(record, sort_keys=True) per record, one write per
    # batch: the keys are sorted once here, and "labels" < "probs" already
    order = sorted(range(len(names)), key=names.__getitem__)
    sorted_names = [names[j] for j in order]
    encode = json.JSONEncoder(allow_nan=False).encode
    # records go out a batch at a time: a malformed line refuses the input
    # after the records of the batches before its own
    written = 0
    for _, preds in iter_predictions(_batches(docs, model), model):
        try:
            lines = "".join(
                encode({"labels": [name for name, d in zip(names, decisions) if d >= 1.0],
                        "probs": dict(zip(sorted_names, [probs[j] for j in order]))}) + "\n"
                for probs, decisions in zip(preds.probs.tolist(), preds.decisions.tolist()))
        except ValueError as err:
            raise NumericError(f"cannot write a prediction as JSON: {err}") from None
        sys.stdout.write(lines)
        written += len(preds.probs)
    log.info("predicted %d documents", written)
    return 0


# -- plumbing --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htcinfomax",
        description="Hierarchical multi-label text classification with "
                    "text-label mutual information maximization and label prior matching.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gendata", help="write a synthetic corpus and taxonomy")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--config", help="JSON file of generator settings")
    gen.add_argument("--seed", type=int)
    for f in fields(GeneratorConfig):     # --doc-len sets doc_len; float fields take floats
        gen.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                         type=float if f.type == "float" else int)
    gen.set_defaults(func=cmd_gendata)

    tr = sub.add_parser("train", help="train a model; flags select ablations")
    tr.add_argument("--data", required=True, help="directory with train.jsonl (and val.jsonl)")
    tr.add_argument("--taxonomy", help="taxonomy file (default: <data>/taxonomy.txt)")
    tr.add_argument("--config", help="JSON file of training settings")
    tr.add_argument("--out", default=".", help="directory for checkpoint, log, manifest")
    tr.add_argument("--checkpoint", help="explicit checkpoint path (single seed only)")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--seeds", help="comma-separated seeds for a sweep")
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--batch-size", type=int, dest="batch_size")
    tr.add_argument("--lr", type=float)
    tr.add_argument("--threshold", type=float)
    tr.add_argument("--disable-mi", action="store_true",
                    help="ablation: drop the text-label mutual information loss")
    tr.add_argument("--disable-label-prior", action="store_true",
                    help="ablation: drop the label prior matching loss")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a labeled corpus")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True, help="JSON-lines corpus file")
    ev.add_argument("--threshold", type=float)
    ev.add_argument("--out", default=".", help="directory for the run manifest")
    ev.set_defaults(func=cmd_eval)

    pr = sub.add_parser("predict", help="emit label predictions as JSON lines")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--data", required=True, help="JSON-lines corpus (labels optional)")
    pr.add_argument("--threshold", type=float)
    pr.add_argument("--out", default=".", help="directory for the run manifest")
    pr.set_defaults(func=cmd_predict)
    return parser


# Flags whose value may start with "-" (a seed list such as -1,5, or -inf).
# argparse reads such a value as an option unless it is a plain negative
# number, so `main` passes it on in the --flag=value form.
DASH_VALUE_FLAGS = ("--seeds", "--threshold")


def _join_dash_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in DASH_VALUE_FLAGS and arg.startswith("-")
                and not arg.startswith("--")):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except (UsageError, ConfigError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (DataError, TaxonomyError, CheckpointError, NumericError,
            ad.DimensionError, ad.DomainError, ad.ContractError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
