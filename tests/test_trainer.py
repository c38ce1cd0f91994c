"""Optimizer, registry, train step, evaluation, and checkpointing."""

import hashlib
import io
import json
import math
import re
import struct
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htcinfomax import autodiff as ad
from htcinfomax import cli, trainer
from htcinfomax.autodiff import Tensor
from htcinfomax.dataio import (ConfigError, DataError, Document, GeneratorConfig,
                               Vocabulary, build_vocab_from_file, file_sha256,
                               generate_synthetic, load_corpus, make_batches)
from htcinfomax.infomax import NumericError
from htcinfomax.predictor import macro_f1, micro_f1
from htcinfomax.taxonomy import load_taxonomy, parse_taxonomy
from htcinfomax.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_CHUNK,
    ADAM_EPS,
    Adam,
    CheckpointError,
    Model,
    ModelDims,
    ParamRegistry,
    TrainConfig,
    clip_gradients,
    derive_seed,
    evaluate,
    iter_predictions,
    load_model,
    param_shapes,
    restore_checkpoint,
    run_training,
    save_checkpoint,
    train_step,
)

TAX = parse_taxonomy("Root\ta\tb\na\ta1\ta2\nb\tb1\n")

VOCAB = Vocabulary({f"t{i}" if i > 1 else ("<pad>", "<unk>")[i]: i for i in range(10)})


def tiny_dims():
    return ModelDims(embed_dim=6, feature_dim=6, label_dim=6, mi_hidden=4,
                     mi_kernel=3, prior_hidden=(5, 3), text_kernels=(2, 3, 4))


def tiny_config(**kw):
    defaults = dict(epochs=2, batch_size=2, learning_rate=1e-2, seed=3,
                    max_len=8, dims=tiny_dims())
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_docs(n=8, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    leaves = {"a1": ["a", "a1"], "a2": ["a", "a2"], "b1": ["b", "b1"]}
    docs = []
    for i in range(n):
        names = list(leaves.values())[i % 3]
        labels = frozenset(TAX.id_of(x) for x in names)
        tokens = tuple(int(t) for t in rng.integers(2, 10, 5))
        docs.append(Document(tokens=tokens, labels=labels))
    return docs


# -- registry ----------------------------------------------------------------------


def test_registry_rejects_duplicate_names():
    reg = ParamRegistry()
    reg.register("m", {"w": Tensor(np.zeros(2), requires_grad=True)})
    with pytest.raises(ad.ContractError, match="m.w"):
        reg.register("m", {"w": Tensor(np.zeros(2), requires_grad=True)})


def test_registry_preserves_insertion_order():
    reg = ParamRegistry()
    reg.register("b", {"x": Tensor(np.zeros(1), requires_grad=True)})
    reg.register("a", {"y": Tensor(np.zeros(1), requires_grad=True)})
    assert reg.names() == ["b.x", "a.y"]


def test_model_registry_reflects_ablation_flags():
    full = Model(TAX, VOCAB, tiny_config())
    no_mi = Model(TAX, VOCAB, tiny_config(disable_mi=True))
    no_pr = Model(TAX, VOCAB, tiny_config(disable_label_prior=True))
    base = Model(TAX, VOCAB, tiny_config(disable_mi=True, disable_label_prior=True))

    groups = lambda m: {n.split(".")[0] for n in m.registry.names()}
    assert groups(full) == {"text", "structure", "head", "mi", "prior", "gate"}
    assert groups(no_mi) == {"text", "structure", "head", "prior"}
    assert groups(no_pr) == {"text", "structure", "head", "mi"}
    assert groups(base) == {"text", "structure", "head"}


# -- optimizer ---------------------------------------------------------------------


def give_grad(reg, p, g):
    """Give `p` the gradient `g` where backward writes it: its arena block."""
    reg.layout()
    np.copyto(p.grad_view, g)
    p.grad = p.grad_view


def test_adam_first_step_magnitude():
    p = Tensor(np.array([1.0]), requires_grad=True)
    reg = ParamRegistry()
    reg.register("only", {"p": p})
    opt = Adam(reg, lr=1e-3)
    give_grad(reg, p, [1.0])
    opt.step()
    # t=1: m_hat=g, v_hat=g^2 -> step = lr * g/(|g| + eps)
    assert p.data[0] == pytest.approx(1.0 - 1e-3, abs=1e-9)
    assert p.grad is None


def test_adam_matches_reference_updates_over_many_steps():
    rng = np.random.default_rng(1)
    p = Tensor(rng.standard_normal(5), requires_grad=True)
    shadow = p.data.copy()
    reg = ParamRegistry()
    reg.register("w", {"v": p})
    lr, b1, b2, eps = 1e-2, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    opt = Adam(reg, lr=lr)

    m = np.zeros(5)
    v = np.zeros(5)
    for t in range(1, 25):
        g = rng.standard_normal(5)
        give_grad(reg, p, g)
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        shadow -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert np.allclose(p.data, shadow, atol=1e-15)


def test_adam_matches_textbook_formula_over_many_steps():
    # each step starts from zero parameters, so the data after it is minus
    # the update itself; the last column's gradients are tiny, so eps
    # dominates its denominator at every step, t=1 included
    rng = np.random.default_rng(2)
    p = Tensor(np.zeros((3, 4)), requires_grad=True)
    reg = ParamRegistry()
    reg.register("w", {"v": p})
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)     # Kingma & Ba's defaults
    lr, b1, b2, eps = 3e-3, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    opt = Adam(reg, lr=lr)
    m = np.zeros((3, 4))
    v = np.zeros((3, 4))
    for t in range(1, 241):
        g = rng.standard_normal((3, 4)) * rng.choice([1e-3, 1.0, 50.0])
        g[:, -1] = rng.standard_normal(3) * 1e-13
        p.data[...] = 0.0
        give_grad(reg, p, g)
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        update = lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert np.sqrt(v[:, -1] / (1 - b2 ** t)).max() < eps / 1000
        assert -p.data == pytest.approx(update, rel=1e-12, abs=0)


def test_adam_requires_gradients():
    reg = ParamRegistry()
    reg.register("w", {"v": Tensor(np.zeros(2), requires_grad=True)})
    opt = Adam(reg, lr=1e-3)
    with pytest.raises(ad.ContractError, match="w.v"):
        opt.step()


def test_adam_missing_gradient_moves_no_parameter():
    first = Tensor(np.ones(2), requires_grad=True)
    reg = ParamRegistry()
    reg.register("w", {"first": first, "second": Tensor(np.ones(3), requires_grad=True)})
    opt = Adam(reg, lr=1e-3)
    give_grad(reg, first, np.ones(2))
    with pytest.raises(ad.ContractError, match="w.second"):
        opt.step()
    assert np.array_equal(first.data, np.ones(2))
    assert opt.t == 0 and not opt.m.any()


def test_clip_gradients_scales_to_max_norm():
    reg = ParamRegistry()
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    reg.register("g", {"a": a, "b": b})
    give_grad(reg, a, np.full(3, 3.0))
    give_grad(reg, b, np.full(4, 4.0))
    norm = clip_gradients(reg, 5.0)
    assert norm == pytest.approx(np.sqrt(27 + 64))
    total = np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum())
    assert total == pytest.approx(5.0)


def test_clip_gradients_leaves_small_norms_alone():
    reg = ParamRegistry()
    a = Tensor(np.zeros(2), requires_grad=True)
    reg.register("g", {"a": a})
    give_grad(reg, a, [0.3, 0.4])
    norm = clip_gradients(reg, 5.0)
    assert norm == pytest.approx(0.5)
    assert np.allclose(a.grad, [0.3, 0.4])


def test_clip_norm_is_the_per_parameter_sum():
    rng = np.random.default_rng(3)
    reg = ParamRegistry()
    params = {name: Tensor(np.zeros(shape), requires_grad=True)
              for name, shape in (("a", (3, 5)), ("b", (7,)), ("c", (2, 2, 3)))}
    reg.register("g", params)
    for name, p in params.items():
        give_grad(reg, p, rng.standard_normal(p.shape))
    expected = np.sqrt(sum(float(p.grad.reshape(-1) @ p.grad.reshape(-1))
                           for p in params.values()))
    assert clip_gradients(reg, 0.0) == pytest.approx(expected, rel=1e-12)


# -- config ------------------------------------------------------------------------


def test_train_config_round_trips_through_dict():
    config = tiny_config(disable_mi=True, learning_rate=0.5)
    again = TrainConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert again == config


def test_train_config_validation():
    with pytest.raises(ConfigError, match="batch_size"):
        tiny_config(batch_size=1)
    tiny_config(batch_size=1, disable_mi=True)
    with pytest.raises(ConfigError, match="learning_rate"):
        tiny_config(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(dims=ModelDims(feature_dim=6, label_dim=8))
    with pytest.raises(ConfigError, match="text kernels"):
        TrainConfig(dims=ModelDims(text_kernels=()))
    with pytest.raises(ConfigError, match="prior_hidden"):
        TrainConfig(dims=ModelDims(prior_hidden=(8,)))


@pytest.mark.parametrize("make,key", [
    (lambda: TrainConfig(clip_norm=-1.0), "train.clip_norm"),
    (lambda: TrainConfig(epochs=-1), "train.epochs"),
    (lambda: TrainConfig(seed="7"), "train.seed"),
    (lambda: TrainConfig(dims=5), "train.dims"),
    (lambda: ModelDims(feature_dim=6, label_dim=8), "feature_dim == label_dim"),
    (lambda: GeneratorConfig(depth=0), "gendata.depth"),
    (lambda: TrainConfig(batch_size=0), "train.batch_size"),
    (lambda: TrainConfig(max_len=0), "train.max_len"),
    (lambda: ModelDims(feature_dim=7, label_dim=7), "divide evenly"),
    # a repeated width would name two kernels alike, and the registry would keep only one
    (lambda: ModelDims(text_kernels=(3, 3)), "text_kernels must be distinct"),
], ids=["clip_norm", "epochs", "seed", "dims", "feature_dim", "depth", "batch_size", "max_len",
        "kernel_split", "kernel_repeated"])
def test_settings_check_themselves_when_made(make, key):
    with pytest.raises(ConfigError, match=key):
        make()


@pytest.mark.parametrize("dims,message", [
    (5, "JSON object"),
    ({"text_kernels": 3}, "text_kernels"),
    ({"embed_dim": "wide"}, "embed_dim"),
    ({"embed_dim": 6, "hidden_width": 4}, "unknown dims keys"),
    ({"mi_kernel": 0}, "mi_kernel"),
    ({"prior_hidden": [8, -1]}, "prior_hidden"),
])
def test_train_config_from_dict_rejects_malformed_dims(dims, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig.from_dict({"dims": dims})


def test_train_config_from_dict_fills_missing_dims_from_defaults():
    config = TrainConfig.from_dict({"dims": {"embed_dim": 6, "prior_hidden": [5, 3]}})
    assert config.dims == ModelDims(embed_dim=6, prior_hidden=(5, 3))


# -- training step -----------------------------------------------------------------


def test_train_step_populates_every_gradient_and_keeps_identity():
    model = Model(TAX, VOCAB, tiny_config())
    (batch,) = make_batches(tiny_docs(2), 2, 8, TAX)

    total, bundle = model.losses(batch, prior_seed=0)
    ad.backward(total)
    for name, p in model.registry.items():
        assert p.grad is not None, f"no gradient for {name}"

    recomposed = bundle.l_c + bundle.f_weight * bundle.l_mi + (1 - bundle.f_weight) * bundle.l_pr
    assert abs(bundle.total - recomposed) <= 1e-12
    assert 0.0 < bundle.f_weight < 1.0


def test_parameter_gradients_are_owned_c_contiguous_buffers():
    # clip_gradients scales every grad in place, so no two may share memory
    model = Model(TAX, VOCAB, tiny_config())
    (batch,) = make_batches(tiny_docs(2), 2, 8, TAX)
    total, _ = model.losses(batch, prior_seed=0)
    ad.backward(total)
    grads = [(name, p.grad) for name, p in model.registry.items()]
    for name, grad in grads:
        assert grad.shape == model.registry[name].shape, name
        assert grad.flags.c_contiguous, name
    for i, (name, grad) in enumerate(grads):
        for other, later in grads[i + 1:]:
            assert not np.shares_memory(grad, later), (name, other)


@pytest.mark.parametrize("flags", [{}, {"disable_mi": True}, {"disable_label_prior": True},
                                   {"disable_mi": True, "disable_label_prior": True}])
def test_backward_writes_every_parameter_gradient_into_its_arena_view(flags):
    model = Model(TAX, VOCAB, tiny_config(**flags))
    registry = model.registry
    (batch,) = make_batches(tiny_docs(2), 2, 8, TAX)
    total, _ = model.losses(batch, prior_seed=0)
    ad.backward(total)
    params = list(registry.items())
    for (name, p), data, grad in zip(params, registry.views(registry.data),
                                     registry.views(registry.grad)):
        assert p.grad is p.grad_view and p.grad.shape == p.shape, name
        assert np.shares_memory(p.grad, registry.grad) and np.shares_memory(grad, p.grad), name
        assert np.shares_memory(p.data, registry.data) and np.shares_memory(data, p.data), name
        assert p.grad.ctypes.data % 64 == 0 and p.data.ctypes.data % 64 == 0, name
    for i, (name, p) in enumerate(params):
        for other, q in params[i + 1:]:
            assert not np.shares_memory(p.grad, q.grad), (name, other)
    # the embedding scatter writes into the arena too (outside it, the table froze)
    assert np.any(registry.views(registry.grad)[registry.names().index("text.embedding")])


@pytest.mark.parametrize("flags,nodes", [
    ({}, 111), ({"disable_mi": True}, 58), ({"disable_label_prior": True}, 74),
    ({"disable_mi": True, "disable_label_prior": True}, 38)])
def test_tape_nodes_per_step_are_pinned(flags, nodes):
    # one prior-discriminator pass over real and fake rows, one gate product
    model = Model(TAX, VOCAB, tiny_config(**flags))
    (batch,) = make_batches(tiny_docs(2), 2, 8, TAX)
    total, _ = model.losses(batch, prior_seed=0)
    assert len(ad.topo_order(total)) == nodes


def test_registry_layout_is_final_and_exclusive():
    shared = Tensor(np.arange(3.0), requires_grad=True)
    reg = ParamRegistry()
    reg.register("a", {"w": shared})
    reg.layout()
    assert np.array_equal(shared.data, np.arange(3.0)) and np.shares_memory(shared.data, reg.data)
    with pytest.raises(ad.ContractError, match="after the arena"):
        reg.register("b", {"w": Tensor(np.zeros(2), requires_grad=True)})
    other = ParamRegistry()
    other.register("b", {"w": shared})
    with pytest.raises(ad.ContractError, match="b.w"):
        Adam(other, 1e-3)


@pytest.mark.parametrize("update", ["clip", "adam"])
@pytest.mark.parametrize("gradient", ["assigned", "missing"])
def test_gradient_outside_its_arena_block_is_refused(update, gradient):
    model = Model(TAX, VOCAB, tiny_config())
    opt = Adam(model.registry, 1e-2)
    batches = make_batches(tiny_docs(4), 2, 8, TAX)
    train_step(batches[0], model, opt, global_step=0)      # so the moments are not zero
    total, _ = model.losses(batches[1], prior_seed=1)
    model.registry.zero_grad()
    ad.backward(total)
    head = model.registry["head.weight"]
    # an array a caller assigned directly (a fresh one, outside the arena), or none at all
    head.grad = head.grad * 1.0 if gradient == "assigned" else None
    state = lambda: [a.copy() for a in (model.registry.data, model.registry.grad, opt.m, opt.v)]
    before = state()
    with pytest.raises(ad.ContractError, match="missing gradient for parameter 'head.weight'"):
        if update == "clip":
            clip_gradients(model.registry, 0.1)
        else:
            opt.step()
    assert opt.t == 1
    assert all(np.array_equal(a, b) for a, b in zip(before, state()))


@pytest.mark.parametrize("poison,message", [
    (np.nan, "gradient of parameter 'head.weight' is not finite"),
    # numpy's overflow warning must not escape ahead of the NumericError
    pytest.param(1e200, "overflowed .* every gradient is finite",
                 marks=pytest.mark.filterwarnings("error")),
])
def test_non_finite_gradients_are_refused_before_anything_moves(poison, message):
    model = Model(TAX, VOCAB, tiny_config())
    opt = Adam(model.registry, 1e-2)
    batches = make_batches(tiny_docs(4), 2, 8, TAX)
    train_step(batches[0], model, opt, global_step=0)
    total, _ = model.losses(batches[1], prior_seed=1)
    model.registry.zero_grad()
    ad.backward(total)
    head = model.registry["head.weight"].grad
    if np.isnan(poison):
        head[0, 0] = poison
    else:
        head[...] = poison
    state = lambda: [a.copy() for a in (model.registry.data, opt.m, opt.v)]
    before = state()
    with pytest.raises(NumericError, match=message):
        clip_gradients(model.registry, model.config.clip_norm)
        opt.step()
    assert opt.t == 1
    assert all(np.array_equal(a, b) for a, b in zip(before, state()))


def test_clipping_and_adam_allocate_no_more_than_the_chunk_buffers():
    # numpy reports its buffers to tracemalloc; the gate-7 shape with a
    # wider embedding has more than 250K parameters
    dims = ModelDims(embed_dim=120, feature_dim=60, label_dim=60, mi_hidden=48,
                     prior_hidden=(96, 48))
    vocab = Vocabulary({f"t{i}" if i > 1 else ("<pad>", "<unk>")[i]: i for i in range(2000)})
    model = Model(TAX, vocab, tiny_config(dims=dims))
    assert model.registry.data.size >= 250_000
    opt = Adam(model.registry, 1e-3)
    docs = [Document(tokens=tuple(range(2 + 5 * i, 7 + 5 * i)), labels=d.labels)
            for i, d in enumerate(tiny_docs(4))]
    bound = 2 * 8 * ADAM_CHUNK + 64 * 1024
    for step, batch in enumerate(make_batches(docs, 2, 8, TAX)):
        total, _ = model.losses(batch, prior_seed=step)
        model.registry.zero_grad()
        ad.backward(total)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            clip_gradients(model.registry, model.config.clip_norm)
            opt.step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound, (step, peak)


PINNED_TRAJECTORIES = {
    "full": "083a9500b28307af",
    "disable_mi": "dc113f26b7fd74d4",
    "disable_label_prior": "f1cf832bb76ea6c2",
    "base": "6cc2e29bafbe6adc",
}


@pytest.mark.parametrize("setting", sorted(PINNED_TRAJECTORIES))
def test_fixed_seed_trajectory_is_pinned(setting, tmp_path):
    """SHA-256 over every parameter's name and bytes after three epochs;
    the same with one BLAS thread and with the default thread count."""
    generate_synthetic(GeneratorConfig(depth=2, branching=3, docs_per_label=12, doc_len=14),
                       5, tmp_path)
    tax = load_taxonomy(tmp_path / "taxonomy.txt")
    vocab = build_vocab_from_file(tmp_path / "train.jsonl")
    train = load_corpus(tmp_path / "train.jsonl", vocab, tax)
    flags = {"full": {}, "base": {"disable_mi": True, "disable_label_prior": True}}.get(
        setting, {setting: True})
    config = TrainConfig(epochs=3, batch_size=8, max_len=10, seed=11, **flags,
                         dims=ModelDims(embed_dim=12, feature_dim=12, label_dim=12,
                                        mi_hidden=16, prior_hidden=(20, 8)))
    model = run_training(train, [], tax, vocab, config).model
    digest = hashlib.sha256()
    for name, p in model.registry.items():
        digest.update(name.encode("utf-8"))
        digest.update(p.data.tobytes())
    assert digest.hexdigest()[:16] == PINNED_TRAJECTORIES[setting]


def test_train_step_updates_parameters():
    model = Model(TAX, VOCAB, tiny_config())
    opt = Adam(model.registry, 1e-2)
    (batch,) = make_batches(tiny_docs(2), 2, 8, TAX)
    before = {n: p.data.copy() for n, p in model.registry.items()}
    bundle = train_step(batch, model, opt, global_step=0)
    assert np.isfinite(bundle.total)
    changed = [n for n, p in model.registry.items() if not np.array_equal(before[n], p.data)]
    assert len(changed) == len(before)


def test_ablated_bundles_report_convention_weights():
    (batch,) = make_batches(tiny_docs(2), 2, 8, TAX)

    no_mi = Model(TAX, VOCAB, tiny_config(disable_mi=True))
    _, bundle = no_mi.losses(batch, prior_seed=0)
    assert bundle.f_weight == 0.0 and bundle.l_mi == 0.0
    assert bundle.total == pytest.approx(bundle.l_c + bundle.l_pr)

    no_pr = Model(TAX, VOCAB, tiny_config(disable_label_prior=True))
    _, bundle = no_pr.losses(batch, prior_seed=0)
    assert bundle.f_weight == 1.0 and bundle.l_pr == 0.0
    assert bundle.total == pytest.approx(bundle.l_c + bundle.l_mi)

    base = Model(TAX, VOCAB, tiny_config(disable_mi=True, disable_label_prior=True))
    _, bundle = base.losses(batch, prior_seed=0)
    assert bundle.total == bundle.l_c


# -- evaluation --------------------------------------------------------------------


def test_evaluate_requires_data():
    model = Model(TAX, VOCAB, tiny_config())
    with pytest.raises(DataError):
        evaluate([], model)
    with pytest.raises(DataError):
        evaluate(iter([]), model)


def test_evaluate_is_pure_and_deterministic():
    model = Model(TAX, VOCAB, tiny_config())
    batches = make_batches(tiny_docs(6), 2, 8, TAX)
    before = {n: p.data.copy() for n, p in model.registry.items()}
    first = evaluate(batches, model)
    second = evaluate(iter(batches), model)     # one pass over a lazy input
    assert first == second
    for n, p in model.registry.items():
        assert np.array_equal(before[n], p.data)
    assert set(first) == {"micro_f1", "macro_f1", "L_c"}
    # the counts summed over three batches give the F1s of the whole arrays exactly
    decisions = np.concatenate([preds.decisions for _, preds in iter_predictions(batches, model)])
    targets = np.concatenate([b.targets for b in batches])
    assert first["micro_f1"] == micro_f1(decisions, targets)
    assert first["macro_f1"] == macro_f1(decisions, targets)


def test_evaluate_computes_label_representations_once(monkeypatch):
    model = Model(TAX, VOCAB, tiny_config())
    batches = make_batches(tiny_docs(6), 2, 8, TAX)
    calls = []
    encoder_call = type(model.structure_encoder).__call__

    def counted(self):
        calls.append(1)
        return encoder_call(self)

    monkeypatch.setattr(type(model.structure_encoder), "__call__", counted)
    evaluate(batches, model)
    assert len(calls) == 1
    # passing them in is the same computation as making them per batch
    with ad.no_grad():
        lr = model.structure_encoder()
        responses = model.text_encoder.responses()
        for batch in batches:
            assert np.array_equal(model.forward(batch, lr, responses)[2].logits.data,
                                  model.forward(batch, None, responses)[2].logits.data)


def test_inference_projects_the_vocabulary_once_per_call(monkeypatch):
    model = Model(TAX, VOCAB, tiny_config())
    docs = tiny_docs(5) + [Document(tokens=(3, 4), labels=tiny_docs(1)[0].labels)]
    batches = make_batches(docs, 2, 8, TAX)
    calls = []
    responses = type(model.text_encoder).responses
    monkeypatch.setattr(type(model.text_encoder), "responses",
                        lambda self: calls.append(1) or responses(self))
    evaluate(batches, model)
    assert len(calls) == 1
    # Model.predict builds the same vocabulary table, so a batch alone gives
    # exactly the predictions the shared one does
    for batch, preds in iter_predictions(batches, model):
        alone = model.predict(batch)
        assert np.array_equal(preds.probs, alone.probs)
        assert not preds.logits.requires_grad
    assert len(calls) == 2 + len(batches)
    # projecting only the batch's tokens, as training does, is the same map
    for batch, preds in iter_predictions(batches, model):
        with ad.no_grad():
            per_batch = model.forward(batch)[2]
        np.testing.assert_allclose(per_batch.probs, preds.probs, rtol=1e-12, atol=0)


def test_iter_predictions_records_no_graph_and_restores_recording():
    model = Model(TAX, VOCAB, tiny_config())
    predictions = iter_predictions(make_batches(tiny_docs(4), 2, 8, TAX), model)
    _, preds = next(predictions)
    assert not preds.logits.requires_grad
    # between batches, and after the caller stops early, graphs record as usual
    total, _ = model.losses(make_batches(tiny_docs(2), 2, 8, TAX)[0], prior_seed=0)
    assert total.requires_grad


def test_inference_computes_no_training_only_value(monkeypatch):
    # the pooled text vector feeds only the loss-weight gate, and sigmoid(x)
    # only the backward of softplus and logsigmoid: inference computes neither
    model = Model(TAX, VOCAB, tiny_config())
    batches = make_batches(tiny_docs(6), 2, 8, TAX)
    calls = []

    def counted(name):
        real = getattr(ad, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("masked_mean", "_sigmoid_np"):
        monkeypatch.setattr(ad, name, counted(name))
    evaluate(batches, model)
    for _ in iter_predictions(batches, model):
        pass
    assert calls == []
    # a full-objective step pools once, for the gate, and its backward
    # computes the derivatives (a sigmoid op computes its value forward)
    total, _ = model.losses(batches[0], prior_seed=0)
    assert [node.op for node in ad.topo_order(total)].count("masked_mean") == 1
    assert calls.count("masked_mean") == 1
    forward = calls.count("_sigmoid_np")
    ad.backward(total)
    assert calls.count("_sigmoid_np") > forward


@pytest.mark.parametrize("flags", [{}, {"disable_mi": True}, {"disable_label_prior": True},
                                   {"disable_mi": True, "disable_label_prior": True}])
@pytest.mark.parametrize("kernels", [(2, 3, 4), (1, 5), (3,)])
def test_param_shapes_match_the_registry(flags, kernels):
    dims = ModelDims(embed_dim=7, feature_dim=6, label_dim=6, mi_hidden=4, mi_kernel=2,
                     prior_hidden=(5, 3), text_kernels=kernels)
    config = tiny_config(dims=dims, **flags)
    model = Model(TAX, VOCAB, config)
    # in order too: the body is written and read in registry order
    assert list(param_shapes(config, len(VOCAB), TAX).items()) == \
        [(n, p.shape) for n, p in model.registry.items()]


# -- checkpointing -----------------------------------------------------------------


def save_fresh(path, model=None):
    """Checkpoint `model` (the tiny full model by default) with a fresh optimizer."""
    model = model or Model(TAX, VOCAB, tiny_config())
    save_checkpoint(path, model, Adam(model.registry, 1e-2))


def both_readers(model):
    """`load_model`, and `restore_checkpoint` into `model` with a fresh optimizer."""
    return load_model, lambda path: restore_checkpoint(path, model, Adam(model.registry, 1e-2))


def test_checkpoint_round_trip_is_byte_identical(tmp_path):
    model = Model(TAX, VOCAB, tiny_config())
    opt = Adam(model.registry, 1e-2)
    (batch,) = make_batches(tiny_docs(2), 2, 8, TAX)
    train_step(batch, model, opt, global_step=0)

    p1 = tmp_path / "one.ckpt"
    p2 = tmp_path / "two.ckpt"
    save_checkpoint(p1, model, opt, epochs_completed=1, global_step=1)

    model2 = Model(TAX, VOCAB, tiny_config())
    opt2 = Adam(model2.registry, 1e-2)
    epochs, step = restore_checkpoint(p1, model2, opt2)
    assert (epochs, step) == (1, 1)
    save_checkpoint(p2, model2, opt2, epochs_completed=1, global_step=1)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_restores_values_and_adam_state(tmp_path):
    model = Model(TAX, VOCAB, tiny_config())
    opt = Adam(model.registry, 1e-2)
    batches = make_batches(tiny_docs(4), 2, 8, TAX)
    path = tmp_path / "m.ckpt"
    for i, b in enumerate(batches):
        train_step(b, model, opt, global_step=i)
        # a restore takes Adam's t from global_step, so the two must agree
        with pytest.raises(ad.ContractError, match=f"global_step {i} is not the optimizer's "
                                                   f"step count {i + 1}"):
            save_checkpoint(path, model, opt, global_step=i)
        assert not path.exists()
    save_checkpoint(path, model, opt, epochs_completed=1, global_step=2)

    fresh = Model(TAX, VOCAB, tiny_config())
    fresh_opt = Adam(fresh.registry, 1e-2)
    restore_checkpoint(path, fresh, fresh_opt)
    for name, p in model.registry.items():
        assert np.array_equal(p.data, fresh.registry[name].data)
    assert np.array_equal(opt.m, fresh_opt.m) and np.array_equal(opt.v, fresh_opt.v)
    assert opt.m.any() and opt.v.any()
    assert fresh_opt.t == opt.t == 2


# name: (taxonomy text, its labels in id order)
ROUND_TRIP_TAXONOMIES = {
    "sample": ("Root\tscience\tsports\nscience\tphysics\tbiology\nsports\tsoccer\n",
               ["Root", "science", "sports", "physics", "biology", "soccer"]),
    # b's children are listed before a's, so they take the lower ids
    "later-branch-first": ("Root\ta\tb\nb\tb1\tb2\na\ta1\ta2\n",
                           ["Root", "a", "b", "b1", "b2", "a1", "a2"]),
    # c's line under b comes first, so b is c's first parent although a has the lower id
    "dag": ("Root\ta\tb\nb\tc\na\tc\tx\n", ["Root", "a", "b", "c", "x"]),
    "unicode-line-break": ("Root\ta\x85b\tc\na\x85b\td\n", ["Root", "a\x85b", "c", "d"]),
}


@pytest.mark.parametrize("text,labels", ROUND_TRIP_TAXONOMIES.values(),
                         ids=ROUND_TRIP_TAXONOMIES.keys())
def test_checkpoint_gives_every_label_its_id_back(tmp_path, text, labels):
    # the header keeps the taxonomy's own text, so the reader parses what training parsed
    tax = parse_taxonomy(text)
    assert tax.labels == labels
    model = Model(tax, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_fresh(path, model)
    again = load_model(path).tax
    assert again.text == text
    assert again.labels == tax.labels
    # order included: each node's children and parents, and the nodes themselves
    assert list(again.children.items()) == list(tax.children.items())
    assert list(again.parents.items()) == list(tax.parents.items())
    # restore_checkpoint, which refuses a taxonomy unlike the model's, accepts it
    assert restore_checkpoint(path, model, Adam(model.registry, 1e-2)) == (0, 0)


def test_load_model_rebuilds_from_header_alone(tmp_path):
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_fresh(path, model)
    again = load_model(path)
    assert again.config == model.config
    assert again.tax.labels == model.tax.labels
    assert again.vocab.token_to_id == model.vocab.token_to_id
    for name, p in model.registry.items():
        assert np.array_equal(p.data, again.registry[name].data)


def test_checkpoint_bytes_do_not_depend_on_where_the_run_writes(tmp_path):
    blobs = []
    for name in ("x", "yy"):
        config = tiny_config(checkpoint_path=str(tmp_path / f"{name}.ckpt"),
                             log_path=str(tmp_path / f"{name}.jsonl"))
        run_training(tiny_docs(6), [], TAX, VOCAB, config)
        blobs.append((tmp_path / f"{name}.ckpt").read_bytes())
    assert blobs[0] == blobs[1]
    config = load_model(tmp_path / "x.ckpt").config      # the run manifest records the paths
    assert config.checkpoint_path is None and config.log_path is None


def test_a_failed_checkpoint_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    # the checkpoint is written beside itself and swapped in whole: a write
    # that fails part-way leaves the old bytes and no temporary file
    path = tmp_path / "m.ckpt"
    save_fresh(path)
    before = path.read_bytes()

    class FailsInTheBody:
        """A file whose fourth write (the first parameter block) fails."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 4:
                raise OSError("disk full")
            return self.fh.write(data)

    monkeypatch.setattr(trainer, "open", lambda *args: FailsInTheBody(open(*args)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_fresh(path, Model(TAX, VOCAB, tiny_config(seed=4)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    model = Model(TAX, VOCAB, tiny_config())
    for read in both_readers(model):
        with pytest.raises(CheckpointError, match="magic"):
            read(path)


def test_checkpoint_truncation_rejected(tmp_path):
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_fresh(path, model)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 64])
    for read in both_readers(model):
        with pytest.raises(CheckpointError, match="truncated"):
            read(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_fresh(path, model)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    for read in both_readers(model):
        with pytest.raises(CheckpointError, match="8 trailing bytes"):
            read(path)


def test_checkpoint_format_is_pinned(tmp_path):
    """One elementwise Adam step on constant gradients: the bytes depend on no BLAS."""
    model = Model(TAX, VOCAB, tiny_config())
    opt = Adam(model.registry, 1e-2)
    for _, p in model.registry.items():
        give_grad(model.registry, p, 0.25)
    opt.step()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, opt, epochs_completed=1, global_step=1)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "939a2a5a0a91dd1dc990de1cb15dc504468c57e6af1b684b4242e39faad0aa04"


class CheckpointFile(io.BufferedReader):
    """A checkpoint file as `load_model` and `restore_checkpoint` open it, recording each open
    in `opens`, the bytes its reads return in `bytes_read` and its seeks in `seeks`.  `short`
    returns half of each block read, as if the file shrank after its size
    was taken."""

    def __init__(self, path, mode, opens: list, short: bool = False):
        super().__init__(io.FileIO(path, mode))
        opens.append(self)
        self.bytes_read = 0
        self.seeks = 0
        self.short = short

    def seek(self, *args):
        self.seeks += 1
        return super().seek(*args)

    def read(self, size=-1):
        data = super().read(size)
        self.bytes_read += len(data)
        return data

    def readinto(self, buffer):
        view = memoryview(buffer).cast("B")
        count = super().readinto(view[:len(view) // 2] if self.short else view)
        self.bytes_read += count
        return count


def watch_checkpoint_opens(monkeypatch, short=False) -> list:
    opens = []
    monkeypatch.setattr(trainer, "open", lambda path, mode: CheckpointFile(path, mode, opens, short),
                        raising=False)
    return opens


def test_checkpoint_is_read_once_into_the_arena(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    model, opt = trained_checkpoint(path)
    (header_length,) = struct.unpack("<Q", path.read_bytes()[8:16])
    param_bytes = sum(8 * p.data.size for _, p in model.registry.items())
    opens = watch_checkpoint_opens(monkeypatch)
    again = load_model(path)
    # one open, and only the header and the values section, a prefix of the
    # body, are read: the reader stops before the moments and never seeks
    assert [(f.bytes_read, f.seeks) for f in opens] == [(16 + header_length + param_bytes, 0)]
    assert again.registry.data.tobytes() == model.registry.data.tobytes()
    fresh = Model(TAX, VOCAB, tiny_config(seed=4))
    fresh_opt = Adam(fresh.registry, 1e-2)
    arenas = [fresh.registry.data, fresh_opt.m, fresh_opt.v]
    restore_checkpoint(path, fresh, fresh_opt)
    assert [f.bytes_read for f in opens[1:]] == [path.stat().st_size]
    # the values and both moments land in the arrays training updates, bit for bit
    assert all(a is b for a, b in zip((fresh.registry.data, fresh_opt.m, fresh_opt.v), arenas))
    for live, saved in zip(arenas, (model.registry.data, opt.m, opt.v)):
        assert live.tobytes() == saved.tobytes() and saved.any()
    for name, p in fresh.registry.items():
        assert np.shares_memory(p.data, fresh.registry.data), name


def test_checkpoint_body_short_after_the_size_check_rejected(tmp_path, monkeypatch):
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, Adam(model.registry, 1e-2))
    watch_checkpoint_opens(monkeypatch, short=True)
    first = model.registry.names()[0]
    for read in both_readers(model):
        with pytest.raises(CheckpointError, match=f"truncated: the body ended inside parameter '{first}'"):
            read(path)


def tiny_corpus(tmp_path):
    """A corpus file of five labeled documents in TAX and VOCAB."""
    corpus = tmp_path / "docs.jsonl"
    corpus.write_text("".join(json.dumps({"token": [f"t{i}", f"t{i + 1}"], "label": ["a", "a1"]})
                              + "\n" for i in range(2, 7)), encoding="utf-8")
    return corpus


def run_cli(argv, capsys) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_inference_reads_the_checkpoint_once_and_names_it_by_its_header(
        tmp_path, monkeypatch, capsys, command):
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_fresh(path, model)
    corpus = tiny_corpus(tmp_path)
    hashed = []
    monkeypatch.setattr(cli, "file_sha256", lambda p: hashed.append(Path(p)) or file_sha256(p))
    opens = watch_checkpoint_opens(monkeypatch)
    assert run_cli([command, "--checkpoint", str(path), "--data", str(corpus),
                    "--out", str(tmp_path / "out")], capsys)[0] == 0
    blob = path.read_bytes()
    (header_length,) = struct.unpack("<Q", blob[8:16])
    param_bytes = sum(8 * p.data.size for _, p in model.registry.items())
    # one open and one pass over the header and the parameter values; no
    # second whole-file hash of the checkpoint, whose header names it
    assert [f.bytes_read for f in opens] == [16 + header_length + param_bytes]
    assert hashed == [corpus]
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"] == {
        "checkpoint": {"path": str(path),
                       "header_sha256": hashlib.sha256(blob[:16 + header_length]).hexdigest()},
        "data": {"path": str(corpus), "sha256": file_sha256(corpus)}}


def body_blocks(blob) -> dict:
    """(parameter name, kind) -> the byte range of that block of a checkpoint,
    in body order, from the layout its header's config implies; kind 0 is
    the values section, 1 Adam's m and 2 Adam's v, each in registry order."""
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + length])
    layout = param_shapes(TrainConfig.from_dict(header["config"]), len(header["vocab"]),
                          parse_taxonomy(header["taxonomy"]))
    blocks, offset = {}, 16 + length
    for kind in range(3):
        for name, shape in layout.items():
            size = 8 * math.prod(shape)
            blocks[name, kind] = slice(offset, offset + size)
            offset += size
    return blocks


def edit_body(path, name, kind, edit, redigest=False):
    """Apply `edit` to the bytes of one body block in place; `redigest` then
    rewrites the header's body digests to match the edited body."""
    blob = bytearray(path.read_bytes())
    blocks = body_blocks(blob)
    edit(memoryview(blob)[blocks[name, kind]])
    path.write_bytes(blob)
    if redigest:
        digests = {"values": hashlib.sha256(), "moments": hashlib.sha256()}
        for (_, block_kind), block in blocks.items():
            digests["values" if block_kind == 0 else "moments"].update(blob[block])

        def edit_header(header):
            parsed = json.loads(header)
            parsed["body_sha256"] = {k: d.hexdigest() for k, d in digests.items()}
            return json.dumps(parsed).encode("utf-8")

        _rewrite_header(path, edit_header)


def flip_lowest_bit(block):
    block[0] ^= 1       # the lowest mantissa bit of the first number: it stays finite


def test_checkpoint_with_a_flipped_value_bit_fails_its_digest(tmp_path):
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_fresh(path, model)
    edit_body(path, "head.bias", 0, flip_lowest_bit)
    for read in both_readers(model):
        with pytest.raises(CheckpointError, match="digest of its values blocks does not match"):
            read(path)


def test_checkpoint_with_a_flipped_moment_bit_is_refused_only_where_moments_are_read(
        tmp_path, capsys):
    model = Model(TAX, VOCAB, tiny_config())
    opt = Adam(model.registry, 1e-2)
    (batch,) = make_batches(tiny_docs(2), 2, 8, TAX)
    train_step(batch, model, opt, global_step=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, opt, global_step=1)
    predict = ["predict", "--checkpoint", str(path), "--data", str(tiny_corpus(tmp_path)),
               "--out", str(tmp_path)]
    code, expected, _ = run_cli(predict, capsys)
    assert code == 0 and expected
    edit_body(path, "head.bias", 1, flip_lowest_bit)
    with pytest.raises(CheckpointError, match="digest of its moments blocks does not match"):
        restore_checkpoint(path, model, Adam(model.registry, 1e-2))
    again = load_model(path)        # skips the moments unread
    for name, p in model.registry.items():
        assert again.registry[name].data.tobytes() == p.data.tobytes(), name
    assert run_cli(predict, capsys)[:2] == (0, expected)


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("number", [np.nan, np.inf])
def test_non_finite_checkpoint_value_is_a_runtime_error(tmp_path, capsys, command, number):
    # such a file once loaded silently: eval printed "L_c": NaN and predict
    # "n0": NaN, neither of them JSON, and both exited 0
    path = tmp_path / "m.ckpt"
    save_fresh(path)
    edit_body(path, "head.bias", 0, lambda block: struct.pack_into("<d", block, 0, number))
    code, out, err = run_cli([command, "--checkpoint", str(path),
                              "--data", str(tiny_corpus(tmp_path)), "--out", str(tmp_path)], capsys)
    assert code == 1 and out == "" and "Traceback" not in err
    (line,) = [line for line in err.splitlines() if line.startswith("error:")]
    assert "non-finite number in the values of parameter 'head.bias'" in line


@pytest.mark.parametrize("number", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind,what", [(0, "values"), (1, "Adam's m"), (2, "Adam's v")])
def test_checkpoint_holding_a_non_finite_number_is_refused_naming_the_parameter(
        tmp_path, number, kind, what):
    # the digests are rewritten to match, so only the finiteness check can refuse the file
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_fresh(path, model)
    edit_body(path, "head.bias", kind, lambda block: struct.pack_into("<d", block, 8, number),
              redigest=True)
    message = re.escape(f"holds a non-finite number in the {what} of parameter 'head.bias'")
    with pytest.raises(CheckpointError, match=message):
        restore_checkpoint(path, model, Adam(model.registry, 1e-2))
    if kind == 0:
        with pytest.raises(CheckpointError, match=message):
            load_model(path)
    else:
        load_model(path)            # skips the moments unread


def test_version_1_checkpoint_is_refused_naming_its_version(tmp_path):
    # and version 2, which listed the parameters and Adam's step counts in its
    # header, and version 3, whose body interleaved each parameter's values, m and v
    model = Model(TAX, VOCAB, tiny_config())
    for version in (1, 2, 3):
        path = tmp_path / f"v{version}.ckpt"
        save_fresh(path, model)

        def older(header):
            parsed = json.loads(header)
            parsed["version"] = version
            if version == 1:
                del parsed["body_sha256"]
            return json.dumps(parsed).encode("utf-8")

        _rewrite_header(path, older)
        for read in both_readers(model):
            with pytest.raises(CheckpointError, match=f"is checkpoint format version {version}; "
                                                      "this reader reads only version 4"):
                read(path)


@pytest.mark.parametrize("digests", [None, "ab" * 32, {"values": "ab" * 32},
                                     {"values": "ab" * 32, "moments": "AB" * 32},
                                     {"values": "ab" * 31, "moments": "ab" * 32},
                                     {"values": 5, "moments": "ab" * 32}])
def test_checkpoint_malformed_body_digests_rejected(tmp_path, digests):
    path = tmp_path / "m.ckpt"
    save_fresh(path)

    def edit(header):
        parsed = json.loads(header)
        parsed["body_sha256"] = digests
        return json.dumps(parsed).encode("utf-8")

    _rewrite_header(path, edit)
    model = Model(TAX, VOCAB, tiny_config())
    for read in both_readers(model):
        with pytest.raises(CheckpointError, match="corrupt header.*body_sha256"):
            read(path)


@pytest.mark.parametrize("flags", [{}, {"disable_mi": True}, {"disable_label_prior": True},
                                   {"disable_mi": True, "disable_label_prior": True}])
def test_load_model_draws_no_initial_values(tmp_path, monkeypatch, flags):
    model = Model(TAX, VOCAB, tiny_config(**flags))
    opt = Adam(model.registry, 1e-2)
    (batch,) = make_batches(tiny_docs(2), 2, 8, TAX)
    train_step(batch, model, opt, global_step=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, opt, global_step=1)
    streams = []
    original = trainer.derived_rng
    monkeypatch.setattr(trainer, "derived_rng", lambda *keys: streams.append(keys) or original(*keys))
    again = load_model(path)
    assert streams == []
    assert again.registry.names() == model.registry.names()
    for name, p in model.registry.items():
        assert again.registry[name].data.tobytes() == p.data.tobytes(), name
    assert np.shares_memory(again.registry[model.registry.names()[0]].data, again.registry.data)


def _rewrite_header(path, edit):
    """Replace a checkpoint's JSON header by `edit(header_bytes)`."""
    blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = edit(blob[16:16 + length])
    path.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + length:])


def test_checkpoint_corrupt_header_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_fresh(path)
    _rewrite_header(path, lambda header: header[:-7])
    model = Model(TAX, VOCAB, tiny_config())
    with pytest.raises(CheckpointError, match="corrupt header"):
        restore_checkpoint(path, model, Adam(model.registry, 1e-2))
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_model(path)


def test_checkpoint_malformed_config_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_fresh(path)

    def bad_dims(header):
        parsed = json.loads(header)
        parsed["config"]["dims"] = 5
        return json.dumps(parsed).encode("utf-8")

    _rewrite_header(path, bad_dims)
    with pytest.raises(CheckpointError, match="malformed header"):
        load_model(path)


def test_load_model_compares_shapes_before_building_the_model(tmp_path, monkeypatch):
    # a header whose widths would allocate gigabytes, over a tiny body
    path = tmp_path / "m.ckpt"
    save_fresh(path)

    def huge(header):
        parsed = json.loads(header)
        parsed["config"]["dims"]["embed_dim"] = 10**9
        return json.dumps(parsed).encode("utf-8")

    blob = path.read_bytes()
    body_bytes = len(blob) - 16 - struct.unpack("<Q", blob[8:16])[0]
    _rewrite_header(path, huge)
    built = []
    monkeypatch.setattr(trainer, "Model", lambda *args, **kw: built.append(args))
    with pytest.raises(CheckpointError, match=r"the header describes \d{11,} body bytes, "
                                              f"the file holds {body_bytes}$"):
        load_model(path)
    assert built == []


@pytest.mark.parametrize("key,value", [("clip_norm", "z"), ("threshold", None),
                                       ("disable_mi", "no"), ("hidden", 4)])
def test_checkpoint_config_of_wrong_kind_rejected(tmp_path, key, value):
    path = tmp_path / "m.ckpt"
    save_fresh(path)

    def edit(header):
        parsed = json.loads(header)
        parsed["config"][key] = value
        return json.dumps(parsed).encode("utf-8")

    _rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match="malformed header"):
        load_model(path)


def test_checkpoint_config_with_negative_clip_norm_rejected(tmp_path):
    # a negative clip_norm would silently turn clipping off
    path = tmp_path / "m.ckpt"
    save_fresh(path)

    def edit(header):
        parsed = json.loads(header)
        parsed["config"]["clip_norm"] = -1.0
        return json.dumps(parsed).encode("utf-8")

    _rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match="train.clip_norm must be a non-negative number"):
        load_model(path)


HOSTILE_HEADER_EDITS = {
    "progress-not-object": lambda h: h.update(progress=[1, 2]),
    "progress-missing-step": lambda h: h.update(progress={"epochs_completed": 1}),
    "progress-negative": lambda h: h["progress"].update(epochs_completed=-1),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_HEADER_EDITS))
def test_checkpoint_malformed_progress_or_adam_rejected(tmp_path, case):
    # version 3 keeps Adam's step count in progress.global_step alone
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, Adam(model.registry, 1e-2))

    def edit(header):
        parsed = json.loads(header)
        HOSTILE_HEADER_EDITS[case](parsed)
        return json.dumps(parsed).encode("utf-8")

    _rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_model(path)
    with pytest.raises(CheckpointError, match="corrupt header"):
        restore_checkpoint(path, model, Adam(model.registry, 1e-2))


def test_checkpoint_architecture_mismatch_names_parameter(tmp_path):
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_fresh(path, model)
    other = Model(TAX, VOCAB, tiny_config(disable_mi=True))
    with pytest.raises(CheckpointError, match=r"parameter 'mi\.conv1\.kernel' of shape None"):
        restore_checkpoint(path, other, Adam(other.registry, 1e-2))


def test_checkpoint_shape_mismatch_names_parameter(tmp_path):
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_fresh(path, model)
    bigger = Model(TAX, VOCAB, tiny_config(dims=ModelDims(
        embed_dim=8, feature_dim=6, label_dim=6, mi_hidden=4,
        prior_hidden=(5, 3), text_kernels=(2, 3, 4))))
    with pytest.raises(CheckpointError, match=r"parameter 'text\.embedding' of shape \(10, 8\)"):
        restore_checkpoint(path, bigger, Adam(bigger.registry, 1e-2))


@pytest.mark.parametrize("differs", ["taxonomy", "vocabulary"])
def test_checkpoint_of_other_labels_or_tokens_is_refused_before_any_block(tmp_path, differs):
    # the same sizes, so every parameter has the checkpoint's shape
    other_tax = parse_taxonomy("Root\tx\ty\nx\tx1\tx2\ny\ty1\n")
    other_vocab = Vocabulary({f"w{i}" if i > 1 else ("<pad>", "<unk>")[i]: i for i in range(10)})
    path = tmp_path / "m.ckpt"
    trained_checkpoint(path)
    target = Model(other_tax if differs == "taxonomy" else TAX,
                   other_vocab if differs == "vocabulary" else VOCAB, tiny_config())
    opt = Adam(target.registry, 1e-2)
    before = [target.registry.data.copy(), opt.m.copy(), opt.v.copy()]
    with pytest.raises(CheckpointError, match=f"does not fit this model: its {differs} differs"):
        restore_checkpoint(path, target, opt)
    assert all(np.array_equal(a, b) for a, b in zip(before, [target.registry.data, opt.m, opt.v]))
    assert opt.t == 0


def trained_checkpoint(path):
    """A tiny full model after one step, saved with moments unlike its values."""
    model = Model(TAX, VOCAB, tiny_config())
    opt = Adam(model.registry, 1e-2)
    (batch,) = make_batches(tiny_docs(2), 2, 8, TAX)
    train_step(batch, model, opt, global_step=0)
    save_checkpoint(path, model, opt, global_step=1)
    return model, opt


def test_checkpoint_reader_swaps_a_foreign_byte_order(tmp_path, monkeypatch):
    # a big-endian host reads the little-endian body into native doubles; here
    # the body is big-endian and the reader is told the host is
    path = tmp_path / "m.ckpt"
    model, opt = trained_checkpoint(path)
    blob = bytearray(path.read_bytes())
    for block in body_blocks(blob).values():
        blob[block] = np.frombuffer(bytes(blob[block]), "<f8").astype(">f8").tobytes()
    path.write_bytes(blob)
    edit_body(path, "head.bias", 0, lambda block: None, redigest=True)
    monkeypatch.setattr(trainer, "sys", types.SimpleNamespace(byteorder="big"))
    assert load_model(path).registry.data.tobytes() == model.registry.data.tobytes()
    fresh = Model(TAX, VOCAB, tiny_config())
    fresh_opt = Adam(fresh.registry, 1e-2)
    restore_checkpoint(path, fresh, fresh_opt)
    for live, saved in zip((fresh.registry.data, fresh_opt.m, fresh_opt.v),
                           (model.registry.data, opt.m, opt.v)):
        assert live.tobytes() == saved.tobytes()


DIMS_WIDTHS = ["embed_dim", "feature_dim", "label_dim", "mi_hidden", "mi_kernel",
               *(("text_kernels", i) for i in range(3)), *(("prior_hidden", i) for i in range(2))]


def test_fuzzed_checkpoint_loads_exactly_or_is_refused(tmp_path, monkeypatch):
    # one flipped bit scales a width or a body size by at most 9x, and a
    # header's config may declare any width: the exact-length check refuses
    # each before anything is allocated, so no arena outgrows the file
    path = tmp_path / "m.ckpt"
    model, _ = trained_checkpoint(path)
    blob, saved = path.read_bytes(), model.registry.data.tobytes()
    body_start = 16 + struct.unpack("<Q", blob[8:16])[0]
    target = Model(TAX, VOCAB, tiny_config())
    target_opt = Adam(target.registry, 1e-2)
    arena_zeros = trainer._arena_zeros

    def bounded_arena_zeros(size):
        assert 8 * size <= path.stat().st_size, f"an arena of {size} values"
        return arena_zeros(size)

    monkeypatch.setattr(trainer, "_arena_zeros", bounded_arena_zeros)
    mutations = st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 8 * len(blob) - 1)),
        st.tuples(st.just("flip"), st.integers(8 * body_start, 8 * len(blob) - 1)),   # the body
        st.tuples(st.just("truncate"), st.integers(0, len(blob) - 1)),
        st.tuples(st.just("append"), st.binary(min_size=1, max_size=32)),
        st.tuples(st.just("length"), st.one_of(st.integers(0, len(blob)),
                                               st.integers(0, 2**64 - 1))),
        st.tuples(st.just("width"), st.tuples(st.sampled_from(DIMS_WIDTHS),
                                              st.integers(0, 2**64 - 1))),
        st.tuples(st.just("digest"), st.tuples(st.sampled_from(["values", "moments"]),
                                               st.text())))

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(mutations)
    def check(mutation):
        kind, arg = mutation
        data = bytearray(blob)
        if kind == "flip":
            data[arg // 8] ^= 1 << arg % 8
        elif kind == "truncate":
            del data[arg:]
        elif kind == "append":
            data += arg
        elif kind == "length":
            data[8:16] = struct.pack("<Q", arg)
        else:
            edited = json.loads(blob[16:body_start])
            key, value = arg
            if kind == "digest":
                edited["body_sha256"][key] = value
            elif isinstance(key, tuple):
                edited["config"]["dims"][key[0]][key[1]] = value
            else:
                edited["config"]["dims"][key] = value
            encoded = json.dumps(edited).encode("utf-8")
            data[8:body_start] = struct.pack("<Q", len(encoded)) + encoded
        path.write_bytes(data)
        try:
            assert load_model(path).registry.data.tobytes() == saved
        except CheckpointError:
            pass
        try:
            restore_checkpoint(path, target, target_opt)
        except CheckpointError:
            pass

    check()


# -- training loop -----------------------------------------------------------------


def test_run_training_writes_schema_complete_log(tmp_path):
    config = tiny_config(log_path=str(tmp_path / "log.jsonl"))
    result = run_training(tiny_docs(6), tiny_docs(4, rng_seed=9), TAX, VOCAB, config)
    assert result.epochs_completed == 2
    lines = (tmp_path / "log.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines):
        record = json.loads(line)
        assert record["epoch"] == i
        assert set(record) >= {"epoch", "L", "L_c", "L_MI", "L_pr", "F",
                               "micro_f1", "macro_f1", "wall_time_s"}


def test_run_training_is_deterministic_given_seed(tmp_path):
    docs, val = tiny_docs(6), tiny_docs(4, rng_seed=9)
    r1 = run_training(docs, val, TAX, VOCAB, tiny_config())
    r2 = run_training(docs, val, TAX, VOCAB, tiny_config())
    strip = lambda rs: [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rs]
    assert strip(r1.records) == strip(r2.records)
    for name, p in r1.model.registry.items():
        assert np.array_equal(p.data, r2.model.registry[name].data)


def test_split_run_equals_uninterrupted_run(tmp_path):
    docs, val = tiny_docs(6), tiny_docs(4, rng_seed=9)
    dims = tiny_dims()

    full = run_training(docs, val, TAX, VOCAB,
                        tiny_config(epochs=4, checkpoint_path=str(tmp_path / "full.ckpt")))

    half = run_training(docs, val, TAX, VOCAB,
                        tiny_config(epochs=2, checkpoint_path=str(tmp_path / "half.ckpt")))
    resumed = run_training(docs, val, TAX, VOCAB,
                           tiny_config(epochs=4, checkpoint_path=str(tmp_path / "resumed.ckpt")),
                           resume_from=str(tmp_path / "half.ckpt"))

    strip = lambda rs: [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rs]
    assert strip(full.records[2:]) == strip(resumed.records)
    for name, p in full.model.registry.items():
        assert np.array_equal(p.data, resumed.model.registry[name].data)
    fresh = Model(TAX, VOCAB, tiny_config())
    progress = [restore_checkpoint(tmp_path / name, fresh, Adam(fresh.registry, 1e-2))
                for name in ("full.ckpt", "resumed.ckpt")]
    assert progress == [(4, full.global_step)] * 2


@pytest.mark.parametrize("kind,edit,redigest,message", [
    (0, flip_lowest_bit, False, "digest of its values blocks does not match"),
    (1, lambda block: struct.pack_into("<d", block, 0, np.nan), True,
     "non-finite number in the Adam's m of parameter 'head.bias'")],
    ids=["flipped-value-bit", "nan-in-m"])
def test_refused_resume_writes_nothing(tmp_path, kind, edit, redigest, message):
    # restore_checkpoint reads into the run's own model and optimizer, so a body
    # refused part-way must end the run before it trains or writes a file
    docs = tiny_docs(6)
    half = tmp_path / "half.ckpt"
    run_training(docs, [], TAX, VOCAB, tiny_config(checkpoint_path=str(half)))
    edit_body(half, "head.bias", kind, edit, redigest=redigest)
    config = tiny_config(epochs=4, checkpoint_path=str(tmp_path / "resumed.ckpt"),
                         log_path=str(tmp_path / "log.jsonl"))
    with pytest.raises(CheckpointError, match=re.escape(message)):
        run_training(docs, [], TAX, VOCAB, config, resume_from=str(half))
    assert [p.name for p in tmp_path.iterdir()] == ["half.ckpt"]


def test_run_training_rejects_unlabeled_documents():
    unlabeled = Document(tokens=(2, 3), labels=frozenset())
    with pytest.raises(DataError, match="empty label set"):
        run_training(tiny_docs(4) + [unlabeled], [], TAX, VOCAB, tiny_config())
    with pytest.raises(DataError, match="empty label set"):
        run_training(tiny_docs(4), [unlabeled], TAX, VOCAB, tiny_config())


@pytest.mark.parametrize("flags,docs,least", [
    ({"batch_size": 4}, 3, 4), ({}, 0, 2), ({"disable_mi": True}, 0, 1)])
def test_run_training_without_a_training_batch_is_refused(tmp_path, flags, docs, least):
    # with MI on, only full batches train; an epoch of no step would log zero losses
    config = tiny_config(**flags, checkpoint_path=str(tmp_path / "m.ckpt"),
                         log_path=str(tmp_path / "log.jsonl"))
    with pytest.raises(DataError, match=f"needs {least} documents, got {docs}"):
        run_training(tiny_docs(docs), tiny_docs(4, rng_seed=9), TAX, VOCAB, config)
    assert list(tmp_path.iterdir()) == []


def test_run_training_of_no_epoch_needs_no_training_batch(tmp_path):
    config = tiny_config(epochs=0, checkpoint_path=str(tmp_path / "m.ckpt"))
    result = run_training([], [], TAX, VOCAB, config)
    assert result.epochs_completed == 0 and result.records == []
    assert (tmp_path / "m.ckpt").is_file()


def test_stop_when_halts_early(tmp_path):
    config = tiny_config(epochs=10)
    result = run_training(tiny_docs(6), tiny_docs(4, rng_seed=9), TAX, VOCAB, config,
                          stop_when=lambda rec: rec["epoch"] >= 1)
    assert result.epochs_completed == 2
    assert len(result.records) == 2


def test_derive_seed_stable_and_keyed():
    assert derive_seed(7, "shuffle", 0) == derive_seed(7, "shuffle", 0)
    assert derive_seed(7, "shuffle", 0) != derive_seed(7, "shuffle", 1)
    assert derive_seed(7, "shuffle", 0) != derive_seed(7, "prior", 0)
