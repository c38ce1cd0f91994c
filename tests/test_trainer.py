"""Optimizer, registry, train step, evaluation, and checkpointing."""

import hashlib
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from htcinfomax import autodiff as ad
from htcinfomax.autodiff import Tensor
from htcinfomax.dataio import (DataError, Document, GeneratorConfig, Vocabulary,
                               build_vocab_from_file, generate_synthetic, load_corpus,
                               make_batches)
from htcinfomax.infomax import NumericError
from htcinfomax.taxonomy import load_taxonomy, parse_taxonomy
from htcinfomax.trainer import (
    ADAM_CHUNK,
    Adam,
    CheckpointError,
    Model,
    ModelDims,
    ParamRegistry,
    TrainConfig,
    clip_gradients,
    derive_seed,
    evaluate,
    load_model,
    read_checkpoint,
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


def test_adam_first_step_magnitude():
    p = Tensor(np.array([1.0]), requires_grad=True)
    reg = ParamRegistry()
    reg.register("only", {"p": p})
    opt = Adam(reg, lr=1e-3)
    p.grad = np.array([1.0])
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
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    opt = Adam(reg, lr=lr, beta1=b1, beta2=b2, eps=eps)

    m = np.zeros(5)
    v = np.zeros(5)
    for t in range(1, 25):
        g = rng.standard_normal(5)
        p.grad = g.copy()
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
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    opt = Adam(reg, lr=lr, beta1=b1, beta2=b2, eps=eps)
    m = np.zeros((3, 4))
    v = np.zeros((3, 4))
    for t in range(1, 241):
        g = rng.standard_normal((3, 4)) * rng.choice([1e-3, 1.0, 50.0])
        g[:, -1] = rng.standard_normal(3) * 1e-13
        p.data[...] = 0.0
        p.grad = g.copy()
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
    first.grad = np.ones(2)
    with pytest.raises(ad.ContractError, match="w.second"):
        opt.step()
    assert np.array_equal(first.data, np.ones(2))
    assert opt.t == 0 and not opt.state["w.first"]["m"].any()


def test_clip_gradients_scales_to_max_norm():
    reg = ParamRegistry()
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    reg.register("g", {"a": a, "b": b})
    a.grad = np.full(3, 3.0)
    b.grad = np.full(4, 4.0)
    norm = clip_gradients(reg, 5.0)
    assert norm == pytest.approx(np.sqrt(27 + 64))
    total = np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum())
    assert total == pytest.approx(5.0)


def test_clip_gradients_leaves_small_norms_alone():
    reg = ParamRegistry()
    a = Tensor(np.zeros(2), requires_grad=True)
    reg.register("g", {"a": a})
    a.grad = np.array([0.3, 0.4])
    norm = clip_gradients(reg, 5.0)
    assert norm == pytest.approx(0.5)
    assert np.allclose(a.grad, [0.3, 0.4])


def test_clip_norm_is_the_per_parameter_sum_and_ignores_stale_blocks():
    rng = np.random.default_rng(3)
    reg = ParamRegistry()
    params = {name: Tensor(np.zeros(shape), requires_grad=True)
              for name, shape in (("a", (3, 5)), ("b", (7,)), ("c", (2, 2, 3)))}
    reg.register("g", params)
    for name, p in params.items():
        p.grad = rng.standard_normal(p.shape)
    expected = np.sqrt(sum(float(p.grad.reshape(-1) @ p.grad.reshape(-1))
                           for p in params.values()))
    assert clip_gradients(reg, 0.0) == pytest.approx(expected, rel=1e-12)
    # the next step leaves "b" without a gradient; its block keeps the last values
    reg.zero_grad()
    params["a"].grad = rng.standard_normal((3, 5))
    params["c"].grad = rng.standard_normal((2, 2, 3))
    assert reg.views(reg.grad)[1].any()
    expected = np.sqrt(sum(float(params[n].grad.reshape(-1) @ params[n].grad.reshape(-1))
                           for n in ("a", "c")))
    assert clip_gradients(reg, 0.0) == pytest.approx(expected, rel=1e-12)
    assert params["b"].grad is None and not reg.views(reg.grad)[1].any()


# -- config ------------------------------------------------------------------------


def test_train_config_round_trips_through_dict():
    config = tiny_config(disable_mi=True, learning_rate=0.5)
    again = TrainConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert again == config


def test_train_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        tiny_config(batch_size=1).validate()
    tiny_config(batch_size=1, disable_mi=True).validate()
    with pytest.raises(ValueError, match="learning_rate"):
        tiny_config(learning_rate=0.0).validate()
    with pytest.raises(ad.DimensionError):
        TrainConfig(dims=ModelDims(feature_dim=6, label_dim=8)).validate()
    with pytest.raises(ad.DimensionError, match="text kernels"):
        TrainConfig(dims=ModelDims(text_kernels=())).validate()
    with pytest.raises(ad.DimensionError, match="prior_hidden"):
        TrainConfig(dims=ModelDims(prior_hidden=(8,))).validate()


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
    ({}, 117), ({"disable_mi": True}, 64), ({"disable_label_prior": True}, 80),
    ({"disable_mi": True, "disable_label_prior": True}, 44)])
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


def test_directly_assigned_gradients_take_part_in_clipping_and_adam():
    (batch,) = make_batches(tiny_docs(2), 2, 8, TAX)
    runs = []
    for assign in (False, True):
        model = Model(TAX, VOCAB, tiny_config())
        opt = Adam(model.registry, 1e-2)
        total, _ = model.losses(batch, prior_seed=0)
        ad.backward(total)
        if assign:
            for _, p in model.registry.items():
                p.grad = p.grad * 1.0         # a fresh array, outside the arena
        norm = clip_gradients(model.registry, 0.1)
        opt.step()
        runs.append((norm, [p.data.copy() for _, p in model.registry.items()]))
    (arena_norm, arena), (assigned_norm, assigned) = runs
    assert arena_norm == assigned_norm > 0.1
    assert all(np.array_equal(a, b) for a, b in zip(arena, assigned))


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
    "full": "d567513180fbb7c4",
    "disable_mi": "a78e754a14da0b4f",
    "disable_label_prior": "67ce495dd65975e4",
    "base": "5722c900f34f2a47",
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


def test_evaluate_is_pure_and_deterministic():
    model = Model(TAX, VOCAB, tiny_config())
    batches = make_batches(tiny_docs(6), 2, 8, TAX)
    before = {n: p.data.copy() for n, p in model.registry.items()}
    first = evaluate(batches, model)
    second = evaluate(batches, model)
    assert first == second
    for n, p in model.registry.items():
        assert np.array_equal(before[n], p.data)
    assert set(first) == {"micro_f1", "macro_f1", "L_c"}


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
        for batch in batches:
            assert np.array_equal(model.predict(batch, lr).logits.data,
                                  model.predict(batch).logits.data)


# -- checkpointing -----------------------------------------------------------------


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
    for i, b in enumerate(batches):
        train_step(b, model, opt, global_step=i)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, opt, epochs_completed=1, global_step=2)

    fresh = Model(TAX, VOCAB, tiny_config())
    fresh_opt = Adam(fresh.registry, 1e-2)
    restore_checkpoint(path, fresh, fresh_opt)
    for name, p in model.registry.items():
        assert np.array_equal(p.data, fresh.registry[name].data)
        assert np.array_equal(opt.state[name]["m"], fresh_opt.state[name]["m"])
        assert np.array_equal(opt.state[name]["v"], fresh_opt.state[name]["v"])
    assert fresh_opt.t == opt.t == 2


def test_load_model_rebuilds_from_header_alone(tmp_path):
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    again = load_model(path)
    assert again.config == model.config
    assert again.tax.labels == model.tax.labels
    assert again.vocab.token_to_id == model.vocab.token_to_id
    for name, p in model.registry.items():
        assert np.array_equal(p.data, again.registry[name].data)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(path)


def test_checkpoint_truncation_rejected(tmp_path):
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 64])
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, Model(TAX, VOCAB, tiny_config()))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="8 trailing bytes"):
        read_checkpoint(path)


def test_checkpoint_format_is_pinned(tmp_path):
    """One elementwise Adam step on constant gradients: the bytes depend on no BLAS."""
    model = Model(TAX, VOCAB, tiny_config())
    opt = Adam(model.registry, 1e-2)
    for _, p in model.registry.items():
        p.grad = np.full(p.shape, 0.25)
    opt.step()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, opt, epochs_completed=1, global_step=1)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "833015610b0f3ed19dee06dadf397f60a11a0868a0e95ced679b5a05d259c445"


def test_checkpoint_is_read_once_into_read_only_views(tmp_path, monkeypatch):
    model = Model(TAX, VOCAB, tiny_config())
    opt = Adam(model.registry, 1e-2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, opt)
    data = read_checkpoint(path)
    for name, p in model.registry.items():
        for store, live in ((data["params"], p.data), (data["adam_m"], opt.state[name]["m"]),
                            (data["adam_v"], opt.state[name]["v"])):
            assert np.array_equal(store[name], live) and not store[name].flags.writeable
    reads = []
    original = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or original(self))
    load_model(path)
    assert reads == [path]
    restore_checkpoint(path, model, Adam(model.registry, 1e-2))
    assert reads == [path, path]


def _rewrite_header(path, edit):
    """Replace a checkpoint's JSON header by `edit(header_bytes)`."""
    blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = edit(blob[16:16 + length])
    path.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + length:])


def test_checkpoint_corrupt_header_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, Model(TAX, VOCAB, tiny_config()))
    _rewrite_header(path, lambda header: header[:-7])
    with pytest.raises(CheckpointError, match="corrupt header"):
        read_checkpoint(path)
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_model(path)


def test_checkpoint_malformed_config_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, Model(TAX, VOCAB, tiny_config()))

    def bad_dims(header):
        parsed = json.loads(header)
        parsed["config"]["dims"] = 5
        return json.dumps(parsed).encode("utf-8")

    _rewrite_header(path, bad_dims)
    with pytest.raises(CheckpointError, match="malformed header"):
        load_model(path)


@pytest.mark.parametrize("key,value", [("clip_norm", "z"), ("threshold", None),
                                       ("disable_mi", "no"), ("hidden", 4)])
def test_checkpoint_config_of_wrong_kind_rejected(tmp_path, key, value):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, Model(TAX, VOCAB, tiny_config()))

    def edit(header):
        parsed = json.loads(header)
        parsed["config"][key] = value
        return json.dumps(parsed).encode("utf-8")

    _rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match="malformed header"):
        load_model(path)


HOSTILE_HEADER_EDITS = {
    "progress-not-object": lambda h: h.update(progress=[1, 2]),
    "progress-missing-step": lambda h: h.update(progress={"epochs_completed": 1}),
    "progress-negative": lambda h: h["progress"].update(epochs_completed=-1),
    "adam-not-object": lambda h: h.update(adam=5),
    "adam-other-names": lambda h: h.update(adam={"text.embedding": 0}),
    "adam-two-counts": lambda h: h["adam"].update({h["params"][0]["name"]: 2}),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_HEADER_EDITS))
def test_checkpoint_malformed_progress_or_adam_rejected(tmp_path, case):
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, Adam(model.registry, 1e-2))

    def edit(header):
        parsed = json.loads(header)
        HOSTILE_HEADER_EDITS[case](parsed)
        return json.dumps(parsed).encode("utf-8")

    _rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match="corrupt header"):
        read_checkpoint(path)
    with pytest.raises(CheckpointError, match="corrupt header"):
        restore_checkpoint(path, model, Adam(model.registry, 1e-2))


def test_checkpoint_architecture_mismatch_names_parameter(tmp_path):
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    other = Model(TAX, VOCAB, tiny_config(disable_mi=True))
    with pytest.raises(CheckpointError, match="does not exist"):
        restore_checkpoint(path, other)


def test_checkpoint_shape_mismatch_names_parameter(tmp_path):
    model = Model(TAX, VOCAB, tiny_config())
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model)
    bigger = Model(TAX, VOCAB, tiny_config(dims=ModelDims(
        embed_dim=8, feature_dim=6, label_dim=6, mi_hidden=4,
        prior_hidden=(5, 3), text_kernels=(2, 3, 4))))
    with pytest.raises(CheckpointError, match="shape mismatch"):
        restore_checkpoint(path, bigger)


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
    assert read_checkpoint(tmp_path / "full.ckpt")["header"]["progress"] == \
        read_checkpoint(tmp_path / "resumed.ckpt")["header"]["progress"]


def test_run_training_rejects_unlabeled_documents():
    unlabeled = Document(tokens=(2, 3), labels=frozenset())
    with pytest.raises(DataError, match="empty label set"):
        run_training(tiny_docs(4) + [unlabeled], [], TAX, VOCAB, tiny_config())
    with pytest.raises(DataError, match="empty label set"):
        run_training(tiny_docs(4), [unlabeled], TAX, VOCAB, tiny_config())


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
