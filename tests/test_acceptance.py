"""End-to-end acceptance checks, one numbered test per release gate.

Each test prints one "[acceptance NN] PASS/FAIL" line (run with -s to see
them live; pytest -v shows one pass/fail line per test either way).  The
full-model training run on the default synthetic corpus is shared by the
end-to-end learning gate, the per-step loss-identity gate, and the early
loss-decrease check, so it executes once per session.
"""

import json
import time

import numpy as np
import pytest

from gradcheck import finite_difference_check
from htcinfomax import autodiff as ad
from htcinfomax.autodiff import Tensor
from htcinfomax.dataio import (
    Document,
    GeneratorConfig,
    Vocabulary,
    build_vocab_from_file,
    derived_rng,
    generate_synthetic,
    load_corpus,
    make_batches,
)
from htcinfomax.encoders import (
    LabelRepresentations,
    TextFeatures,
    multi_label_attention,
)
from htcinfomax.infomax import (
    LN2,
    MIDiscriminator,
    PriorDiscriminator,
    mi_loss,
    prior_matching_loss,
    sample_prior,
)
from htcinfomax.predictor import bce_loss, macro_f1, micro_f1
from htcinfomax.taxonomy import load_taxonomy, parse_taxonomy
from htcinfomax.trainer import (
    Adam,
    Model,
    ModelDims,
    ParamRegistry,
    TrainConfig,
    derive_seed,
    evaluate,
    load_model,
    run_training,
    save_checkpoint,
)

CHANCE = 2.0 * LN2


def report(num: int, ok: bool, detail: str):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


# -- shared full-scale training run ----------------------------------------------


@pytest.fixture(scope="module")
def default_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("default-corpus")
    generate_synthetic(GeneratorConfig(), 7, out)
    tax = load_taxonomy(out / "taxonomy.txt")
    vocab = build_vocab_from_file(out / "train.jsonl")
    return {
        "tax": tax,
        "vocab": vocab,
        "train": load_corpus(out / "train.jsonl", vocab, tax),
        "val": load_corpus(out / "val.jsonl", vocab, tax),
    }


@pytest.fixture(scope="module")
def full_run(default_corpus):
    """Full model, default dims, on the default corpus; stops once the
    F1 gates are met and five epochs have elapsed."""
    config = TrainConfig(epochs=20, batch_size=64, learning_rate=1e-3, seed=7,
                         max_len=24, dims=ModelDims())
    bundles = []

    def done(record):
        return (record["epoch"] >= 4 and record["micro_f1"] >= 0.85
                and record["macro_f1"] >= 0.75)

    start = time.perf_counter()
    result = run_training(default_corpus["train"], default_corpus["val"],
                          default_corpus["tax"], default_corpus["vocab"], config,
                          stop_when=done, on_step=bundles.append)
    elapsed = time.perf_counter() - start
    return {"result": result, "bundles": bundles, "elapsed": elapsed}


# -- 1: gradient correctness of the composed loss --------------------------------


def test_01_full_loss_gradient_check():
    """Analytic gradients of the total loss match central differences for
    every parameter of a 2-document, 7-label toy model.

    The prior-matching fake path reverses gradients into the structure
    encoder, so the model's backward pass computes the gradient of an
    explicit two-player objective rather than of the scalar it reports.
    The check therefore (a) verifies the model's gradients equal those of
    the decomposed objective -- fake path entering once with the label
    matrix frozen (discriminator side) and once through a frozen
    discriminator with weight -(1-F) (encoder side) -- and (b) runs the
    finite-difference harness on that decomposition, which is an ordinary
    single-valued function of the parameters.
    """
    start = time.perf_counter()
    tax = parse_taxonomy("Root\ta\tb\na\ta1\ta2\ta3\nb\tb1\tb2\n")
    vocab = Vocabulary({t: i for i, t in enumerate(
        ["<pad>", "<unk>", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9"])})
    dims = ModelDims(embed_dim=6, feature_dim=6, label_dim=6, text_kernels=(2, 3, 4),
                     mi_hidden=4, mi_kernel=3, prior_hidden=(5, 3))
    model = Model(tax, vocab, TrainConfig(batch_size=2, seed=13, max_len=4, dims=dims))
    docs = [
        Document(tokens=(2, 3, 4), labels=frozenset({tax.id_of("a"), tax.id_of("a1")})),
        Document(tokens=(5, 6), labels=frozenset({tax.id_of("b"), tax.id_of("b2")})),
    ]
    batch = make_batches(docs, 2, 4, tax)[0]
    prior_seed = 99

    with ad.no_grad():
        y0 = model.structure_encoder().matrix.data.copy()
        gate0 = model.gate(model.text_encoder(batch).pooled,
                           model.structure_encoder()).item()
    c0 = 1.0 - gate0
    frozen = {k: Tensor(p.data.copy())
              for k, p in model.prior_disc.named_params().items()}

    def frozen_disc_logits(reps):
        h = ad.relu(ad.matmul(reps, frozen["lin1.weight"], frozen["lin1.bias"]))
        h = ad.relu(ad.matmul(h, frozen["lin2.weight"], frozen["lin2.bias"]))
        return ad.matmul(h, frozen["lin3.weight"], frozen["lin3.bias"])

    def decomposed():
        tf = model.text_encoder(batch)
        lr = model.structure_encoder()
        preds = model.head(multi_label_attention(tf, lr))
        l_c = bce_loss(preds.logits, batch.targets)
        l_mi = mi_loss(tf, lr, batch.targets, model.mi_disc)
        prior = sample_prior(tax.num_labels, dims.label_dim, prior_seed)
        real_logits = model.prior_disc.logits(prior)
        fake_logits = model.prior_disc.logits(Tensor(y0))
        l_pr = ad.mean(ad.neg(ad.add(ad.logsigmoid(real_logits),
                                     ad.logsigmoid(ad.neg(fake_logits)))))
        f_w = model.gate(tf.pooled, lr)
        total = ad.add(l_c, ad.add(ad.mul(f_w, l_mi),
                                   ad.mul(ad.add(ad.neg(f_w), 1.0), l_pr)))
        fake_live = frozen_disc_logits(lr.matrix)
        l_fake = ad.mean(ad.neg(ad.logsigmoid(ad.neg(fake_live))))
        return ad.add(total, ad.mul(Tensor(np.asarray(-c0)), l_fake))

    params = dict(model.registry.items())

    model.registry.zero_grad()
    total, _ = model.losses(batch, prior_seed)
    ad.backward(total)
    g_model = {k: p.grad.copy() for k, p in params.items()}
    model.registry.zero_grad()
    ad.backward(decomposed())
    routing_diff = max(
        float(np.max(np.abs(g_model[k] - p.grad) / np.maximum(np.abs(g_model[k]), 1e-8)))
        for k, p in params.items()
    )

    fd = finite_difference_check(decomposed, params, h=1e-5, tol=1e-4)
    elapsed = time.perf_counter() - start
    ok = routing_diff <= 1e-9 and fd.passed and elapsed < 60.0
    report(1, ok, f"full-loss gradient check: routing diff {routing_diff:.1e}, "
                  f"fd worst {fd.worst:.1e} over {len(params)} params "
                  f"(tol 1e-4), {elapsed:.1f}s < 60s")
    assert routing_diff <= 1e-9
    assert fd.passed, fd.summary()
    assert elapsed < 60.0


# -- 2: discriminator architecture ------------------------------------------------


def test_02_discriminator_architecture():
    dims = ModelDims()
    mi = MIDiscriminator(dims.feature_dim, dims.label_dim, dims.mi_hidden,
                         derived_rng(0, "mi"), kernel_size=dims.mi_kernel)
    pr = PriorDiscriminator(dims.label_dim, dims.prior_hidden, derived_rng(0, "pr"))

    expected_mi = {
        "conv1.kernel": (3, 300, 300), "conv1.bias": (300,),
        "conv2.kernel": (3, 300, 512), "conv2.bias": (512,),
        "lin1.weight": (812, 512), "lin1.bias": (512,),
        "lin2.weight": (512, 512), "lin2.bias": (512,),
        "lin3.weight": (512, 1), "lin3.bias": (1,),
    }
    expected_pr = {
        "lin1.weight": (300, 1000), "lin1.bias": (1000,),
        "lin2.weight": (1000, 200), "lin2.bias": (200,),
        "lin3.weight": (200, 1), "lin3.bias": (1,),
    }
    mi_shapes = {k: p.shape for k, p in mi.named_params().items()}
    pr_shapes = {k: p.shape for k, p in pr.named_params().items()}

    probs = pr(Tensor(derived_rng(1, "x").random((4, 300)))).data
    sigmoid_out = bool(np.all((probs > 0.0) & (probs < 1.0)))

    ok = mi_shapes == expected_mi and pr_shapes == expected_pr and sigmoid_out
    report(2, ok, "pair scorer conv 300->300, conv 300->512, linear 812->512->512->1; "
                  "prior scorer 300->1000->200->1 with sigmoid output")
    assert mi_shapes == expected_mi
    assert pr_shapes == expected_pr
    assert sigmoid_out


# -- 3: chance-level fixed points --------------------------------------------------


def test_03_chance_level_fixed_points():
    start = time.perf_counter()
    dims = ModelDims()
    rng = derived_rng(2, "data")

    mi = MIDiscriminator(dims.feature_dim, dims.label_dim, dims.mi_hidden,
                         derived_rng(2, "mi"), kernel_size=dims.mi_kernel)
    mi.zero_init()
    feats = Tensor(rng.standard_normal((2, 8, dims.feature_dim)))
    mask = np.ones((2, 8))
    tf = TextFeatures(token_feats=feats, pooled=ad.masked_mean(feats, mask), mask=mask)
    lr = LabelRepresentations(matrix=Tensor(rng.random((6, dims.label_dim))))
    targets = np.zeros((2, 6))
    targets[0, [0, 2]] = 1.0
    targets[1, [1, 5]] = 1.0
    l_mi = mi_loss(tf, lr, targets, mi).item()

    pr = PriorDiscriminator(dims.label_dim, dims.prior_hidden, derived_rng(2, "pr"))
    pr.zero_init()
    prior = sample_prior(6, dims.label_dim, 17)
    l_pr = prior_matching_loss(lr, prior, pr).item()
    per_label = [
        prior_matching_loss(
            LabelRepresentations(matrix=Tensor(lr.matrix.data[i:i + 1])),
            Tensor(prior.data[i:i + 1]), pr).item()
        for i in range(6)
    ]

    elapsed = time.perf_counter() - start
    mi_err = abs(l_mi - CHANCE)
    pr_err = max(abs(v - CHANCE) for v in per_label + [l_pr])
    ok = mi_err <= 1e-9 and pr_err <= 1e-9 and elapsed < 5.0
    report(3, ok, f"zero-init scorers sit at 2*ln2: pair loss off by {mi_err:.1e}, "
                  f"prior loss off by {pr_err:.1e} (tol 1e-9), {elapsed:.2f}s < 5s")
    assert mi_err <= 1e-9
    assert pr_err <= 1e-9
    assert elapsed < 5.0


# -- 4: the pair scorer detects dependence and only dependence ---------------------


def _mi_discrimination_run(dependent: bool, steps=200, batch=16, seq=6,
                           dim=24, hidden=32, seed=5, lr_rate=3e-3):
    disc = MIDiscriminator(dim, dim, hidden, derived_rng(seed, "disc"))
    weight = derived_rng(seed, "map").normal(size=(dim, dim)) / np.sqrt(dim)
    registry = ParamRegistry()
    registry.register("mi", disc.named_params())
    optimizer = Adam(registry, lr_rate)
    targets = np.eye(batch)
    mask = np.ones((batch, seq))

    def draw(k):
        rng = derived_rng(seed, "draw", k)
        feats = rng.normal(size=(batch, seq, dim))
        means = feats.mean(axis=1)
        paired = means if dependent else means[rng.permutation(batch)]
        tf = TextFeatures(token_feats=Tensor(feats), pooled=Tensor(means), mask=mask)
        return tf, LabelRepresentations(matrix=Tensor(paired @ weight))

    for k in range(steps):
        tf, lr = draw(k)
        loss = mi_loss(tf, lr, targets, disc)
        registry.zero_grad()
        ad.backward(loss)
        optimizer.step()
    with ad.no_grad():
        evals = [mi_loss(*draw(10_000 + k), targets, disc).item() for k in range(20)]
    return float(np.mean(evals))


def test_04_mi_estimator_discrimination():
    start = time.perf_counter()
    dependent = _mi_discrimination_run(dependent=True)
    shuffled = _mi_discrimination_run(dependent=False)
    elapsed = time.perf_counter() - start
    shuffle_err = abs(shuffled - CHANCE)
    ok = dependent < 1.0 and shuffle_err <= 0.1 and elapsed < 120.0
    report(4, ok, f"after 200 steps: dependent pairs {dependent:.3f} < 1.0, "
                  f"shuffled pairs {shuffled:.3f} within 2*ln2 +/- 0.1, "
                  f"{elapsed:.1f}s < 120s")
    assert dependent < 1.0
    assert shuffle_err <= 0.1
    assert elapsed < 120.0


# -- 5: reversed gradients pull label representations toward the prior -------------


def test_05_prior_matching_direction():
    """Label rows start at uniform[0,1)+5; 500 adversarial steps must move
    every dimension's mean strictly toward 0.5 across 100-step windows.

    The scorer starts from small weights (0.005 x its usual init) and
    learns slowly (1e-4) relative to the representations (8e-3): started
    at full scale five units from the prior mass, its output saturates
    and the reversed gradient underflows Adam's epsilon before the
    representations can move.
    """
    start = time.perf_counter()
    steps, window, n_labels, dim, seed = 500, 100, 20, 300, 9
    reps = Tensor(derived_rng(seed, "reps").random((n_labels, dim)) + 5.0,
                  requires_grad=True)
    disc = PriorDiscriminator(dim, (1000, 200), derived_rng(seed, "disc"))
    for p in disc.named_params().values():
        p.data *= 0.005
    rep_registry = ParamRegistry()
    rep_registry.register("labels", {"matrix": reps})
    disc_registry = ParamRegistry()
    disc_registry.register("prior", disc.named_params())
    rep_opt = Adam(rep_registry, 8e-3)
    disc_opt = Adam(disc_registry, 1e-4)

    dim_means = []
    for k in range(steps):
        prior = sample_prior(n_labels, dim, derive_seed(seed, "prior", k))
        loss = prior_matching_loss(LabelRepresentations(matrix=reps), prior, disc)
        rep_registry.zero_grad()
        disc_registry.zero_grad()
        ad.backward(loss)
        rep_opt.step()
        disc_opt.step()
        dim_means.append(reps.data.mean(axis=0).copy())

    windows = np.asarray(dim_means).reshape(steps // window, window, dim).mean(axis=1)
    dist = np.abs(windows - 0.5)
    strict = dist[1:] < dist[:-1]
    elapsed = time.perf_counter() - start
    ok = bool(strict.all()) and elapsed < 120.0
    report(5, ok, "per-dimension means toward 0.5, window means "
                  + " -> ".join(f"{d:.3f}" for d in dist.mean(axis=1))
                  + f", strictly monotone in all {dim} dims: {bool(strict.all())}, "
                    f"{elapsed:.1f}s < 120s")
    assert strict.all(), f"dims moving away per window: {(~strict).sum(axis=1)}"
    assert elapsed < 120.0


# -- 6: end-to-end learning on the default corpus ----------------------------------


def test_06_end_to_end_learning(full_run):
    last = full_run["result"].records[-1]
    elapsed = full_run["elapsed"]
    epochs = full_run["result"].epochs_completed
    ok = (last["micro_f1"] >= 0.85 and last["macro_f1"] >= 0.75
          and epochs <= 20 and elapsed < 600.0)
    report(6, ok, f"default corpus: micro-F1 {last['micro_f1']:.4f} >= 0.85, "
                  f"macro-F1 {last['macro_f1']:.4f} >= 0.75 after {epochs} epochs, "
                  f"{elapsed:.0f}s < 600s")
    assert last["micro_f1"] >= 0.85
    assert last["macro_f1"] >= 0.75
    assert epochs <= 20
    assert elapsed < 600.0


def test_training_loss_decreases_early(full_run):
    """Epoch-average classification loss falls monotonically over the
    first five epochs on the separable default corpus."""
    l_c = [r["L_c"] for r in full_run["result"].records[:5]]
    assert len(l_c) == 5
    assert all(b < a for a, b in zip(l_c, l_c[1:])), l_c


# -- 7: prior matching chiefly lifts macro-F1 on imbalanced data -------------------


def test_07_prior_ablation_macro_f1(tmp_path_factory):
    out = tmp_path_factory.mktemp("imbalanced-corpus")
    generate_synthetic(GeneratorConfig(depth=2, branching=3, imbalance_exponent=1.5,
                                       docs_per_label=60, doc_len=12,
                                       val_docs_per_label=25), 7, out)
    tax = load_taxonomy(out / "taxonomy.txt")
    vocab = build_vocab_from_file(out / "train.jsonl")
    train = load_corpus(out / "train.jsonl", vocab, tax)
    val = load_corpus(out / "val.jsonl", vocab, tax)
    dims = ModelDims(embed_dim=60, feature_dim=60, label_dim=60,
                     mi_hidden=48, prior_hidden=(96, 48))

    def sweep(disable_label_prior: bool) -> list[float]:
        macros = []
        for seed in range(8):
            config = TrainConfig(epochs=8, batch_size=16, learning_rate=2e-3,
                                 seed=seed, max_len=12,
                                 disable_label_prior=disable_label_prior, dims=dims)
            result = run_training(train, val, tax, vocab, config)
            macros.append(result.records[-1]["macro_f1"])
        return macros

    full = sweep(disable_label_prior=False)
    ablated = sweep(disable_label_prior=True)
    mean_full, mean_ablated = float(np.mean(full)), float(np.mean(ablated))
    ok = mean_full > mean_ablated
    report(7, ok, f"8-seed macro-F1 means on imbalanced corpus: "
                  f"full {mean_full:.4f} > without prior matching {mean_ablated:.4f} "
                  f"(diff {mean_full - mean_ablated:+.4f})")
    assert mean_full > mean_ablated


# -- 8: F1 implementations against brute-force enumeration -------------------------


def brute_force_f1(decisions: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
    n_docs, n_labels = decisions.shape
    tp = np.zeros(n_labels)
    fp = np.zeros(n_labels)
    fn = np.zeros(n_labels)
    for j in range(n_labels):
        for i in range(n_docs):
            if decisions[i, j] == 1 and targets[i, j] == 1:
                tp[j] += 1
            elif decisions[i, j] == 1:
                fp[j] += 1
            elif targets[i, j] == 1:
                fn[j] += 1

    def f1(t, p, n):
        return 2 * t / (2 * t + p + n) if 2 * t + p + n > 0 else 0.0

    micro = f1(tp.sum(), fp.sum(), fn.sum())
    macro = float(np.mean([f1(tp[j], fp[j], fn[j]) for j in range(n_labels)]))
    return micro, macro


def test_08_f1_matches_brute_force():
    rng = derived_rng(123, "f1-acceptance")
    exact = 0
    for _ in range(1000):
        decisions = rng.integers(0, 2, size=(8, 12)).astype(np.float64)
        targets = rng.integers(0, 2, size=(8, 12)).astype(np.float64)
        want_micro, want_macro = brute_force_f1(decisions, targets)
        if micro_f1(decisions, targets) == want_micro and \
           macro_f1(decisions, targets) == want_macro:
            exact += 1
    ok = exact == 1000
    report(8, ok, f"micro/macro F1 equals brute-force enumeration on "
                  f"{exact}/1000 random 8x12 matrices (exact equality)")
    assert exact == 1000


# -- 9: determinism and persistence -------------------------------------------------


def _small_workspace(tmp_path):
    out = tmp_path / "corpus"
    generate_synthetic(GeneratorConfig(depth=2, branching=2, docs_per_label=8,
                                       doc_len=8, vocab_per_label=5,
                                       val_docs_per_label=2), 3, out)
    tax = load_taxonomy(out / "taxonomy.txt")
    vocab = build_vocab_from_file(out / "train.jsonl")
    return {
        "tax": tax,
        "vocab": vocab,
        "train": load_corpus(out / "train.jsonl", vocab, tax),
        "val": load_corpus(out / "val.jsonl", vocab, tax),
    }


def _small_config(**overrides) -> TrainConfig:
    dims = ModelDims(embed_dim=12, feature_dim=12, label_dim=12,
                     mi_hidden=8, prior_hidden=(10, 6))
    base = dict(epochs=3, batch_size=4, learning_rate=1e-2, seed=11,
                max_len=8, dims=dims)
    base.update(overrides)
    return TrainConfig(**base)


def _strip_wall_time(path) -> list[str]:
    lines = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("wall_time_s")
            lines.append(json.dumps(record, sort_keys=True))
    return lines


def test_09_determinism_and_persistence(tmp_path):
    ws = _small_workspace(tmp_path)
    args = (ws["train"], ws["val"], ws["tax"], ws["vocab"])

    log_a = tmp_path / "a.jsonl"
    log_b = tmp_path / "b.jsonl"
    run_a = run_training(*args, _small_config(log_path=str(log_a)))
    run_b = run_training(*args, _small_config(log_path=str(log_b)))
    logs_identical = _strip_wall_time(log_a) == _strip_wall_time(log_b)
    params_identical = all(
        np.array_equal(p.data, dict(run_b.model.registry.items())[name].data)
        for name, p in run_a.model.registry.items()
    )

    batches = make_batches(ws["val"], 4, 8, ws["tax"])
    before = evaluate(batches, run_a.model)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, run_a.model, run_a.optimizer,
                    run_a.epochs_completed, run_a.global_step)
    after = evaluate(batches, load_model(ckpt))
    roundtrip_exact = before == after

    split_ckpt = tmp_path / "split.ckpt"
    run_training(*args, _small_config(epochs=1, checkpoint_path=str(split_ckpt)))
    resumed = run_training(*args, _small_config(), resume_from=str(split_ckpt))
    full_records = [dict(r) for r in run_a.records]
    split_records = [dict(r) for r in resumed.records]
    for record in full_records + split_records:
        record.pop("wall_time_s")
    split_equal = (full_records[1:] == split_records and all(
        np.array_equal(p.data, dict(resumed.model.registry.items())[name].data)
        for name, p in run_a.model.registry.items()
    ))

    ok = logs_identical and params_identical and roundtrip_exact and split_equal
    report(9, ok, f"rerun logs identical: {logs_identical}, parameters identical: "
                  f"{params_identical}, checkpoint round-trip metrics exact: "
                  f"{roundtrip_exact}, save/resume equals uninterrupted: {split_equal}")
    assert logs_identical
    assert params_identical
    assert roundtrip_exact
    assert split_equal


# -- 10: the reported loss decomposition holds at every step ------------------------


def test_10_loss_identity_every_step(full_run):
    bundles = full_run["bundles"]
    assert bundles, "training produced no steps"
    worst = 0.0
    f_in_range = True
    for b in bundles:
        recombined = b.l_c + (b.f_weight * b.l_mi + (1.0 - b.f_weight) * b.l_pr)
        worst = max(worst, abs(b.total - recombined))
        f_in_range = f_in_range and 0.0 < b.f_weight < 1.0
    ok = worst <= 1e-12 and f_in_range
    report(10, ok, f"L = L_c + F*L_MI + (1-F)*L_pr on all {len(bundles)} logged "
                   f"steps (worst residual {worst:.1e} <= 1e-12), F always in (0,1)")
    assert worst <= 1e-12
    assert f_in_range
