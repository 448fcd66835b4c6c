import numpy as np
import pytest

import radnmt
from radnmt import autodiff as ad
from radnmt import training
from radnmt.autodiff import Tensor
from radnmt.errors import ConfigError, DataError
from radnmt.model import ModelParams, load_checkpoint
from radnmt.training import TrainConfig, perplexity, sgd_step, train

from conftest import tiny_batch, tiny_config


def _toy_model(toy_data, seed=0, dropout=0.0, p2=8):
    sv, tv, examples = toy_data
    config = radnmt.ModelConfig(
        src_vocab_size=len(sv), tgt_vocab_size=len(tv),
        char_embed_dim=24, feat_embed_dim=p2, hidden_size=32, dropout=dropout,
    )
    return ModelParams.initialize(config, seed), examples


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(decay_mode="warmup")
    with pytest.raises(ConfigError):
        TrainConfig(dropout=1.0)


def test_sgd_lr_zero_leaves_params():
    params = ModelParams.initialize(tiny_config(), seed=0)
    before = {n: t.data.copy() for n, t in params.named()}
    for _, t in params.named():
        t.grad = np.ones_like(t.data)
    sgd_step(params, 0.0)
    for n, t in params.named():
        np.testing.assert_array_equal(t.data, before[n])


def test_sgd_scalar_arithmetic():
    params = ModelParams.initialize(tiny_config(), seed=1)
    t = params["out_b"]
    t.data[:] = 1.0
    t.grad = np.full_like(t.data, 0.25)
    sgd_step(params, 1.0)
    np.testing.assert_allclose(t.data, np.full_like(t.data, 0.75))


def test_sgd_quadratic_bowl_geometric_decay():
    # f(p) = p^2 with lr 0.4: p <- p - 0.4 * 2p = 0.2 p, so 0.2^20 after 20 steps
    p = Tensor(np.ones(()), requires_grad=True)
    for _ in range(20):
        p.zero_grad()
        with ad.Tape() as tape:
            loss = ad.mul(p, p)
        ad.backward(loss, tape)
        p.data -= 0.4 * p.grad
    assert abs(p.data) < 1e-3
    assert float(p.data) == pytest.approx(0.2**20, rel=1e-9)


def test_training_step_accounting(toy_data):
    params, examples = _toy_model(toy_data)
    config = TrainConfig(epochs=2, batch_size=10, dropout=0.0, decay_mode="none", seed=0)
    report = train(params, examples, [], config)
    assert report.steps == 2 * 5  # 50 pairs / batch 10 = 5 batches per epoch
    assert len(report.epochs) == 2


@pytest.mark.parametrize("dropout, streams", [(0.0, 0), (0.3, 10)])
def test_dropout_stream_derived_only_when_dropout_is_on(toy_data, monkeypatch, dropout, streams):
    tags = []

    def derive_rng(seed, *keys):
        tags.append(keys[0])
        return radnmt.seeding.derive_rng(seed, *keys)

    monkeypatch.setattr(training, "derive_rng", derive_rng)
    params, examples = _toy_model(toy_data, dropout=dropout)
    train(params, examples, [], TrainConfig(epochs=2, batch_size=10, dropout=dropout, decay_mode="none"))
    assert tags.count("dropout") == streams  # 5 batches in each of 2 epochs


def test_training_deterministic_trajectory(toy_data):
    def run():
        params, examples = _toy_model(toy_data, seed=3, dropout=0.3)
        config = TrainConfig(epochs=2, batch_size=10, dropout=0.3, decay_mode="none", seed=3)
        return train(params, examples, examples, config)

    a, b = run(), run()
    assert a.to_tsv(include_timing=False) == b.to_tsv(include_timing=False)
    assert a.pre_clip_norms == b.pre_clip_norms


def test_training_nll_decreases_early_on_copy_corpus(table):
    from radnmt.seeding import derive_rng

    rng = derive_rng(0, "copy-corpus")
    alphabet = "abcdefgh"
    pairs = []
    for _ in range(50):
        s = "".join(alphabet[int(rng.integers(8))] for _ in range(int(rng.integers(3, 9))))
        pairs.append((s, s))
    sv = radnmt.build_vocab([s for s, _ in pairs])
    tv = radnmt.build_vocab([t for _, t in pairs])
    examples = radnmt.encode_corpus(pairs, sv, tv, table)
    config = radnmt.ModelConfig(
        src_vocab_size=len(sv), tgt_vocab_size=len(tv),
        char_embed_dim=16, feat_embed_dim=8, hidden_size=32, dropout=0.0,
    )
    params = ModelParams.initialize(config, seed=0)
    report = train(params, examples, [], TrainConfig(
        lr=0.5, epochs=5, batch_size=10, dropout=0.0, decay_mode="none", seed=0,
    ))
    nll = [e.train_nll for e in report.epochs]
    assert all(b < a for a, b in zip(nll, nll[1:])), nll


def test_post_clip_norm_bounded(toy_data):
    params, examples = _toy_model(toy_data)
    config = TrainConfig(epochs=2, batch_size=10, dropout=0.0, decay_mode="none", seed=1)
    report = train(params, examples, [], config)
    assert all(n <= 1.0 + 1e-12 for n in report.post_clip_norms)
    assert any(n > 1.0 for n in report.pre_clip_norms)  # clipping actually engaged


def test_lr_never_increases_under_schedules(toy_data):
    params, examples = _toy_model(toy_data)
    for mode in ("plateau", "epoch", "none"):
        config = TrainConfig(
            epochs=4, batch_size=10, dropout=0.0, decay_mode=mode,
            decay_start_epoch=2, seed=2,
        )
        fresh, _ = _toy_model(toy_data, seed=2)
        report = train(fresh, examples, examples[:10], config)
        lrs = [e.lr for e in report.epochs]
        assert all(b <= a for a, b in zip(lrs, lrs[1:])), mode


def test_epoch_decay_mode_halves(toy_data):
    params, examples = _toy_model(toy_data)
    config = TrainConfig(
        epochs=3, batch_size=10, dropout=0.0, decay_mode="epoch",
        decay_start_epoch=1, lr=1.0, lr_decay=0.5, seed=0,
    )
    report = train(params, examples, [], config)
    assert [e.lr for e in report.epochs] == [1.0, 0.5, 0.25]


def test_perplexity_uniform_model_equals_vocab_size():
    params = ModelParams.initialize(tiny_config(), seed=4)
    params["out_W"].data[:] = 0.0
    params["out_b"].data[:] = 0.0
    batch = tiny_batch(0)
    examples = [
        radnmt.ExamplePair(batch.src[i], batch.feats[i], batch.tgt[i])
        for i in range(batch.size)
    ]
    assert perplexity(params, examples) == pytest.approx(8.0, abs=1e-9)


def test_perplexity_invariant_to_batch_composition(toy_data):
    params, examples = _toy_model(toy_data, seed=5)
    a = perplexity(params, examples, batch_size=10)
    b = perplexity(params, examples, batch_size=7)
    c = perplexity(params, examples, batch_size=50)
    assert a == pytest.approx(b, abs=1e-9)
    assert a == pytest.approx(c, abs=1e-9)


def test_perplexity_empty_dataset_raises():
    params = ModelParams.initialize(tiny_config(), seed=6)
    with pytest.raises(DataError):
        perplexity(params, [])


def test_checkpoints_written_and_roundtrip(toy_data, tmp_path):
    params, examples = _toy_model(toy_data, seed=7)
    config = TrainConfig(
        epochs=2, batch_size=10, dropout=0.0, decay_mode="none",
        seed=7, checkpoint_dir=str(tmp_path),
    )
    report = train(params, examples, examples[:10], config)
    assert len(report.checkpoints) == 2
    loaded = load_checkpoint(report.checkpoints[-1])
    live = perplexity(params, examples[:10])
    reloaded = perplexity(loaded, examples[:10])
    assert abs(live - reloaded) <= 1e-12


def test_divergence_aborts_with_numeric_error(toy_data, tmp_path):
    params, examples = _toy_model(toy_data, seed=9)
    params["src_char_emb"].data[0, 0] = np.inf  # poison one weight
    config = TrainConfig(
        epochs=1, batch_size=10, dropout=0.0, decay_mode="none", seed=9,
        checkpoint_dir=str(tmp_path),
    )
    with pytest.raises(radnmt.errors.NumericError, match="diverged at epoch 1"):
        train(params, examples, [], config)


def test_report_tsv_shape(toy_data):
    params, examples = _toy_model(toy_data, seed=8)
    config = TrainConfig(epochs=2, batch_size=10, dropout=0.0, decay_mode="none", seed=8)
    report = train(params, examples, examples[:5], config)
    lines = report.to_tsv().strip().split("\n")
    assert lines[0].split("\t") == ["epoch", "train_nll", "dev_ppl", "lr", "seconds"]
    assert len(lines) == 3
    stable = report.to_tsv(include_timing=False).strip().split("\n")
    assert stable[0].split("\t") == ["epoch", "train_nll", "dev_ppl", "lr"]
