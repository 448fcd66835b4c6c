import json
import struct
from contextlib import contextmanager

import numpy as np
import pytest

import radnmt
from radnmt import autodiff as ad
from radnmt import decoding, model, training
from radnmt.autodiff import Tensor
from radnmt.corpus import BOS, EOS, Batch, ExamplePair, make_batches
from radnmt.errors import ConfigError, ContractError, DataError, atomic_write
from radnmt.model import (
    ModelParams,
    decode_step,
    encode,
    forward_loss,
    load_checkpoint,
    save_checkpoint,
)
from radnmt.seeding import derive_rng

from conftest import replay_score, replay_train_loss, tiny_batch, tiny_config


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(char_embed_dim=0)
    with pytest.raises(ConfigError):
        tiny_config(dropout=1.0)


def encode_one(params, src, feats=None, drop_p=0.0, rng=None):
    """encode of a fully unmasked id grid, as plain arrays."""
    mask = np.ones(src.shape, dtype=bool)
    return [t.data for t in encode(src, feats, mask, params, drop_p, rng)]


def test_embedding_concat_length():
    # a no-feature model whose character table holds [char_emb[c] | feat_emb[r]]
    # per (c, r) pair, fed the pair index, reproduces the feature path bitwise
    with_feat = ModelParams.initialize(tiny_config(), seed=0)
    src, feats = np.array([[5, 4, 5], [6, 6, 2]]), np.array([[3, 1, 7], [3, 3, 0]])
    joined_config = tiny_config(char_embed_dim=6, feat_embed_dim=0)
    joined = ModelParams.initialize(joined_config, seed=0, feature_path=False)
    chars, radicals = with_feat["src_char_emb"].data, with_feat["src_feat_emb"].data
    joined["src_char_emb"].data[:6] = np.hstack([chars[src.reshape(-1)], radicals[feats.reshape(-1)]])
    for name, t in with_feat.named():
        if name.startswith(("enc_", "dec_init_")):
            joined[name].data[...] = t.data
    got = encode_one(with_feat, src, feats)
    want = encode_one(joined, np.arange(6).reshape(2, 3))
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_embedding_no_feature_path_is_plain_lookup():
    params = ModelParams.initialize(tiny_config(feat_embed_dim=0), seed=1, feature_path=False)
    src = np.array([[2, 7, 4]])
    plain = encode_one(params, src)
    for feats in (np.array([[1, 2, 3]]), np.array([[7, 7, 0]])):
        for a, b in zip(encode_one(params, src, feats), plain):
            np.testing.assert_array_equal(a, b)


def test_embedding_zero_width_feature_matches_plain_lookup_bitwise():
    # per-name init gives both models the same character table and encoder weights
    zero_width = ModelParams.initialize(tiny_config(feat_embed_dim=0), seed=2)
    plain = ModelParams.initialize(tiny_config(feat_embed_dim=0), seed=2, feature_path=False)
    assert zero_width["src_feat_emb"].shape == (8, 0)
    src, feats = np.array([[0, 3, 7], [4, 4, 2]]), np.array([[1, 2, 3], [5, 6, 0]])
    for drop_p in (0.0, 0.3):
        a = encode_one(zero_width, src, feats, drop_p, derive_rng(0, "drop"))
        b = encode_one(plain, src, None, drop_p, derive_rng(0, "drop"))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def test_same_char_different_radical_differs_iff_features_present():
    src, feats = np.array([[4], [4]]), np.array([[1], [2]])  # one sentence per radical
    with_feat = encode_one(ModelParams.initialize(tiny_config(), seed=3), src, feats)
    baseline = ModelParams.initialize(tiny_config(feat_embed_dim=0), seed=3, feature_path=False)
    plain = encode_one(baseline, src, feats)
    for a, b in zip(with_feat, plain):
        assert not np.array_equal(a[0], a[1])
        np.testing.assert_array_equal(b[0], b[1])


def test_encode_feature_path_needs_feature_ids():
    with pytest.raises(DataError, match="feature ids"):
        encode_one(ModelParams.initialize(tiny_config(), seed=4), np.array([[4, 5]]))


def test_lstm_zero_weights_zero_output():
    params = ModelParams.initialize(tiny_config(), seed=4)
    for name in ("enc_fwd_Wx", "enc_fwd_Wh", "enc_fwd_b", "enc_bwd_Wx", "enc_bwd_Wh", "enc_bwd_b",
                 "dec_init_h_W", "dec_init_h_b", "dec_init_c_W", "dec_init_c_b"):
        params[name].data[...] = 0.0
    ann, h0, c0 = encode_one(params, np.array([[4, 5, 6], [7, 7, 2]]), np.array([[1, 2, 3], [4, 5, 0]]))
    np.testing.assert_array_equal(ann, np.zeros((2, 3, 8)))
    np.testing.assert_array_equal(h0, np.zeros((2, 4)))
    np.testing.assert_array_equal(c0, np.zeros((2, 4)))


def test_lstm_hidden_state_bounded():
    params = ModelParams.initialize(tiny_config(), seed=5, init_low=-3.0, init_high=3.0)
    rng = derive_rng(4, "encoder-bounded")
    ann, h0, c0 = encode_one(params, rng.integers(0, 8, size=(3, 5)), rng.integers(0, 8, size=(3, 5)))
    # h = o * tanh(c) and the start state is a tanh: all inside (-1, 1), though c is unbounded
    for x in (ann, h0, c0):
        assert (np.abs(x) < 1.0).all()


def test_lstm_grad_check():
    # encode's parameters on a ragged batch, through the loss the decoder makes of them
    params = ModelParams.initialize(tiny_config(), seed=5, init_low=-0.5, init_high=0.5)
    batch = tiny_batch(8, batch=2, src_len=4)
    batch.src[1, 2:] = batch.feats[1, 2:] = 0
    batch.src_mask[1, 2:] = False
    encoder_params = [t for name, t in params.named() if name.startswith(("src_", "enc_", "dec_init_"))]
    assert len(encoder_params) == 12

    def f():
        total, count = forward_loss(batch, params)
        return ad.mul(total, Tensor(np.asarray(1.0 / count)))

    assert ad.grad_check(f, encoder_params, eps=2e-3) <= 1e-4


@pytest.mark.parametrize("feature_path", [True, False])
def test_forward_loss_tape_records(feature_path):
    # encoder, decoder, output_nll, with or without dropout; untaped, or with nothing
    # requiring a gradient, nothing is recorded and the loss is the same to the bit
    config = tiny_config() if feature_path else tiny_config(feat_embed_dim=0)
    params = ModelParams.initialize(config, seed=6, feature_path=feature_path)
    for train in (False, True):
        with ad.Tape() as tape:
            taped = forward_loss(tiny_batch(9), params, train=train, dropout=0.3, rng=derive_rng(0, "d"))[0]
        assert len(tape) == 3
        untaped = forward_loss(tiny_batch(9), params, train=train, dropout=0.3, rng=derive_rng(0, "d"))[0]
        for t in params.all():
            t.requires_grad = False
        with ad.Tape() as tape:
            frozen = forward_loss(tiny_batch(9), params, train=train, dropout=0.3, rng=derive_rng(0, "d"))[0]
        for t in params.all():
            t.requires_grad = True
        assert len(tape) == 0 and not untaped.requires_grad and not frozen.requires_grad
        assert taped.data.tobytes() == untaped.data.tobytes() == frozen.data.tobytes()


def test_forget_gate_bias_initialized_to_one():
    params = ModelParams.initialize(tiny_config(), seed=0)
    q = 4
    for name in ("enc_fwd_b", "enc_bwd_b", "dec_b"):
        np.testing.assert_array_equal(params[name].data[q : 2 * q], np.ones(q))
        assert (np.abs(params[name].data[:q]) < 0.1).all()


def test_per_name_init_is_order_independent():
    config = tiny_config()
    a = ModelParams.initialize(config, seed=9)
    b = ModelParams.initialize(config, seed=9)
    for (_, ta), (_, tb) in zip(a.named(), b.named()):
        np.testing.assert_array_equal(ta.data, tb.data)
    baseline = ModelParams.initialize(tiny_config(feat_embed_dim=0), seed=9, feature_path=False)
    np.testing.assert_array_equal(a["tgt_char_emb"].data, baseline["tgt_char_emb"].data)


def test_encode_single_position_annotation_is_concat():
    params = ModelParams.initialize(tiny_config(), seed=1)
    src = np.array([[5]])
    feats = np.array([[3]])
    ann, h0, c0 = encode(src, feats, np.ones((1, 1), dtype=bool), params)
    assert ann.shape == (1, 1, 8)  # 2q
    assert h0.shape == c0.shape == (1, 4)
    # h0 is the affine+tanh map of the backward state after reading position 0
    bwd_h = ann.data[:, 0, 4:]
    np.testing.assert_array_equal(
        h0.data, np.tanh(bwd_h @ params["dec_init_h_W"].data + params["dec_init_h_b"].data)
    )


def test_encode_padding_invariance():
    params = ModelParams.initialize(tiny_config(), seed=2)
    rng = derive_rng(6, "pad")
    src = rng.integers(4, 8, size=(1, 4))
    feats = rng.integers(1, 8, size=(1, 4))
    plain = encode(src, feats, np.ones((1, 4), dtype=bool), params)
    padded_src = np.concatenate([src, np.zeros((1, 3), dtype=np.int64)], axis=1)
    padded_feats = np.concatenate([feats, np.zeros((1, 3), dtype=np.int64)], axis=1)
    mask = np.array([[True] * 4 + [False] * 3])
    padded = encode(padded_src, padded_feats, mask, params)
    np.testing.assert_allclose(padded[0].data[:, :4, :], plain[0].data, atol=1e-12)
    for got, want in zip(padded[1:], plain[1:]):  # the decoder start state h0, c0
        np.testing.assert_allclose(got.data, want.data, atol=1e-12)


@pytest.mark.parametrize("feature_path", [True, False])
def test_encode_mirrored_sentences_swap_the_directions(feature_path):
    # reversing each sentence's real prefix and swapping the directions' weights
    # swaps the annotation halves, mirrored per sentence, bit for bit
    config = tiny_config() if feature_path else tiny_config(feat_embed_dim=0)
    params = ModelParams.initialize(config, seed=7, feature_path=feature_path)
    swap = {"enc_fwd_": "enc_bwd_", "enc_bwd_": "enc_fwd_"}
    swapped = ModelParams(config, feature_path)
    for name, t in params.named():
        swapped[swap.get(name[:8], name[:8]) + name[8:]].data[...] = t.data
    rng = derive_rng(7, "mirror")
    lengths, q = [6, 4, 1], config.hidden_size
    mask = np.arange(6) < np.array(lengths)[:, None]
    src = np.where(mask, rng.integers(4, 8, size=mask.shape), 0)
    feats = np.where(mask, rng.integers(1, 8, size=mask.shape), 0)
    mirror_src, mirror_feats = src.copy(), feats.copy()
    for b, n in enumerate(lengths):
        mirror_src[b, :n], mirror_feats[b, :n] = src[b, n - 1 :: -1], feats[b, n - 1 :: -1]
    ann = encode(src, feats, mask, params)[0].data
    mirrored = encode(mirror_src, mirror_feats, mask, swapped)[0].data
    for b, n in enumerate(lengths):
        np.testing.assert_array_equal(mirrored[b, :n, :q], ann[b, n - 1 :: -1, q:])
        np.testing.assert_array_equal(mirrored[b, :n, q:], ann[b, n - 1 :: -1, :q])


def attention(params, vectors, mask, seed):
    """Context and weights of one ad.decoder_step from a random state; q = 4."""
    rng = derive_rng(seed, "attn-state")
    batch = len(vectors)
    emb, h_tilde, h, c = (rng.normal(size=(batch, 4)) for _ in range(4))
    weights = (params[n].data for n in ("dec_Wx", "dec_Wh", "dec_b", "attn_W", "attn_out_W"))
    _, (*_, alignment, hc) = ad.decoder_step(emb, h_tilde, h, c, vectors, ad._attention_bias(mask), *weights)
    return hc[:, 4:], alignment


def test_attention_single_position_is_identity():
    params = ModelParams.initialize(tiny_config(), seed=3)
    rng = derive_rng(7, "attn")
    vectors = rng.normal(size=(2, 1, 8))
    context, weights = attention(params, vectors, np.ones((2, 1), dtype=bool), 0)
    np.testing.assert_allclose(weights, np.ones((2, 1)))
    np.testing.assert_allclose(context, vectors[:, 0, :])


def test_attention_uniform_over_identical_scores():
    params = ModelParams.initialize(tiny_config(), seed=4)
    rng = derive_rng(8, "attn")
    vectors = np.repeat(rng.normal(size=(1, 1, 8)), 5, axis=1)
    _, weights = attention(params, vectors, np.ones((1, 5), dtype=bool), 1)
    np.testing.assert_allclose(weights, np.full((1, 5), 0.2), atol=1e-12)


def test_attention_weights_form_distribution_and_recompute():
    params = ModelParams.initialize(tiny_config(), seed=5)
    rng = derive_rng(9, "attn")
    vectors = rng.normal(size=(3, 6, 8))
    mask = rng.random((3, 6)) < 0.7
    mask[:, 0] = True
    context, weights = attention(params, vectors, mask, 2)
    np.testing.assert_allclose(weights.sum(axis=1), np.ones(3), atol=1e-12)
    assert (weights[~mask] == 0).all()
    manual = np.einsum("bl,blk->bk", weights, vectors)
    np.testing.assert_allclose(context, manual, atol=1e-12)


def test_attention_all_masked_row_raises():
    params = ModelParams.initialize(tiny_config(), seed=6)
    with pytest.raises(ContractError):
        attention(params, np.zeros((1, 2, 8)), np.zeros((1, 2), dtype=bool), 3)


@pytest.mark.parametrize("path", ["decoder", "beam_search_many"])
def test_all_masked_source_row_raises(path, monkeypatch):
    # checked once per decoder op and once per beam grid, not at each step
    params = ModelParams.initialize(tiny_config(), seed=6)
    batch = tiny_batch(4)
    with pytest.raises(ContractError, match="no unmasked source position"):
        if path == "decoder":
            batch.src_mask[1] = False
            forward_loss(batch, params)
        else:
            pad_rows = decoding.pad_rows

            def pad_rows_masking_row_1(rows):
                grid, mask = pad_rows(rows)
                mask[1] = False
                return grid, mask

            monkeypatch.setattr(decoding, "pad_rows", pad_rows_masking_row_1)
            decoding.beam_search_many(params, [(batch.src[0], batch.feats[0]), (batch.src[1], batch.feats[1])])


def test_decode_step_shapes_and_determinism():
    params = ModelParams.initialize(tiny_config(), seed=7)
    batch = tiny_batch(0)
    vectors, *state = (t.data for t in encode(batch.src, batch.feats, batch.src_mask, params))
    ht, bias = np.zeros((2, 4)), ad._attention_bias(batch.src_mask)
    out1 = decode_step(batch.tgt[:, 0], ht, state, vectors, bias, params)
    out2 = decode_step(batch.tgt[:, 0], ht, state, vectors, bias, params)
    assert out1[0].shape == (2, 8)  # tgt vocab logits
    np.testing.assert_array_equal(out1[0], out2[0])


def test_decode_step_rejects_a_mask_for_the_bias():
    # a bool mask added as a bias would shift scores by 1/0 and mask nothing
    params = ModelParams.initialize(tiny_config(), seed=7)
    batch = tiny_batch(0)
    vectors, *state = (t.data for t in encode(batch.src, batch.feats, batch.src_mask, params))
    with pytest.raises(ContractError, match="attention bias is bool"):
        decode_step(batch.tgt[:, 0], np.zeros((2, 4)), state, vectors, batch.src_mask, params)


def test_input_feeding_changes_logits():
    params = ModelParams.initialize(tiny_config(), seed=8)
    batch = tiny_batch(1)
    vectors, *state = (t.data for t in encode(batch.src, batch.feats, batch.src_mask, params))
    rng = derive_rng(10, "feed")
    fed = rng.normal(size=(2, 4))
    bias = ad._attention_bias(batch.src_mask)
    without = decode_step(batch.tgt[:, 0], np.zeros((2, 4)), state, vectors, bias, params)[0]
    with_feed = decode_step(batch.tgt[:, 0], fed, state, vectors, bias, params)[0]
    assert params["dec_Wx"].data[4:, :].any()  # the h~ slice is nonzero
    assert not np.array_equal(with_feed, without)


def test_forward_loss_uniform_model_is_log_vocab():
    params = ModelParams.initialize(tiny_config(), seed=9)
    params["out_W"].data[:] = 0.0
    params["out_b"].data[:] = 0.0
    batch = tiny_batch(2)
    loss, count = forward_loss(batch, params)
    assert loss.item() / count == pytest.approx(np.log(8), abs=1e-12)


def test_forward_loss_batch_equals_sum_of_singles():
    params = ModelParams.initialize(tiny_config(), seed=10)
    batch = tiny_batch(3, batch=4, src_len=4, tgt_chars=3)
    total, count = forward_loss(batch, params)
    single_sum = 0.0
    single_count = 0
    for i in range(4):
        one = Batch(
            batch.src[i : i + 1], batch.feats[i : i + 1], batch.src_mask[i : i + 1],
            batch.tgt[i : i + 1], batch.tgt_mask[i : i + 1],
        )
        loss_i, count_i = forward_loss(one, params)
        single_sum += loss_i.item()
        single_count += count_i
    assert count == single_count
    assert total.item() == pytest.approx(single_sum, abs=1e-10)


def test_forward_loss_equals_per_step_replay():
    # one output_nll over all steps of a ragged batch,
    # against decode_step's logits scored one sentence and one step at a time
    params = ModelParams.initialize(tiny_config(), seed=12, init_low=-0.5, init_high=0.5)
    rng = derive_rng(13, "ragged")
    examples = [
        ExamplePair(
            np.append(rng.integers(4, 8, size=n_src), EOS),
            np.append(rng.integers(1, 8, size=n_src), 0),
            np.concatenate([[BOS], rng.integers(4, 8, size=n_tgt), [EOS]]),
        )
        for n_src, n_tgt in [(1, 4), (3, 0), (5, 2), (2, 6)]
    ]
    (batch,) = make_batches(examples, batch_size=4)
    assert not batch.src_mask.all() and not batch.tgt_mask.all()
    loss, count = forward_loss(batch, params)
    expected = -sum(replay_score(params, e.src_ids, e.src_feats, e.tgt_ids[1:]) for e in examples)
    assert count == sum(len(e.tgt_ids) - 1 for e in examples)
    assert abs(loss.item() - expected) <= 1e-12 * abs(expected)


def test_forward_loss_padding_invariance():
    params = ModelParams.initialize(tiny_config(), seed=11)
    batch = tiny_batch(4, batch=2, src_len=3, tgt_chars=2)
    base, _ = forward_loss(batch, params)
    padded = Batch(
        np.concatenate([batch.src, np.zeros((2, 2), dtype=np.int64)], axis=1),
        np.concatenate([batch.feats, np.zeros((2, 2), dtype=np.int64)], axis=1),
        np.concatenate([batch.src_mask, np.zeros((2, 2), dtype=bool)], axis=1),
        np.concatenate([batch.tgt, np.zeros((2, 1), dtype=np.int64)], axis=1),
        np.concatenate([batch.tgt_mask, np.zeros((2, 1), dtype=bool)], axis=1),
    )
    padded_loss, _ = forward_loss(padded, params)
    assert padded_loss.item() == pytest.approx(base.item(), abs=1e-12)


def test_full_model_grad_check_tiny_config():
    params = ModelParams.initialize(tiny_config(), seed=12)
    batch = tiny_batch(5, batch=1, src_len=3, tgt_chars=1)

    def f():
        total, count = forward_loss(batch, params)
        return ad.mul(total, Tensor(np.asarray(1.0 / count)))

    assert ad.grad_check(f, params.all(), eps=2e-3) <= 1e-4


def test_dropout_draws_do_not_leak_into_eval():
    params = ModelParams.initialize(tiny_config(dropout=0.5), seed=13)
    batch = tiny_batch(6)
    a, _ = forward_loss(batch, params, train=False)
    b, _ = forward_loss(batch, params, train=False)
    assert a.item() == b.item()


def test_train_mode_dropout_is_seeded(table):
    params = ModelParams.initialize(tiny_config(dropout=0.5), seed=14)
    batch = tiny_batch(7)
    a, _ = forward_loss(batch, params, train=True, dropout=0.5, rng=derive_rng(0, "d"))
    b, _ = forward_loss(batch, params, train=True, dropout=0.5, rng=derive_rng(0, "d"))
    c, _ = forward_loss(batch, params, train=True, dropout=0.5, rng=derive_rng(1, "d"))
    assert a.item() == b.item()
    assert a.item() != c.item()


def test_train_mode_without_dropout_equals_eval_mode():
    # the rate comes from the caller only; ModelConfig.dropout is never read
    params = ModelParams.initialize(tiny_config(dropout=0.3), seed=15)
    batch = tiny_batch(8)
    with ad.Tape() as tape:
        trained, _ = forward_loss(batch, params, train=True)
    ad.backward(trained, tape)
    trained_grads = [g.copy() for g in params.grads()]
    params.zero_grads()
    with ad.Tape() as tape:
        evaluated, _ = forward_loss(batch, params, train=False)
    ad.backward(evaluated, tape)
    assert trained.data.tobytes() == evaluated.data.tobytes()
    for got, want in zip(trained_grads, params.grads(), strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("feature_path", [True, False])
def test_train_mode_forward_loss_equals_dropout_replay(feature_path):
    # the masks of a copy of the rng, drawn in the documented order and
    # applied one step at a time, give the same loss at dropout 0.3
    # p1 = 6 and q = 4, so mixing up the two masks of a step changes what is drawn
    config = tiny_config(char_embed_dim=6, feat_embed_dim=2 if feature_path else 0)
    params = ModelParams.initialize(config, seed=17, feature_path=feature_path, init_low=-0.5, init_high=0.5)
    batch = tiny_batch(10, batch=3, src_len=4, tgt_chars=3)
    batch.src_mask[1, 2:] = batch.tgt_mask[2, 3:] = False
    loss, _ = forward_loss(batch, params, train=True, dropout=0.3, rng=derive_rng(2, "d"))
    expected = replay_train_loss(params, batch, 0.3, derive_rng(2, "d"))
    assert abs(loss.item() - expected) <= 1e-12 * abs(expected)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = ModelParams.initialize(tiny_config(), seed=15)
    batch = tiny_batch(8)
    before, _ = forward_loss(batch, params)
    path = tmp_path / "model.rnmt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.config == params.config
    assert loaded.feature_path == params.feature_path
    for (name, a), (_, b) in zip(params.named(), loaded.named()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
    after, _ = forward_loss(batch, loaded)
    assert after.item() == before.item()


def test_loaded_checkpoint_trains_like_the_saved_model(tmp_path):
    # the loaded tensors are views of one payload buffer: training updates each in place, apart
    params = ModelParams.initialize(tiny_config(), seed=17)
    save_checkpoint(params, tmp_path / "model.rnmt")
    loaded = load_checkpoint(tmp_path / "model.rnmt")
    rng = derive_rng(18, "examples")
    examples = [
        ExamplePair(np.append(rng.integers(4, 8, size=3), EOS), np.append(rng.integers(1, 8, size=3), 0),
                    np.concatenate([[BOS], rng.integers(4, 8, size=2), [EOS]]))
        for _ in range(6)
    ]
    config = training.TrainConfig(lr=1.0, decay_mode="none", dropout=0.3, batch_size=3, epochs=2, seed=19)
    reports = [training.train(p, examples, [], config) for p in (params, loaded)]
    assert reports[0].batch_nll == reports[1].batch_nll
    assert reports[0].pre_clip_norms == reports[1].pre_clip_norms
    for (name, a), (_, b) in zip(params.named(), loaded.named()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)


def test_failed_checkpoint_save_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.rnmt"
    save_checkpoint(ModelParams.initialize(tiny_config(), seed=15), path)
    before = path.read_bytes()
    written = []

    class FailOnPayload:
        def __init__(self, f):
            self.f = f

        def write(self, data):
            written.append(data)
            if len(written) == 5:
                raise OSError("No space left on device")
            return self.f.write(data)

    @contextmanager
    def failing_write(target, mode):
        with atomic_write(target, mode) as f:
            yield FailOnPayload(f)

    monkeypatch.setattr(model, "atomic_write", failing_write)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(ModelParams.initialize(tiny_config(), seed=16), path)
    assert len(written) == 5  # magic, version, manifest length and manifest went out before the payload failed
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.rnmt"]


@pytest.mark.parametrize("made_by", ["initialize", "load"])
def test_params_are_views_of_one_array(made_by, tmp_path):
    # Every tensor's .data and .grad are views of params.data and params.grad.
    # zero_grads makes a fresh np.zeros array (calloc: pages backward never
    # writes add no RSS) and rebinds the views. In a replay of perfbench's
    # paper-shape set-up and finite-difference check, peak RSS read 739.0 MB
    # so, 851.3 MB with one persistent array and fill(0), and 963.3 MB with
    # np.zeros_like, which touches every page.
    params = ModelParams.initialize(tiny_config(), seed=20)
    if made_by == "load":
        save_checkpoint(params, tmp_path / "model.rnmt")
        params = load_checkpoint(tmp_path / "model.rnmt")

    def assert_views(flat, views):
        base, offset = flat.__array_interface__["data"][0], 0
        for view in views:
            assert np.shares_memory(view, flat)
            assert view.__array_interface__["data"][0] == base + 8 * offset
            offset += view.size
        assert offset == flat.size

    assert_views(params.data, [t.data for t in params.all()])
    assert_views(params.grad, [t.grad for t in params.all()])
    assert all(g is t.grad for g, t in zip(params.grads(), params.all(), strict=True))
    old = params.grad
    params.grad[:] = 1.0
    params.zero_grads()
    assert params.grad is not old and not params.grad.any()
    assert_views(params.grad, [t.grad for t in params.all()])


def test_checkpoint_with_removed_config_fields_loads(tmp_path):
    # manifests written before ModelConfig lost its single-valued
    # `layers` and `attention` fields still carry them
    params = ModelParams.initialize(tiny_config(), seed=16)
    path = tmp_path / "model.rnmt"
    save_checkpoint(params, path)
    raw = path.read_bytes()
    (manifest_len,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16 : 16 + manifest_len])
    manifest["config"].update(layers=1, attention="general")
    old_manifest = json.dumps(manifest).encode("utf-8")
    header = raw[:8] + struct.pack("<Q", len(old_manifest))
    path.write_bytes(header + old_manifest + raw[16 + manifest_len :])
    loaded = load_checkpoint(path)
    assert loaded.config == params.config
    for (name, a), (_, b) in zip(params.named(), loaded.named()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)


def test_checkpoint_shape_past_payload_is_data_error(tmp_path):
    # 2**62 * 4 elements wrap to 0 in int64 arithmetic
    path = tmp_path / "model.rnmt"
    save_checkpoint(ModelParams.initialize(tiny_config(), seed=16), path)
    raw = path.read_bytes()
    (manifest_len,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16 : 16 + manifest_len])
    manifest["tensors"][0]["shape"] = [2**62, 4]
    edited = json.dumps(manifest).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(edited)) + edited + raw[16 + manifest_len :])
    with pytest.raises(DataError, match="payload ends inside src_char_emb"):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.rnmt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)
