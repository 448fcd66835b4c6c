import math

import numpy as np
import pytest

from radnmt import autodiff as ad
from radnmt.errors import NumericError, ShapeError, TapeError, UsageError
from radnmt.seeding import derive_rng


def T(rng, *shape):
    return ad.Tensor(rng.normal(size=shape), requires_grad=True)


def lstm_inputs(rng, length, batch, q):
    """xw, Wh, h0, c0 for ad.lstm. Halving xw and Wh keeps the gates out of
    saturation, so no gradient sinks into grad_check's finite-difference noise."""
    xw = ad.Tensor(0.5 * rng.normal(size=(length * batch, 4 * q)), requires_grad=True)
    Wh = ad.Tensor(0.5 * rng.normal(size=(q, 4 * q)), requires_grad=True)
    return xw, Wh, T(rng, batch, q), T(rng, batch, q)


def total(x):
    """Reduce to a scalar with a fixed weighting so gradients are generic."""
    rows = ad.Tensor(np.ones((1, x.shape[0])))
    cols = ad.Tensor(np.ones((x.shape[1], 1)))
    return ad.matmul(ad.matmul(rows, x), cols)


def weighted_sum(x, weight):
    """sum(x * weight) as a (1, 1) tensor, for outputs of any rank.

    No op of the engine reduces a 3-D tensor to a 2-D one, so this test
    helper records its own (trivial) VJP.
    """
    return ad._emit("weighted_sum", np.array([[np.vdot(x.data, weight)]]), (x,), lambda g: (g[0, 0] * weight,))


def decoder_inputs(rng, steps, batch, src_len, p1, q):
    """emb, h0, c0, vectors and the five weights of ad.decoder, all trainable.
    Halving the weights keeps the gates out of saturation, as in lstm_inputs."""
    shapes = [(steps * batch, p1), (batch, q), (batch, q), (batch, src_len, 2 * q),
              (p1 + q, 4 * q), (q, 4 * q), (4 * q,), (q, 2 * q), (3 * q, q)]
    return [ad.Tensor(0.5 * rng.normal(size=s), requires_grad=True) for s in shapes]


def test_softmax_symmetry():
    out = np.exp(ad.log_softmax(np.zeros((1, 2))))
    np.testing.assert_allclose(out, [[0.5, 0.5]])


def test_matmul_identity():
    rng = derive_rng(0, "matmul")
    a = ad.Tensor(rng.normal(size=(3, 5)))
    out = ad.matmul(ad.Tensor(np.eye(3)), a)
    np.testing.assert_array_equal(out.data, a.data)


def test_tanh_sigmoid_at_zero():
    assert ad.tanh(ad.Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]


def test_masked_nll_uniform_logits():
    v = 7
    logits = ad.Tensor(np.zeros((4, v)))
    targets = np.array([0, 3, 6, 2])
    mask = np.array([1.0, 1.0, 0.0, 1.0])
    out = ad.masked_nll(logits, targets, mask)
    assert out.item() == pytest.approx(3 * math.log(v), abs=1e-12)


def test_backward_linear_map_exact():
    # loss = sum(W x): dW = ones * x^T exactly, dx = W^T ones
    rng = derive_rng(1, "linear")
    W = T(rng, 3, 4)
    x = ad.Tensor(rng.normal(size=(4, 1)))
    with ad.Tape() as tape:
        loss = total(ad.matmul(W, x))
    ad.backward(loss, tape)
    np.testing.assert_array_equal(W.grad, np.ones((3, 1)) @ x.data.T)
    assert x.grad is None  # a constant input gets no gradient


def test_unused_parameter_has_no_gradient():
    rng = derive_rng(2, "unused")
    used, unused = T(rng, 2, 2), T(rng, 2, 2)
    with ad.Tape() as tape:
        loss = total(ad.tanh(used))
    ad.backward(loss, tape)
    assert used.grad is not None
    assert unused.grad is None  # treated as zero downstream


def test_nested_tape_raises():
    with ad.Tape() as outer:
        with pytest.raises(TapeError, match="already recording"):
            with ad.Tape():
                pass
        assert ad.active_tape() is outer
    assert ad.active_tape() is None


def test_double_backward_doubles_grads():
    rng = derive_rng(3, "double")
    w = T(rng, 2, 3)
    with ad.Tape() as tape:
        loss = total(ad.mul(w, w))
    ad.backward(loss, tape)
    once = w.grad.copy()
    ad.backward(loss, tape)
    np.testing.assert_array_equal(w.grad, 2 * once)


def test_backward_requires_scalar():
    rng = derive_rng(5, "scalar")
    w = T(rng, 2, 2)
    with ad.Tape() as tape:
        y = ad.tanh(w)
    with pytest.raises(ShapeError):
        ad.backward(y, tape)


def test_ops_outside_tape_do_not_record():
    rng = derive_rng(6, "notape")
    w = T(rng, 2, 2)
    out = ad.tanh(w)
    assert out.requires_grad is False


def test_shape_errors_name_both_shapes():
    a, b = ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(a, b)


def test_non_finite_detection():
    big = ad.Tensor(np.full((2, 2), 1e200))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="matmul"):
        ad.matmul(big, big)


def test_softmax_rows_sum_to_one():
    rng = derive_rng(7, "softmax")
    out = np.exp(ad.log_softmax(rng.normal(size=(5, 9)) * 10))
    np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)
    assert (out >= 0).all()


def test_softmax_masked_lanes_are_exactly_zero():
    # the decoder's attention softmax: a masked source position gets weight
    # exactly 0, so its annotation neither moves H~ nor takes a gradient
    rng = derive_rng(8, "softmax-mask")
    emb, h0, c0, vectors, *weights = decoder_inputs(rng, 2, 3, 4, 3, 3)
    mask = np.array([[True, False, True, True]] * 3)
    with ad.Tape() as tape:
        out = ad.decoder(emb, h0, c0, vectors, mask, *weights)
        loss = total(out)
    ad.backward(loss, tape)
    assert (vectors.grad[:, 1] == 0.0).all() and vectors.grad[:, 0].all()
    vectors.data[:, 1] = 1e3
    np.testing.assert_array_equal(ad.decoder(emb, h0, c0, vectors, mask, *weights).data, out.data)


def test_dropout_keep_probability_one_is_identity():
    rng = derive_rng(10, "dropout")
    x = ad.Tensor(rng.normal(size=(4, 6)))
    out = ad.dropout_apply(x, ad.make_dropout_mask(x.shape, 0.0, derive_rng(0, "mask")))
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_inverted_scaling_preserves_expectation():
    rng = derive_rng(11, "dropout-exp")
    x = ad.Tensor(np.ones((200, 50)))
    out = ad.dropout_apply(x, ad.make_dropout_mask(x.shape, 0.3, rng))
    assert out.data.mean() == pytest.approx(1.0, abs=0.02)


def test_embedding_rejects_out_of_range_id():
    table = ad.Tensor(np.zeros((4, 2)))
    with pytest.raises(ShapeError, match="position 1"):
        ad.embedding_lookup(table, np.array([0, 7]))


def test_uniform_init_interval_and_determinism():
    a = ad.uniform_init((50, 50), rng=derive_rng(13, "init"))
    b = ad.uniform_init((50, 50), rng=derive_rng(13, "init"))
    assert (a.data >= -0.1).all() and (a.data < 0.1).all()
    np.testing.assert_array_equal(a.data, b.data)
    assert a.requires_grad
    with pytest.raises(UsageError):
        ad.uniform_init((2,), low=0.2, high=0.1, rng=derive_rng(0, "x"))


def test_uniform_init_mean_near_zero():
    t = ad.uniform_init((100, 100), rng=derive_rng(14, "mean"))
    assert abs(t.data.mean()) < 0.01


def test_clip_by_global_norm_examples():
    g1, g2 = np.full(4, 0.8), np.full(4, 0.6)  # global norm 2.0
    grads, pre = ad.clip_by_global_norm([g1, g2], 1.0)
    assert pre == pytest.approx(2.0, abs=1e-12)
    assert ad.global_norm(grads) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(grads[0], np.full(4, 0.4))

    small = [np.full(2, 0.1)]
    _, pre = ad.clip_by_global_norm(small, 1.0)
    assert pre < 1.0
    np.testing.assert_array_equal(small[0], np.full(2, 0.1))


@pytest.mark.parametrize("seed", range(20))
def test_clip_post_norm_property(seed):
    rng = derive_rng(seed, "clip")
    grads = [rng.normal(size=s) for s in ((3, 4), (7,), (2, 2, 2))]
    _, pre = ad.clip_by_global_norm(grads, 1.0)
    assert ad.global_norm(grads) <= min(pre, 1.0) + 1e-12


def test_clip_rejects_non_finite():
    with pytest.raises(NumericError):
        ad.clip_by_global_norm([np.array([np.inf])], 1.0)


def _op_cases(rng):
    """(name, builder, params) triples with generic weighted-sum losses."""
    mix = ad.Tensor(rng.normal(size=(3, 4)))
    weights = {}

    def weighted(x):
        # fixed weighting per shape so each case is a deterministic function
        key = x.shape
        if key not in weights:
            weights[key] = ad.Tensor(rng.normal(size=key))
        return total(ad.mul(x, weights[key]))

    a, b = T(rng, 3, 4), T(rng, 4, 2)
    x, y = T(rng, 3, 4), T(rng, 3, 4)
    bias = T(rng, 4)
    emb = T(rng, 5, 3)
    xw, Wh, h0, c0 = lstm_inputs(rng, 3, 2, 3)
    lstm_mask = np.array([[True, True, False], [True, False, True]])
    per_step = rng.normal(size=(2, 3, 3))

    def lstm_loss(reverse, c_init=c0):
        H, h, c = ad.lstm(xw, Wh, h0, c_init, lstm_mask, reverse)
        return total(ad.concat([weighted(ad.concat([h, c], axis=1)), weighted_sum(H, per_step)], axis=1))

    # 3 steps over a ragged pair of sources (4 and 2 real positions)
    dec = decoder_inputs(rng, 3, 2, 4, 3, 3)
    dec_mask = np.array([[True, True, True, True], [True, True, False, False]])
    feed_mask = ad.make_dropout_mask((3, 2, 3), 0.4, derive_rng(1, "drop"))

    def decoder_loss(feed_keep):
        emb, h0, c0, vectors, *weights = dec
        return weighted(ad.decoder(emb, h0, c0, vectors, dec_mask, *weights, feed_keep=feed_keep))

    logits = T(rng, 3, 5)
    targets = np.array([1, 0, 4])
    mask = np.array([1.0, 1.0, 0.0])
    drop_mask = ad.make_dropout_mask((3, 4), 0.4, derive_rng(0, "drop"))
    return [
        ("matmul", lambda: weighted(ad.matmul(a, b)), [a, b]),
        ("add_bias", lambda: weighted(ad.add(x, bias)), [x, bias]),
        ("mul", lambda: weighted(ad.mul(x, ad.mul(y, mix))), [x, y]),
        ("tanh", lambda: weighted(ad.tanh(x)), [x]),
        ("concat", lambda: weighted(ad.concat([x, y], axis=1)), [x, y]),
        ("embedding", lambda: weighted(ad.embedding_lookup(emb, np.array([0, 2, 2]))), [emb]),
        ("dropout", lambda: weighted(ad.dropout_apply(x, drop_mask)), [x]),
        ("masked_nll", lambda: ad.masked_nll(logits, targets, mask), [logits]),
        ("lstm", lambda: lstm_loss(False), [xw, Wh, h0, c0]),
        ("lstm_reverse", lambda: lstm_loss(True), [xw, Wh, h0, c0]),
        # one leaf as both h0 and c0: two gradients for it from one record
        ("lstm_shared_init", lambda: lstm_loss(False, c_init=h0), [xw, Wh, h0]),
        ("decoder", lambda: decoder_loss(None), dec),
        ("decoder_feed_dropout", lambda: decoder_loss(feed_mask), dec),
    ]


@pytest.mark.parametrize("seed", range(20))
def test_every_op_passes_grad_check(seed):
    rng = derive_rng(seed, "op-grads")
    for name, f, params in _op_cases(rng):
        err = ad.grad_check(f, params)
        assert err <= 1e-4, f"{name} seed {seed}: rel err {err:.3e}"


def test_multi_output_op_with_unused_outputs_backpropagates():
    # only h_T reaches the loss; H and c_T get zero output gradients
    rng = derive_rng(22, "lstm-unused")
    xw, Wh, h0, c0 = lstm_inputs(rng, 4, 2, 3)
    mask = np.array([[True, True, True, True], [True, True, False, False]])
    assert ad.grad_check(lambda: total(ad.lstm(xw, Wh, h0, c0, mask)[1]), [xw, Wh, h0, c0]) <= 1e-4
    assert not np.any(xw.grad.reshape(4, 2, -1)[2:, 1])  # padded steps take no gradient


def test_lstm_non_finite_gate_raises():
    xw = ad.Tensor(np.full((2, 4), np.inf))
    zero = ad.Tensor(np.zeros((1, 1)))
    with pytest.raises(NumericError, match="lstm"):
        ad.lstm(xw, ad.Tensor(np.zeros((1, 4))), zero, zero)


def test_decoder_rejects_mismatched_shapes():
    emb, h0, c0, vectors, *weights = decoder_inputs(derive_rng(23, "decoder-shapes"), 2, 3, 4, 3, 3)
    with pytest.raises(ShapeError, match="decoder"):
        ad.decoder(emb, h0, c0, vectors, np.ones((3, 5), dtype=bool), *weights)


def test_grad_check_constant_function_is_exact():
    w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    const = ad.Tensor(np.zeros((1, 1)))
    assert ad.grad_check(lambda: ad.mul(const, const), [w]) == 0.0


def test_deterministic_forward_bit_identical():
    def once():
        rng = derive_rng(21, "determinism")
        x = T(rng, 4, 4)
        with ad.Tape() as tape:
            loss = total(ad.mul(ad.tanh(ad.matmul(x, x)), x))
        ad.backward(loss, tape)
        return loss.item(), x.grad.copy()

    l1, g1 = once()
    l2, g2 = once()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)
