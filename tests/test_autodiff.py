import math

import numpy as np
import pytest

from radnmt import autodiff as ad
from radnmt.errors import NumericError, ShapeError, TapeError, UsageError
from radnmt.seeding import derive_rng


def T(rng, *shape):
    return ad.Tensor(rng.normal(size=shape), requires_grad=True)


def encoder_inputs(rng, length, batch, widths, q, vocab=5):
    """Tables of the given widths, their time-major ids, and the ten weights of
    ad.encoder, all trainable. Halving every value keeps the gates out of
    saturation, so no gradient sinks into grad_check's finite-difference noise."""
    p = sum(widths)
    shapes = [(vocab, w) for w in widths] + [(p, 4 * q), (q, 4 * q), (4 * q,)] * 2 + [(q, q), (q,)] * 2
    tensors = [ad.Tensor(0.5 * rng.normal(size=s), requires_grad=True) for s in shapes]
    ids = [rng.integers(0, vocab, size=length * batch) for _ in widths]
    return tensors[: len(widths)], ids, tensors[len(widths) :]


def total(x):
    """Reduce to a scalar with a fixed weighting so gradients are generic."""
    rows = ad.Tensor(np.ones((1, x.shape[0])))
    cols = ad.Tensor(np.ones((x.shape[1], 1)))
    return ad.matmul(ad.matmul(rows, x), cols)


def weighted_sum(xs, weights):
    """The sum over i of sum(xs[i] * weights[i]) as a (1, 1) tensor, for outputs of any rank.

    No op of the engine reduces a 3-D tensor to a 2-D one, or adds two
    scalars, so this test helper records its own (trivial) VJP.
    """
    value = sum(np.vdot(x.data, w) for x, w in zip(xs, weights))
    vjp = lambda g: tuple(g[0, 0] * w for w in weights)
    return ad._emit("weighted_sum", np.array([[value]]), tuple(xs), vjp)


def exp_sum(x, k, fault=0.0):
    """sum(exp(k x)) as a (1, 1) tensor, built like weighted_sum; its VJP is off by the relative fault."""
    value = np.exp(k * x.data)
    vjp = lambda g: (g[0, 0] * k * value * (1.0 + fault),)
    return ad._emit("exp_sum", np.array([[value.sum()]]), (x,), vjp)


def decoder_inputs(rng, steps, batch, src_len, p1, q, vocab=5):
    """A table, its time-major ids, then h0, c0, vectors and the five weights of
    ad.decoder, all trainable. Halving every value keeps the gates out of
    saturation, as in encoder_inputs."""
    shapes = [(vocab, p1), (batch, q), (batch, q), (batch, src_len, 2 * q),
              (p1 + q, 4 * q), (q, 4 * q), (4 * q,), (q, 2 * q), (3 * q, q)]
    table, *rest = (ad.Tensor(0.5 * rng.normal(size=s), requires_grad=True) for s in shapes)
    return table, rng.integers(0, vocab, size=steps * batch), rest


def test_softmax_symmetry():
    out = np.exp(ad.log_softmax(np.zeros((1, 2))))
    np.testing.assert_allclose(out, [[0.5, 0.5]])


def test_matmul_identity():
    rng = derive_rng(0, "matmul")
    a = ad.Tensor(rng.normal(size=(3, 5)))
    out = ad.matmul(ad.Tensor(np.eye(3)), a)
    np.testing.assert_array_equal(out.data, a.data)


def test_tanh_sigmoid_at_zero():
    # zero gate pre-activations: sigmoid(0) = 1/2 on i, f, o and tanh(0) = 0 on g
    acts = np.zeros((1, 4))
    c, tanh_c, h = ad._cell(acts, np.zeros((1, 1)), "cell")
    assert acts.tolist() == [[0.5, 0.5, 0.5, 0.0]]
    assert c.tolist() == tanh_c.tolist() == h.tolist() == [[0.0]]


def test_sigmoid_against_extended_precision():
    # 0.5 * tanh(0.5 * z) + 0.5 against 1 / (1 + e^-z) in long double
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double has no more precision than double here")
    z = np.linspace(-745.0, 745.0, 400_001)
    exact = 1.0 / (1.0 + np.exp(-z.astype(np.longdouble)))
    assert np.abs(ad._sigmoid(z) - exact).max() <= 1.2e-16
    in_place = z.copy()
    assert ad._sigmoid(in_place, out=in_place) is in_place
    np.testing.assert_array_equal(in_place, ad._sigmoid(z))
    with np.errstate(all="raise"):
        assert ad._sigmoid(np.array([-1e308, 0.0, 1e308])).tolist() == [0.0, 0.5, 1.0]


def test_masked_nll_uniform_logits():
    # zero projection weights and bias: every h~ row gets uniform logits
    v = 7
    h_tilde = ad.Tensor(derive_rng(4, "uniform").normal(size=(4, 3)))
    targets = np.array([0, 3, 6, 2])
    mask = np.array([1.0, 1.0, 0.0, 1.0])
    out = ad.output_nll(h_tilde, ad.Tensor(np.zeros((3, v))), ad.Tensor(np.zeros(v)), targets, mask)
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
        loss = total(ad.mul(used, used))
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
        y = ad.mul(w, w)
    with pytest.raises(ShapeError):
        ad.backward(y, tape)


def test_ops_outside_tape_do_not_record():
    rng = derive_rng(6, "notape")
    w = T(rng, 2, 2)
    out = ad.mul(w, w)
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
    table, ids, (h0, c0, vectors, *weights) = decoder_inputs(rng, 2, 3, 4, 3, 3)
    mask = np.array([[True, False, True, True]] * 3)
    with ad.Tape() as tape:
        out = ad.decoder(table, ids, None, h0, c0, vectors, mask, *weights)
        loss = total(out)
    ad.backward(loss, tape)
    assert (vectors.grad[:, 1] == 0.0).all() and vectors.grad[:, 0].all()
    vectors.data[:, 1] = 1e3
    np.testing.assert_array_equal(ad.decoder(table, ids, None, h0, c0, vectors, mask, *weights).data, out.data)


def test_dropout_keep_probability_one_is_identity():
    # a decoder keep mask drawn at drop probability 0 changes nothing, bit for bit
    table, ids, (h0, c0, vectors, *weights) = decoder_inputs(derive_rng(10, "dropout"), 3, 2, 4, 3, 4)
    mask = np.ones((2, 4), dtype=bool)
    keep = ad.make_dropout_mask((3, 2, 7), 0.0, derive_rng(0, "mask"))
    plain = ad.decoder(table, ids, None, h0, c0, vectors, mask, *weights)
    np.testing.assert_array_equal(ad.decoder(table, ids, keep, h0, c0, vectors, mask, *weights).data, plain.data)


def test_dropout_inverted_scaling_preserves_expectation():
    # keep[..., :p1] scales the embeddings: halving the table and doubling
    # those columns is the same decoder; a mask at p = 0.3 has mean 1
    table, ids, (h0, c0, vectors, *weights) = decoder_inputs(derive_rng(11, "dropout-exp"), 3, 2, 4, 3, 4)
    mask = np.ones((2, 4), dtype=bool)
    keep = np.ones((3, 2, 7))
    keep[..., :3] = 2.0
    halved = ad.Tensor(table.data / 2.0)
    np.testing.assert_array_equal(ad.decoder(halved, ids, keep, h0, c0, vectors, mask, *weights).data,
                                  ad.decoder(table, ids, None, h0, c0, vectors, mask, *weights).data)
    keep = ad.make_dropout_mask((200, 50), 0.3, derive_rng(11, "dropout-mask"))
    assert set(np.unique(keep)) == {0.0, 1.0 / 0.7}
    assert keep.mean() == pytest.approx(1.0, abs=0.02)


def test_embedding_rejects_out_of_range_id():
    # one step over two sentences: the second reads target id 7 of a 4-row table
    table, _, (h0, c0, vectors, *weights) = decoder_inputs(derive_rng(12, "ids"), 1, 2, 3, 2, 3, vocab=4)
    with pytest.raises(ShapeError, match="decoder: id 7 at position 1"):
        ad.decoder(table, np.array([0, 7]), None, h0, c0, vectors, np.ones((2, 3), dtype=bool), *weights)


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
    # 4 positions over a ragged pair of sources; every output reaches the loss
    enc_mask = np.array([[True, True, True, False], [True, False, True, True]])
    enc_keep = ad.make_dropout_mask((8, 3), 0.4, derive_rng(2, "drop"))
    enc_feat = encoder_inputs(rng, 4, 2, (2, 1), 3)
    enc_plain = encoder_inputs(rng, 4, 2, (3,), 3)
    enc_weights = [rng.normal(size=s) for s in ((2, 4, 6), (2, 3), (2, 3))]

    def encoder_loss(inputs, keep):
        tables, ids, weights = inputs
        return weighted_sum(ad.encoder(tables, ids, enc_mask, keep, *weights), enc_weights)

    # 3 steps over a ragged pair of sources (4 and 2 real positions); ids repeat table rows
    table, _, dec = decoder_inputs(rng, 3, 2, 4, 3, 3)
    dec_ids = np.array([0, 2, 2, 4, 0, 1])
    dec_mask = np.array([[True, True, True, True], [True, True, False, False]])
    dec_keep = ad.make_dropout_mask((3, 2, 6), 0.4, derive_rng(1, "drop"))

    def decoder_loss(keep, shared_init=False):
        h0, c0, vectors, *weights = dec
        c0 = h0 if shared_init else c0
        return weighted(ad.decoder(table, dec_ids, keep, h0, c0, vectors, dec_mask, *weights))

    # the third row is masked out: its h~ gets no gradient, its target no say
    h_tilde, out_W, out_b = T(rng, 3, 4), T(rng, 4, 5), T(rng, 5)
    targets = np.array([1, 0, 4])
    mask = np.array([1.0, 1.0, 0.0])
    return [
        ("matmul", lambda: weighted(ad.matmul(a, b)), [a, b]),
        ("mul", lambda: weighted(ad.mul(x, ad.mul(y, mix))), [x, y]),
        ("output_nll", lambda: ad.output_nll(h_tilde, out_W, out_b, targets, mask), [h_tilde, out_W, out_b]),
        ("encoder", lambda: encoder_loss(enc_feat, None), enc_feat[0] + enc_feat[2]),
        ("encoder_no_features", lambda: encoder_loss(enc_plain, None), enc_plain[0] + enc_plain[2]),
        ("encoder_dropout", lambda: encoder_loss(enc_feat, enc_keep), enc_feat[0] + enc_feat[2]),
        ("decoder", lambda: decoder_loss(None), [table] + dec),
        ("decoder_dropout", lambda: decoder_loss(dec_keep), [table] + dec),
        # one leaf as both h0 and c0: two gradients for it from one record
        ("decoder_shared_init", lambda: decoder_loss(None, shared_init=True), [table] + dec[:1] + dec[2:]),
    ]


@pytest.mark.parametrize("seed", range(20))
def test_every_op_passes_grad_check(seed):
    rng = derive_rng(seed, "op-grads")
    for name, f, params in _op_cases(rng):
        err = ad.grad_check(f, params)
        assert err <= 1e-4, f"{name} seed {seed}: rel err {err:.3e}"


def test_multi_output_op_with_unused_outputs_backpropagates():
    # only h0 reaches the loss; the annotations and c0 get zero output gradients
    rng = derive_rng(22, "encoder-unused")
    tables, ids, weights = encoder_inputs(rng, 4, 2, (2, 1), 3)
    mask = np.array([[True, True, True, True], [True, True, False, False]])
    ids[0][:] = np.where(mask.T.reshape(-1), 1 + ids[0] % 4, 0)  # time-major, as the ids

    def loss():
        return total(ad.encoder(tables, ids, mask, None, *weights)[1])

    assert ad.grad_check(loss, tables + weights) <= 1e-4
    assert not tables[0].grad[0].any()  # id 0 sits only at padded positions: no gradient
    assert not any(w.grad.any() for w in weights[:3])  # the forward direction reaches only the annotations
    assert not any(w.grad.any() for w in weights[8:])  # nor does the c0 map reach h0
    assert all(w.grad.any() for w in weights[3:8])


def test_lstm_non_finite_gate_raises():
    tables, ids, weights = encoder_inputs(derive_rng(24, "encoder-inf"), 2, 1, (2,), 1)
    weights[2].data[:] = np.inf  # the forward direction's bias
    with pytest.raises(NumericError, match="encoder"):
        ad.encoder(tables, ids, np.ones((1, 2), dtype=bool), None, *weights)


def test_encoder_rejects_mismatched_shapes():
    tables, ids, weights = encoder_inputs(derive_rng(25, "encoder-shapes"), 2, 3, (2, 1), 3)
    mask = np.ones((3, 2), dtype=bool)
    ad.encoder(tables, ids, mask, None, *weights)
    for bad in (
        (tables, ids, np.ones((3, 3), dtype=bool), None, *weights),  # mask
        (tables, ids[:1], mask, None, *weights),  # ids for one table only
        (tables, ids, mask, np.ones((6, 2)), *weights),  # keep
        (tables, ids, mask, None, *weights[3:], *weights[:3]),  # weights out of order
    ):
        with pytest.raises(ShapeError, match="encoder"):
            ad.encoder(*bad)


def test_decoder_rejects_mismatched_shapes():
    table, ids, (h0, c0, vectors, *weights) = decoder_inputs(derive_rng(23, "decoder-shapes"), 2, 3, 4, 3, 3)
    mask = np.ones((3, 4), dtype=bool)
    ad.decoder(table, ids, np.ones((2, 3, 6)), h0, c0, vectors, mask, *weights)
    for bad in (
        (table, ids, None, h0, c0, vectors, np.ones((3, 5), dtype=bool), *weights),  # mask
        (table, ids[:5], None, h0, c0, vectors, mask, *weights),  # ids for 5 of 6 rows
        (table, ids, np.ones((2, 3, 3)), h0, c0, vectors, mask, *weights),  # keep for the embeddings only
        (ad.Tensor(np.zeros((5, 2))), ids, None, h0, c0, vectors, mask, *weights),  # table width
    ):
        with pytest.raises(ShapeError, match="decoder"):
            ad.decoder(*bad)


def test_grad_check_constant_function_is_exact():
    w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    const = ad.Tensor(np.zeros((1, 1)))
    assert ad.grad_check(lambda: ad.mul(const, const), [w]) == 0.0


def test_grad_check_extrapolates_a_correct_gradient_past_a_coarse_step():
    # at eps 1e-2 the central difference of exp(5x) is off by about eps^2 * 25 / 6, over 1e-4;
    # the re-check at eps/2 cancels that term, and an infinite tolerance skips it
    x = ad.Tensor(0.3 * derive_rng(26, "richardson").normal(size=(2, 3)), requires_grad=True)
    assert ad.grad_check(lambda: exp_sum(x, 5.0), [x], eps=1e-2, tolerance=np.inf) > 1e-4
    assert ad.grad_check(lambda: exp_sum(x, 5.0), [x], eps=1e-2) <= 1e-5


@pytest.mark.parametrize("eps", [1e-5, 1e-2])
def test_grad_check_fails_a_vjp_off_by_1e_3(eps):
    x = ad.Tensor(0.3 * derive_rng(27, "vjp-fault").normal(size=(2, 3)), requires_grad=True)
    err = ad.grad_check(lambda: exp_sum(x, 5.0, fault=1e-3), [x], eps=eps)
    assert 5e-4 < err < 2e-3


def test_deterministic_forward_bit_identical():
    def once():
        rng = derive_rng(21, "determinism")
        tables, ids, enc_weights = encoder_inputs(rng, 3, 2, (2, 1), 3)
        table, tgt_ids, (_, _, _, *dec_weights) = decoder_inputs(rng, 2, 2, 3, 3, 3)
        mask = np.array([[True, True, True], [True, True, False]])
        keep = ad.make_dropout_mask((6, 3), 0.3, rng)
        dec_keep = ad.make_dropout_mask((2, 2, 6), 0.3, rng)
        with ad.Tape() as tape:
            ann, h0, c0 = ad.encoder(tables, ids, mask, keep, *enc_weights)
            loss = total(ad.decoder(table, tgt_ids, dec_keep, h0, c0, ann, mask, *dec_weights))
        ad.backward(loss, tape)
        return loss.item(), [t.grad.copy() for t in tables + enc_weights + [table] + dec_weights]

    l1, g1 = once()
    l2, g2 = once()
    assert l1 == l2
    for a, b in zip(g1, g2):
        np.testing.assert_array_equal(a, b)
