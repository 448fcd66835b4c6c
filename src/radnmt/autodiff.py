"""Dense float64 tensors with a minimal reverse-mode differentiation tape.

One Tape at most records per thread; ops executed while it is active
are recorded in execution order (already a topological order), and
backward() replays the records once, in reverse. Every VJP returns one
gradient per input: those reaching op outputs are summed, those reaching
requires_grad leaves are added into .grad in place (a new array where it
is None; model.ModelParams makes each a view of one array), and those
reaching constants are dropped. An op is recorded when a tape is active
and one of its inputs requires grad (_recording); otherwise it runs
forward-only. Dropout masks come pre-scaled: 1 / (1 - p) on kept lanes,
0 on dropped ones, and the ops that take one multiply by it.

Everything is float64. Every op checks its output for NaN/Inf and
raises NumericError rather than letting poison propagate. The
bidirectional encoder and the attentional decoder each gather their
embeddings and run whole recurrences as one record with a hand-derived
BPTT VJP, on one shared LSTM cell with its gates on the last axis, whose
sigmoid is 0.5 * tanh(0.5 * z) + 0.5. Both decide before they run
whether they will be recorded, and keep the arrays their VJP reads only
then. The encoder's one loop steps both directions as one block;
decoder's step is the plain-numpy decoder_step, which beam search runs
one step at a time over the hypotheses of many sentences. The source
mask reaches decoder_step as one additive 0/-inf attention bias, checked
once per decoder op and once per beam grid. output_nll projects every
step's h~ to the target vocabulary and scores it as one more record.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError, TapeError, UsageError

_LOCAL = threading.local()


def active_tape():
    """The Tape recording on this thread, or None."""
    return getattr(_LOCAL, "tape", None)


class Tensor:
    """A dense float64 array plus an optional gradient accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"


class Tape:
    """Ordered record of differentiable ops; the only one recording on its thread."""

    def __init__(self):
        # (outputs, inputs, vjp); vjp takes one gradient per output, in order
        self._records: list[tuple[tuple[Tensor, ...], tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise TapeError("a tape is already recording on this thread; tapes do not nest")
        _LOCAL.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _LOCAL.tape = None

    def __len__(self) -> int:
        return len(self._records)


def backward(loss: Tensor, tape: Tape) -> None:
    """Add d loss / d leaf into .grad of every requires_grad leaf reachable from loss.

    Leaf gradients are added in place as the records are replayed; an op
    output's are summed until its own record is. Callers zero gradients
    between steps, so calling twice on the same tape doubles them. An
    output of a multi-output op that the loss does not reach gets a zero
    gradient; a gradient reaching a constant is dropped.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    produced = {id(out) for outputs, _, _ in tape._records for out in outputs}
    flowing: dict[int, np.ndarray] = {}

    def send(tensor: Tensor, grad: np.ndarray) -> None:
        key = id(tensor)
        if key in produced:
            flowing[key] = flowing[key] + grad if key in flowing else grad
        elif tensor.requires_grad:
            tensor.accumulate_grad(grad)

    send(loss, np.ones_like(loss.data))
    for outputs, inputs, vjp in reversed(tape._records):
        gs = [flowing.pop(id(out), None) for out in outputs]
        if all(g is None for g in gs):
            continue
        gs = [np.zeros_like(out.data) if g is None else g for out, g in zip(outputs, gs)]
        for tensor, grad in zip(inputs, vjp(*gs)):
            send(tensor, grad)


def _finite_or_raise(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {op}")


def _recording(inputs: Sequence[Tensor]) -> bool:
    """Whether _emit records an op on inputs: a tape is active and one of them requires grad."""
    return active_tape() is not None and any(t.requires_grad for t in inputs)


def _emit(op: str, out_data, inputs: Sequence[Tensor], vjp: Callable):
    """Wrap an op's output array (or tuple of arrays) and record it if _recording(inputs)."""
    datas = out_data if isinstance(out_data, tuple) else (out_data,)
    for data in datas:
        _finite_or_raise(data, op)
    needs = _recording(inputs)
    outs = tuple(Tensor(data, requires_grad=needs) for data in datas)
    if needs:
        active_tape()._records.append((outs, tuple(inputs), vjp))
    return outs if isinstance(out_data, tuple) else outs[0]


# ---------------------------------------------------------------------------
# core ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return _emit("matmul", out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} * {b.shape}")
    out = a.data * b.data

    def vjp(g):
        return g * b.data, g * a.data

    return _emit("mul", out, (a, b), vjp)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic function 0.5 * tanh(0.5 * z) + 0.5, into out if given (which may be z itself).

    One transcendental, and overflow-free on both tails. Its absolute
    error stays below 1.1e-16, and below 5e-17 on values under 1e-9. There
    its relative error grows, to about 5e-8 at 1e-9 and to 1 under about
    3e-17, which comes out 0: tanh(0.5 * z) is then near -1, where doubles
    lie 1.1e-16 apart.
    """
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def _cell(gates: np.ndarray, c: np.ndarray, op: str):
    """One LSTM step from gate pre-activations [i | f | o | g] on the last axis, checked finite.

    Turns gates in place into the activations sigmoid(i, f, o) and tanh(g),
    and returns the new c, its tanh, and the new h.
    """
    _finite_or_raise(gates, op)
    q = c.shape[-1]
    _sigmoid(gates[..., : 3 * q], out=gates[..., : 3 * q])
    np.tanh(gates[..., 3 * q :], out=gates[..., 3 * q :])
    i, f, o, g = gates[..., :q], gates[..., q : 2 * q], gates[..., 2 * q : 3 * q], gates[..., 3 * q :]
    c = f * c + i * g
    tanh_c = np.tanh(c)
    return c, tanh_c, o * tanh_c


def _cell_vjp(dh, dc, acts, c_prev, tanh_c):
    """Backward through one _cell step from the gradients reaching its new h and c.

    Returns the gradients reaching the gate pre-activations and c_prev.
    """
    q = dh.shape[-1]
    i, f, o, g = acts[..., :q], acts[..., q : 2 * q], acts[..., 2 * q : 3 * q], acts[..., 3 * q :]
    dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
    dgates = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             dh * tanh_c * o * (1.0 - o), dc * i * (1.0 - g * g)], axis=-1)
    return dgates, dc * f


def encoder(
    tables: Sequence[Tensor], ids: Sequence[np.ndarray], mask: np.ndarray, keep: np.ndarray | None,
    fwd_Wx: Tensor, fwd_Wh: Tensor, fwd_b: Tensor, bwd_Wx: Tensor, bwd_Wh: Tensor, bwd_b: Tensor,
    init_h_W: Tensor, init_h_b: Tensor, init_c_W: Tensor, init_c_b: Tensor,
) -> tuple[Tensor, Tensor, Tensor]:
    """The bidirectional LSTM encoder as one op; returns (annotations (B, L, 2q), h0, c0).

    Input row j*B + b, position j of sentence b, is the rows of the tables
    at their ids (L*B,) side by side, times keep (make_dropout_mask's
    (L*B, p) mask) if given. Both directions start from a zero state and
    run in one loop: step t advances the forward LSTM at position t and
    the backward one at L-1-t as one (2, B, .) block, whose gates
    [i | f | o | g] = x @ Wx + b + h @ Wh lie on the last axis. Where the
    (B, L) mask is False, h and c carry through unchanged. Annotation j is
    the [forward; backward] state after position j. The decoder's start
    state is h0 = tanh(h @ init_h_W + init_h_b), and c0 likewise from c,
    of the backward state after position 0. The BPTT VJP takes each
    weight's gradient as one product over all L*B rows, in position order.
    """
    weights = (fwd_Wx, fwd_Wh, fwd_b, bwd_Wx, bwd_Wh, bwd_b, init_h_W, init_h_b, init_c_W, init_c_b)
    batch, length = np.shape(mask) if np.ndim(mask) == 2 else (0, 0)
    widths = [t.shape[-1] for t in tables]
    p, q = sum(widths), fwd_Wh.shape[0]
    expected = [(p, 4 * q), (q, 4 * q), (4 * q,)] * 2 + [(q, q), (q,)] * 2
    if (not length or len(ids) != len(tables) or {t.data.ndim for t in tables} != {2}
            or {np.shape(i) for i in ids} != {(length * batch,)} or [w.shape for w in weights] != expected
            or keep is not None and np.shape(keep) != (length * batch, p)):
        raise ShapeError(f"encoder: tables {[t.shape for t in tables]}, ids {[np.shape(i) for i in ids]}, "
                         f"mask {np.shape(mask)}, keep {np.shape(keep)}, weights {[w.shape for w in weights]}")
    x = np.concatenate([_gather(t, i, "encoder") for t, i in zip(tables, ids)], axis=1)
    x = x if keep is None else x * keep
    xw = [(x @ W.data + b.data).reshape(length, batch, -1) for W, b in ((fwd_Wx, fwd_b), (bwd_Wx, bwd_b))]
    steps = np.asarray(mask, bool).T[:, None, :, None]
    steps = np.concatenate([steps, steps[::-1]], axis=1)
    kept = length if _recording((*tables, *weights)) else 1  # steps the VJP reads; else one reused step
    acts = np.empty((kept, 2, batch, 4 * q))  # gate pre-activations, turned into sigmoid(i, f, o), tanh(g)
    tanh_c = np.empty((kept, 2, batch, q))
    H, C = np.zeros((2, length + 1, 2, batch, q))  # both directions' states before each step, and after the last
    for t in range(length):
        gates = acts[t % kept]
        np.add(xw[0][t], H[t, 0] @ fwd_Wh.data, out=gates[0])
        np.add(xw[1][-1 - t], H[t, 1] @ bwd_Wh.data, out=gates[1])
        c_new, tanh_c[t % kept], h_new = _cell(gates, C[t], "encoder")
        H[t + 1], C[t + 1] = np.where(steps[t], h_new, H[t]), np.where(steps[t], c_new, C[t])
    h, c = H[-1, 1], C[-1, 1]
    h0, c0 = np.tanh(h @ init_h_W.data + init_h_b.data), np.tanh(c @ init_c_W.data + init_c_b.data)

    def vjp(dann, dh0, dc0):
        # a generator, so backward stores each gradient before the next is made
        dh0, dc0 = (1.0 - h0 * h0) * dh0, (1.0 - c0 * c0) * dc0
        dh, dc = np.zeros((2, 2, batch, q))
        dh[1], dc[1] = dh0 @ init_h_W.data.T, dc0 @ init_c_W.data.T
        dH = np.stack([dann[:, :, :q], dann[:, ::-1, q:]]).transpose(2, 0, 1, 3)
        dgates = np.empty((2, length, batch, 4 * q))  # by position, as xw
        for t in reversed(range(length)):
            m = steps[t]
            dh = dh + dH[t]
            dg, dc_prev = _cell_vjp(dh * m, dc * m, acts[t], C[t], tanh_c[t])
            dgates[0, t], dgates[1, -1 - t] = dg
            dc = dc_prev + dc * ~m
            dh = dh * ~m
            dh[0] += dg[0] @ fwd_Wh.data.T
            dh[1] += dg[1] @ bwd_Wh.data.T
        flat = dgates.reshape(2, length * batch, -1)
        dx = flat[1] @ bwd_Wx.data.T + flat[0] @ fwd_Wx.data.T
        dx = dx if keep is None else dx * keep
        for table, rows, part in zip(tables, ids, np.split(dx, np.cumsum(widths[:-1]), axis=1)):
            yield _scatter(table, rows, part)
        for d, h_in in enumerate((H[:-1, 0], H[-2::-1, 1])):
            yield from (x.T @ flat[d], h_in.reshape(length * batch, q).T @ flat[d], flat[d].sum(axis=0))
        yield from (h.T @ dh0, dh0.sum(axis=0), c.T @ dc0, dc0.sum(axis=0))

    annotations = np.concatenate([H[1:, 0], H[:0:-1, 1]], axis=2).transpose(1, 0, 2)
    return _emit("encoder", (annotations, h0, c0), (*tables, *weights), vjp)


def _gather(table: Tensor, ids: np.ndarray, op: str) -> np.ndarray:
    """Rows of table (V, d) at integer ids (n,); an id outside it raises ShapeError."""
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        bad = int(np.argmax((ids < 0) | (ids >= table.shape[0])))
        raise ShapeError(f"{op}: id {int(ids[bad])} at position {bad} outside table of {table.shape[0]} rows")
    return table.data[ids]


def _scatter(table: Tensor, ids: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The gradient reaching table from the gradient (n, d) of its rows at ids, as _gather read them."""
    out = np.zeros_like(table.data)
    np.add.at(out, ids, grad)
    return out


def make_dropout_mask(shape, drop_p: float, rng: np.random.Generator) -> np.ndarray:
    """Sample an inverted-dropout keep mask: 1 / (1 - drop_p) where kept, 0 where dropped."""
    if not 0.0 <= drop_p < 1.0:
        raise UsageError(f"drop probability must be in [0, 1), got {drop_p}")
    keep = 1.0 - drop_p
    return np.where(rng.random(shape) < keep, 1.0 / keep, 0.0)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax of a plain array, through a max-shifted log-sum-exp.

    No explicit probability is formed, so nothing under/overflows.
    """
    stable = logits - logits.max(axis=-1, keepdims=True)
    return stable - np.log(np.exp(stable).sum(axis=-1, keepdims=True))


def project(h_tilde: np.ndarray, out_W: np.ndarray, out_b: np.ndarray) -> np.ndarray:
    """Target-vocabulary logits h~ @ out_W + out_b of any number of h~ rows, checked finite."""
    logits = h_tilde @ out_W + out_b
    _finite_or_raise(logits, "output projection")
    return logits


def output_nll(h_tilde: Tensor, out_W: Tensor, out_b: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Sum of -log_softmax(project(h~))[target] over the rows where mask is set (scalar)."""
    targets, maskf = np.asarray(targets), np.asarray(mask, dtype=np.float64)
    n, v = h_tilde.shape[0], out_W.shape[-1]
    if ([t.data.ndim for t in (h_tilde, out_W, out_b)] != [2, 2, 1] or out_W.shape[0] != h_tilde.shape[1]
            or out_b.shape != (v,) or targets.shape != (n,) or maskf.shape != (n,)):
        raise ShapeError(f"output_nll: h~ {h_tilde.shape}, out_W {out_W.shape}, out_b {out_b.shape}, "
                         f"targets {targets.shape}, mask {np.shape(mask)}")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ShapeError(f"output_nll: target id outside 0..{v - 1}")
    rows = np.arange(n)
    logp = log_softmax(project(h_tilde.data, out_W.data, out_b.data))
    out = np.asarray((-logp[rows, targets] * maskf).sum())

    def vjp(g):
        dlogits = np.exp(logp)
        dlogits[rows, targets] -= 1.0
        dlogits = dlogits * maskf[:, None] * float(g)
        return dlogits @ out_W.data.T, h_tilde.data.T @ dlogits, dlogits.sum(axis=0)

    return _emit("output_nll", out, (h_tilde, out_W, out_b), vjp)


def _attention_bias(mask: np.ndarray) -> np.ndarray:
    """0 where the (S, L) source mask is set, -inf elsewhere; a row with none set raises ContractError."""
    if not mask.any(axis=1).all():
        raise ContractError("decoder: a batch row has no unmasked source position")
    return np.where(mask, 0.0, -np.inf)


def decoder_step(emb, h_tilde, h, c, vectors, bias, Wx, Wh, b, attn_W, attn_out_W):
    """One step of the attentional decoder with input feeding, in plain numpy.

    An LSTM cell reads x = [emb; previous h~]. Its new h scores the
    annotations as (h @ attn_W) . v_j; a softmax over the scores plus
    bias, _attention_bias of the source mask, weights them into a context
    c, and h~ = tanh([h; c] @ attn_out_W). The (S, L, 2q) annotations and
    (S, L) bias hold S sentences; consecutive groups of g = B // S of the B
    rows share one (g = 1 in training, a sentence's hypotheses in beam
    search). Returns ((h, c, h~), what decoder's VJP reads).
    """
    (rows, _), (sents, length, width) = h.shape, vectors.shape
    if bias.dtype.kind != "f":  # a bool mask would add 1/0 and mask nothing
        raise ContractError(f"decoder: attention bias is {bias.dtype}, not the float _attention_bias makes")
    if rows % sents:
        raise ShapeError(f"decoder: {rows} rows do not split into groups over {sents} sentences")
    group = (sents, rows // sents)
    x = np.concatenate([emb, h_tilde], axis=1)
    acts = x @ Wx + b + h @ Wh  # gate pre-activations, which _cell turns into activations
    c_new, tanh_c, h_new = _cell(acts, c, "decoder")
    proj = h_new @ attn_W
    scores = np.einsum("sgk,slk->sgl", proj.reshape(group + (width,)), vectors)
    # C order whatever einsum's layout: the softmax's sums then run along contiguous rows
    scores = np.add(scores, bias[:, None], order="C").reshape(rows, length)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    context = np.einsum("sgl,slk->sgk", weights.reshape(group + (length,)), vectors)
    hc = np.concatenate([h_new, context.reshape(rows, width)], axis=1)
    return (h_new, c_new, np.tanh(hc @ attn_out_W)), (x, h, c, acts, tanh_c, proj, weights, hc)


def decoder(
    table: Tensor, ids: np.ndarray, keep: np.ndarray | None, h0: Tensor, c0: Tensor, vectors: Tensor,
    mask: np.ndarray, Wx: Tensor, Wh: Tensor, b: Tensor, attn_W: Tensor, attn_out_W: Tensor,
) -> Tensor:
    """The whole teacher-forced attentional decoder as one op; returns H~ (T*B, q).

    Step t of batch row b reads the row of table (V, p1) at ids[t*B + b].
    Each step runs decoder_step from (h0, c0) and a zero h~; its h~ is row
    block t of H~ and the next step's fed-back input. keep, if given, holds
    make_dropout_mask's (T, B, p1 + q) masks: keep[t, :, :p1] scales step
    t's embeddings and keep[t, :, p1:] its h~. Only when the op will be
    recorded are the steps' VJP inputs kept. The BPTT VJP runs only
    data-gradient products in its loop; each weight gets one product over
    all T*B rows.
    """
    (batch, q), p1 = h0.shape, table.shape[-1]
    length, src_len = np.size(ids) // batch, np.shape(mask)[-1]
    # the table last: its dense gradient is made once the others are stored
    inputs = (h0, c0, vectors, Wx, Wh, b, attn_W, attn_out_W, table)
    expected = [(batch, q), (batch, q), (batch, src_len, 2 * q),
                (p1 + q, 4 * q), (q, 4 * q), (4 * q,), (q, 2 * q), (3 * q, q)]
    if (not length or table.data.ndim != 2 or np.shape(ids) != (length * batch,)
            or [t.shape for t in inputs[:-1]] != expected or np.shape(mask) != (batch, src_len)
            or keep is not None and np.shape(keep) != (length, batch, p1 + q)):
        raise ShapeError(f"decoder: inputs {[t.shape for t in inputs]}, ids {np.shape(ids)}, "
                         f"mask {np.shape(mask)}, keep {np.shape(keep)}")
    record, bias = _recording(inputs), _attention_bias(mask)
    keep = np.ones((length, 1, p1 + q)) if keep is None else keep
    emb_keep, h_keep = keep[..., :p1], keep[..., p1:]
    emb = _gather(table, ids, "decoder").reshape(length, batch, p1) * emb_keep
    Y = np.empty((length, batch, q))  # each step's h~ after dropout: H~, and the next step's input
    h, c, h_tilde, steps = h0.data, c0.data, np.zeros((batch, q)), []
    for t in range(length):
        (h, c, u), trace = decoder_step(
            emb[t], h_tilde, h, c, vectors.data, bias, *(w.data for w in inputs[3:-1])
        )
        h_tilde = Y[t] = u * h_keep[t]
        if record:
            steps.append((h, u) + trace)
    if record:
        H, U, X, H_prev, C_prev, acts, tanh_c, proj, A, HC = map(np.stack, zip(*steps))

    def vjp(dY):
        # a generator, as encoder's, so backward stores each gradient before the next is made
        dY = dY.reshape(length, batch, q)
        dgates = np.empty_like(acts)
        dpre, dctx, dscores, dproj = (np.empty_like(a) for a in (U, proj, A, proj))
        dh = dc = dfeed = np.zeros((batch, q))
        for t in reversed(range(length)):
            dpre[t] = (dY[t] + dfeed) * h_keep[t] * (1.0 - U[t] * U[t])
            dhc = dpre[t] @ attn_out_W.data.T
            dctx[t] = dhc[:, q:]
            dweights = np.einsum("bk,blk->bl", dctx[t], vectors.data)
            dscores[t] = A[t] * (dweights - (dweights * A[t]).sum(axis=1, keepdims=True))
            dproj[t] = np.einsum("bl,blk->bk", dscores[t], vectors.data)
            dh = dh + dhc[:, :q] + dproj[t] @ attn_W.data.T
            dgates[t], dc = _cell_vjp(dh, dc, acts[t], C_prev[t], tanh_c[t])
            dh = dgates[t] @ Wh.data.T
            dfeed = dgates[t] @ Wx.data[p1:].T

        flat, n = dgates.reshape(length * batch, 4 * q), length * batch
        yield from (dh, dc)
        # d vectors[b] = sum over t of A^T dctx + dscores^T proj, as one batched product
        yield np.concatenate([A, dscores]).transpose(1, 2, 0) @ np.concatenate([dctx, proj]).transpose(1, 0, 2)
        yield X.reshape(n, -1).T @ flat
        yield H_prev.reshape(n, q).T @ flat
        yield flat.sum(axis=0)
        yield H.reshape(n, q).T @ dproj.reshape(n, 2 * q)
        yield HC.reshape(n, 3 * q).T @ dpre.reshape(n, q)
        demb = (flat @ Wx.data[:p1].T).reshape(length, batch, p1) * emb_keep
        yield _scatter(table, ids, demb.reshape(n, p1))

    return _emit("decoder", Y.reshape(length * batch, q), inputs, vjp)


# ---------------------------------------------------------------------------
# parameter utilities


def clip_by_global_norm(grads: Sequence[np.ndarray], max_norm: float = 1.0):
    """Scale grads in place so their global L2 norm is at most max_norm.

    Returns (grads, pre_clip_norm).
    """
    norm = global_norm(grads)
    if not np.isfinite(norm):
        raise NumericError("clip_by_global_norm: non-finite gradient norm")
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return grads, norm


def global_norm(grads: Sequence[np.ndarray]) -> float:
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    return float(np.sqrt(total))


def grad_check(
    f: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5, tolerance: float = 1e-4
) -> float:
    """Max relative error between analytic and central-difference gradients.

    f must be a pure, deterministic scalar-valued function of params
    (dropout disabled). Relative error per coordinate is
    |a - n| / max(|a|, |n|, 1e-8). A coordinate over tolerance is measured
    again at eps/2 and judged by the Richardson value (4 D(eps/2) - D(eps)) / 3,
    which cancels the central difference's eps^2 truncation term.
    """
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    backward(loss, tape)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    def central(flat, i, step):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = f().item()
        flat[i] = orig - step
        f_minus = f().item()
        flat[i] = orig
        return (f_plus - f_minus) / (2.0 * step)

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        for i, exact in enumerate(a.reshape(-1)):
            numeric = central(flat, i, eps)
            rel = abs(exact - numeric) / max(abs(exact), abs(numeric), 1e-8)
            if rel > tolerance:
                numeric = (4.0 * central(flat, i, eps / 2) - numeric) / 3.0
                rel = abs(exact - numeric) / max(abs(exact), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
