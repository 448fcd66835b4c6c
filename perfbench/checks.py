"""Correctness checks run in every benchmark run.

None compares against a stored copy of earlier output. Each either
recomputes a result apart from the code path it tests, or tests a
property the method must have. A check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

from radnmt import autodiff, corpus, decoding, model, training

FD_EPS = 1e-4  # step along a unit direction
FD_TOL = 1e-6  # relative error of the directional derivative
LOGPROB_TOL = 1e-9  # relative, beam score against teacher forcing
PPL_TOL = 1e-10  # relative, perplexity at batch size 1 against 10
MEMORIZED_PPL = 1.05  # acceptance criterion 3


def finite_difference(params, batch, rng) -> list[str]:
    """(L(θ+εv) − L(θ−εv)) / 2ε against ⟨∇L, v⟩ on one batch, dropout off.

    v is the sum of a random unit direction and the gradient's, scaled to
    unit length, so ⟨∇L, v⟩ stays far from 0 and rounding error small
    beside it; a wrong gradient entry still shows through either part.
    """
    tensors = params.all()
    params.zero_grads()
    with autodiff.Tape() as tape:
        loss, _ = model.forward_loss(batch, params)
    autodiff.backward(loss, tape)
    grads = [g.copy() for g in params.grads()]
    params.zero_grads()
    direction = _unit([rng.standard_normal(t.shape) for t in tensors])
    direction = _unit([d + g for d, g in zip(direction, _unit(grads))])
    analytic = sum(float(np.vdot(g, d)) for g, d in zip(grads, direction))
    saved = [t.data.copy() for t in tensors]

    def loss_at(step: float) -> float:
        for t, base, d in zip(tensors, saved, direction):
            t.data[...] = base + step * d
        return model.forward_loss(batch, params)[0].item()

    try:
        numeric = (loss_at(FD_EPS) - loss_at(-FD_EPS)) / (2 * FD_EPS)
    finally:
        for t, base in zip(tensors, saved):
            t.data[...] = base
    error = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
    if not error <= FD_TOL:
        return [f"directional derivative {analytic!r}, finite difference {numeric!r}"]
    return []


def _unit(arrays):
    norm = np.sqrt(sum(float(np.vdot(a, a)) for a in arrays))
    return [a / norm for a in arrays]


def clipped(params, max_norm: float) -> list[str]:
    """The gradients left by the last step have global norm <= max_norm."""
    norm = float(np.sqrt(sum(float(np.vdot(g, g)) for g in params.grads())))
    if not norm <= max_norm * (1 + 1e-12):
        return [f"post-clip gradient norm {norm!r} exceeds {max_norm}"]
    return []


def same_params(a, b) -> list[str]:
    """A checkpoint reloads bit-exactly."""
    names = [name for name, _ in a.named()]
    if names != [name for name, _ in b.named()]:
        return ["checkpoint parameter names differ"]
    return [f"checkpoint changed {n}" for n in names if not np.array_equal(a[n].data, b[n].data)]


def perplexity(params, check_set, corpus_set, memorized: bool) -> list[str]:
    """The same at batch size 1 and 10, finite and >= 1; near 1 when memorized."""
    errors = []
    one, ten = (training.perplexity(params, check_set, batch_size=n) for n in (1, 10))
    if not (np.isfinite(ten) and ten >= 1.0):
        errors.append(f"perplexity {ten!r} is not a finite number >= 1")
    if not abs(one - ten) <= PPL_TOL * ten:
        errors.append(f"perplexity depends on batch size: {one!r} (1) vs {ten!r} (10)")
    if memorized:
        ppl = training.perplexity(params, corpus_set)
        if not ppl <= MEMORIZED_PPL:
            errors.append(f"perplexity {ppl!r} above {MEMORIZED_PPL} on the memorized corpus")
    return errors


def translations(lines: list[str], n_sources: int, references) -> list[str]:
    errors = []
    if len(lines) != n_sources:
        errors.append(f"translate_file wrote {len(lines)} lines for {n_sources} sources")
    if references is not None:
        wrong = sum(h != r for h, r in zip(lines, references))
        if wrong:
            errors.append(f"{wrong}/{len(references)} translations differ from the references")
    return errors


def beam(params, table, src_vocab, tgt_vocab, sources, lines, beam_size) -> list[str]:
    """beam_search's best hypothesis against teacher forcing and translate_file.

    Its score equals forward_loss's log-likelihood of its tokens, its
    string equals translate_file's line, no PAD or BOS is emitted, EOS
    only comes last, and the length stays within max_len.
    """
    errors = []
    for source, line in zip(sources, lines):
        pair = corpus.encode_pair(source, "", src_vocab, tgt_vocab, table)
        hyp = decoding.beam_search(params, pair.src_ids, pair.src_feats, beam_size)[0]
        tokens = list(hyp.tokens)
        max_len = decoding.default_max_len(len(pair.src_ids))
        ends = bool(tokens) and tokens[-1] == corpus.EOS
        if corpus.PAD in tokens or corpus.BOS in tokens:
            errors.append(f"{source!r}: PAD or BOS emitted")
        if corpus.EOS in tokens[:-1] or ends != hyp.finished:
            errors.append(f"{source!r}: EOS not last, or finished flag wrong")
        if len(tokens) > max_len:
            errors.append(f"{source!r}: {len(tokens)} tokens exceed max_len {max_len}")
        text = tgt_vocab.decode(tokens, unk_token=decoding.DEFAULT_UNK_TOKEN)
        if text != line:
            errors.append(f"{source!r}: beam_search gives {text!r}, translate_file {line!r}")
        forced = corpus.ExamplePair(pair.src_ids, pair.src_feats, np.array([corpus.BOS] + tokens))
        nll, count = model.forward_loss(corpus.make_batches([forced], 1)[0], params)
        forced_logprob = -nll.item()
        tol = LOGPROB_TOL * max(1.0, abs(hyp.logprob))
        if count != len(tokens) or not abs(forced_logprob - hyp.logprob) <= tol:
            errors.append(f"{source!r}: beam log-prob {hyp.logprob!r}, forced {forced_logprob!r}")
    return errors
