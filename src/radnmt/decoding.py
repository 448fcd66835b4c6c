"""Beam-search translation, many sentences at once.

beam_search_many decodes a list of sources together. The sources are
padded into one encoder batch, and the live hypotheses sit in a
(sentences x width) row grid: row s*width + j is slot j of sentence s.
The width is the most live hypotheses any sentence has, at most
beam_size. Slots a sentence does not fill are dead: they hold
log-probability -inf, so none of their extensions is ever kept. Token
rows, cumulative log-probabilities and the decoder state h, c, h~ are
per-row arrays; the annotations stay one (L, 2q) block per sentence,
which all of its rows read (ad.decoder_step).

Each step scores all width*V extensions of every sentence at once (PAD
and BOS are masked to -inf, never emitted) and keeps each sentence's top
beam_size by an exact top-k. Ties break toward the lexicographically
smaller token sequence: a sentence's live rows fill its first slots in
lexicographic order, so ranking by (-score, slot, token id) is ranking
by (-score, parent's lexicographic rank, token id), with dead slots
last. EOS-ended candidates move to the sentence's completed pool; the
rest become its next live rows, again in lexicographic order.

A sentence retires when it has no live hypothesis, has run its own
max_len steps (default_max_len of its source unless max_len is given),
or its best completed score is strictly greater than
max(live logprob) / max_len^alpha; its rows and annotations are then
compacted out of the grid. That bound is exact ("optimal stopping",
Huang, Zhao & Ma 2017): a step adds a log-softmax value, which is <= 0,
and alpha >= 0, so no live row can complete with a higher score. So the
best hypothesis is the one a search to max_len finds, and the pool holds
what completed by the step the sentence retired. If nothing completed by
max_len, its live hypotheses are returned with finished=False.
beam_search is the one-sentence case, and each sentence of a grid gets
the hypotheses it gets alone: padding its source to the grid's longest
changes only the order of the attention softmax sums, so log-probabilities
can differ in the last bits. Output is platform-deterministic.

Each sentence gets its pool: the hypotheses it completed (or the
unfinished fallback), ranked by (-logprob / len^alpha, tokens). Scores
are cumulative log-probabilities; the length exponent alpha, a finite
number >= 0, defaults to 0, where the division is by 1.0 and so exact,
leaving the logprob order.

translate_lines, and so translate_file and evaluate, decode
length-sorted chunks of at most CHUNK_ROWS // beam_size sentences, which
bounds the grid and the memory it takes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import _attention_bias, log_softmax
from .corpus import BOS, EOS, PAD, Vocab, encode_corpus, pad_rows
from .errors import DataError, RadnmtError, read_lines
from .model import ModelParams, decode_step, encode
from .radicals import RadicalTable

DEFAULT_UNK_TOKEN = "〓"  # geta mark, the CJK "missing glyph" convention
CHUNK_ROWS = 64  # grid rows of one translate_lines chunk: beam_size per sentence


@dataclass
class Hypothesis:
    tokens: list[int]  # emitted ids, EOS included when finished
    logprob: float
    finished: bool = False


def default_max_len(src_len: int) -> int:
    return 2 * src_len + 10


def beam_search(
    params: ModelParams,
    src_ids: np.ndarray,
    feat_ids: np.ndarray | None,
    beam_size: int = 5,
    max_len: int | None = None,
    length_alpha: float = 0.0,
) -> list[Hypothesis]:
    """Decode one source sentence; returns its pool, best first.

    The pool holds what completed by the step the sentence retired. If
    nothing finished by max_len the unfinished hypotheses are returned
    with finished=False.
    """
    (hyps,) = beam_search_many(params, [(src_ids, feat_ids)], beam_size, max_len, length_alpha)
    return hyps


def beam_search_many(
    params: ModelParams,
    sources: list[tuple[np.ndarray, np.ndarray | None]],
    beam_size: int = 5,
    max_len: int | None = None,
    length_alpha: float = 0.0,
) -> list[list[Hypothesis]]:
    """Decode (src_ids, feat_ids) sources in one grid; each source's ranked pool.

    Each pool holds what completed by the step its source retired.
    Raises DataError for beam_size or max_len below 1, a negative or
    non-finite length_alpha, or an empty source.
    """
    if beam_size < 1:
        raise DataError(f"beam_size must be >= 1, got {beam_size}")
    if max_len is not None and max_len < 1:
        raise DataError(f"max_len must be >= 1, got {max_len}")
    if not 0.0 <= length_alpha < np.inf:  # the retirement bound needs alpha >= 0
        raise DataError(f"length_alpha must be a finite number >= 0, got {length_alpha}")
    if not sources:
        return []
    srcs = [np.asarray(ids, dtype=np.int64) for ids, _ in sources]
    if min(ids.size for ids in srcs) == 0:
        raise DataError("beam_search: empty source")
    src, mask = pad_rows(srcs)
    feats = None if any(f is None for _, f in sources) else pad_rows([f for _, f in sources])[0]
    vectors, h, c = (t.data for t in encode(src, feats, mask, params))
    bias = _attention_bias(mask)  # checked once per grid
    limit = np.array([default_max_len(len(ids)) if max_len is None else max_len for ids in srcs])
    # a live row of logprob lp completes with logprob / len**alpha <= lp / reach_div (sort key's **)
    reach_div = np.array([n**length_alpha for n in limit.tolist()], dtype=float)
    best = np.full(len(srcs), -np.inf)  # per source: best logprob / len^alpha completed
    sent = np.arange(len(srcs))  # grid sentence -> index into sources
    tokens = np.full((len(srcs), 1), BOS, dtype=np.int64)  # the BOS column is dropped on output
    logprob, h_tilde, width = np.zeros(len(srcs)), np.zeros_like(h), 1
    completed: list[list[Hypothesis]] = [[] for _ in srcs]
    vocab = params.config.tgt_vocab_size
    for step in itertools.count(1):
        logits, (h, c), h_tilde = decode_step(tokens[:, -1], h_tilde, (h, c), vectors, bias, params)
        scores = logprob[:, None] + log_softmax(logits)
        scores[:, [PAD, BOS]] = -np.inf
        s, flat = _top_k(scores.reshape(len(sent), width * vocab), beam_size)
        row, token = np.divmod(flat, vocab)
        row += s * width
        lp = scores[row, token]
        tokens = np.column_stack([tokens[row], token])
        done = token == EOS
        for i in np.flatnonzero(done):
            completed[sent[s[i]]].append(Hypothesis(tokens[i, 1:].tolist(), float(lp[i]), True))
        np.maximum.at(best, sent[s[done]], lp[done] / step**length_alpha)
        live = ~done
        n_live = np.bincount(s[live], minlength=len(sent))
        reach = np.full(len(sent), -np.inf)
        np.maximum.at(reach, s[live], lp[live])
        retire = (n_live == 0) | (limit[sent] == step) | (best[sent] > reach / reach_div[sent])
        for j in np.flatnonzero(retire):
            if not completed[sent[j]]:  # nothing finished by max_len: keep the unfinished
                mine = live & (s == j)
                completed[sent[j]] = [
                    Hypothesis(t[1:].tolist(), float(v)) for t, v in zip(tokens[mine], lp[mine])
                ]
        live &= ~retire[s]
        if not live.any():
            break
        # each staying sentence's live rows fill its first slots, still in lexicographic order
        stay, s = ~retire, s[live]
        width = n_live[stay].max()
        slot = (np.cumsum(stay) - 1)[s] * width + np.arange(len(s)) - np.searchsorted(s, s)
        parent = np.zeros(width * stay.sum(), dtype=np.int64)  # dead slots copy row 0
        parent[slot] = row[live]
        logprob = np.full(len(parent), -np.inf)
        logprob[slot] = lp[live]
        live_tokens, tokens = tokens[live], np.full((len(parent), step + 1), PAD, dtype=np.int64)
        tokens[slot] = live_tokens
        h, c, h_tilde = h[parent], c[parent], h_tilde[parent]
        if retire.any():
            sent, vectors, bias = sent[stay], vectors[stay], bias[stay]
    return [
        sorted(pool, key=lambda hyp: (-hyp.logprob / len(hyp.tokens) ** length_alpha, hyp.tokens))
        for pool in completed
    ]


def _top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of each row's finite top k by (-score, column), in (row, column) order.

    Exact with ties: a partition finds each row's k-th score, then every
    entry at or above it is ranked, so which of several tied entries
    survives never depends on the partition.
    """
    k = min(k, scores.shape[1])
    kth = -np.partition(-scores, k - 1, axis=1)[:, k - 1 : k]
    row, col = np.nonzero(scores >= kth)  # in (row, column) order
    value = scores[row, col]
    order = np.lexsort((-value, row))  # stable: equal scores stay in column order
    # order keeps the rows sorted, so position p is rank p - (first p of its row)
    chosen = order[np.arange(len(order)) - np.searchsorted(row, row) < k]
    chosen = np.sort(chosen[np.isfinite(value[chosen])])
    return row[chosen], col[chosen]


def translate_line(
    params: ModelParams,
    table: RadicalTable,
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    line: str,
    beam_size: int = 5,
    max_len: int | None = None,
    length_alpha: float = 0.0,
    unk_token: str = DEFAULT_UNK_TOKEN,
) -> str:
    return translate_lines(
        params, table, src_vocab, tgt_vocab, [line], beam_size, max_len, length_alpha, unk_token
    )[0]


def translate_lines(
    params: ModelParams,
    table: RadicalTable,
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    lines: list[str],
    beam_size: int = 5,
    max_len: int | None = None,
    length_alpha: float = 0.0,
    unk_token: str = DEFAULT_UNK_TOKEN,
    source: str = "<lines>",
) -> list[str]:
    """The best translation of each line, in order.

    Lines are decoded in chunks of CHUNK_ROWS // beam_size (at least one)
    by source length. An error keeps its class, and so its exit code, and
    names source and the 1-based numbers of the chunk's lines.
    """
    pairs = encode_corpus([(line, "") for line in lines], src_vocab, tgt_vocab, table, max_chars=None)
    order = sorted(range(len(pairs)), key=lambda i: len(pairs[i].src_ids))
    size = max(1, CHUNK_ROWS // max(1, beam_size))
    out = [""] * len(pairs)
    for chunk in (order[i : i + size] for i in range(0, len(order), size)):
        try:
            hyps = beam_search_many(
                params, [(pairs[i].src_ids, pairs[i].src_feats) for i in chunk],
                beam_size, max_len, length_alpha,
            )
        except RadnmtError as exc:
            numbers = ",".join(str(i + 1) for i in sorted(chunk))
            raise type(exc)(f"{source}:{numbers}: {exc}") from exc
        for i, pool in zip(chunk, hyps):
            out[i] = tgt_vocab.decode(pool[0].tokens, unk_token=unk_token)
    return out


def translate_file(
    params: ModelParams,
    table: RadicalTable,
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    input_path,
    output_path,
    beam_size: int = 5,
    max_len: int | None = None,
    length_alpha: float = 0.0,
    unk_token: str = DEFAULT_UNK_TOKEN,
) -> int:
    """Translate every line of input_path into output_path, in order. Returns the line count.

    output_path is opened only once every line is translated, so a failed
    run leaves it as it was.
    """
    lines = read_lines(input_path)
    outs = translate_lines(
        params, table, src_vocab, tgt_vocab, lines,
        beam_size, max_len, length_alpha, unk_token, str(input_path),
    )
    with Path(output_path).open("w", encoding="utf-8") as dst:
        dst.writelines(out + "\n" for out in outs)
    return len(lines)
