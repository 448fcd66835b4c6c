"""Beam-search translation.

The live beam is kept as arrays: token rows (k, t), cumulative
log-probabilities (k,) and decoder state h, c, h~ (k, q). Each step
scores all k*V extensions at once (PAD and BOS are masked to -inf, never
emitted), keeps the top beam_size in ranked order and gathers the arrays
by parent row; EOS-ended candidates move to a completed pool. Search
stops when every kept candidate is finished or max_len is reached. Ties
break toward the lexicographically smaller token sequence: live rows
have equal length, so that is the parent's lexicographic rank, then the
token id. Output is therefore platform-deterministic.

Scores are cumulative log-probabilities; an optional length exponent
alpha rescales completed hypotheses as logprob / len^alpha (default 0,
i.e. off).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import log_softmax
from .corpus import BOS, EOS, PAD, Vocab, encode_pair
from .errors import DataError, RadnmtError, read_lines
from .model import ModelParams, decode_step, encode, init_decoder_state
from .radicals import RadicalTable

DEFAULT_UNK_TOKEN = "〓"  # geta mark, the CJK "missing glyph" convention


@dataclass
class Hypothesis:
    tokens: list[int]  # emitted ids, EOS included when finished
    logprob: float
    finished: bool = False

    def score(self, length_alpha: float = 0.0) -> float:
        if length_alpha > 0.0 and self.tokens:
            return self.logprob / (len(self.tokens) ** length_alpha)
        return self.logprob


def default_max_len(src_len: int) -> int:
    return 2 * src_len + 10


def beam_search(
    params: ModelParams,
    src_ids: np.ndarray,
    feat_ids: np.ndarray | None,
    beam_size: int = 5,
    max_len: int | None = None,
    length_alpha: float = 0.0,
    n_best: int = 1,
) -> list[Hypothesis]:
    """Best-first decode of one source sentence; returns n_best hypotheses.

    If nothing finished by max_len the best unfinished hypothesis is
    returned with finished=False.
    """
    src_ids = np.asarray(src_ids, dtype=np.int64)
    if src_ids.size == 0:
        raise DataError("beam_search: empty source")
    if beam_size < 1:
        raise DataError(f"beam_size must be >= 1, got {beam_size}")
    if max_len is None:
        max_len = default_max_len(len(src_ids))
    if max_len < 1:
        raise DataError(f"max_len must be >= 1, got {max_len}")
    src = src_ids[None, :]
    feats = None if feat_ids is None else np.asarray(feat_ids, dtype=np.int64)[None, :]
    mask = np.ones_like(src, dtype=bool)
    ann = encode(src, feats, mask, params)
    h0, c0 = init_decoder_state(ann, params)
    tokens = np.full((1, 1), BOS, dtype=np.int64)  # the BOS column is dropped on output
    logprob = np.zeros(1)
    h, c, h_tilde = h0.data, c0.data, np.zeros((1, params.config.hidden_size))
    completed: list[Hypothesis] = []
    for _ in range(max_len):
        # every live row reads the one sentence's annotations
        logits, (h, c), h_tilde = decode_step(tokens[:, -1], h_tilde, (h, c), ann, params)
        lex = np.lexsort(tokens.T[::-1])  # live rows in lexicographic order
        scores = (logprob[:, None] + log_softmax(logits))[lex]
        scores[:, [PAD, BOS]] = -np.inf
        # a stable sort breaks score ties by flat index (lex rank, token)
        keep = np.argsort(-scores, axis=None, kind="stable")[:beam_size]
        keep = keep[np.isfinite(scores.flat[keep])]
        row, token = np.divmod(keep, scores.shape[1])
        parent, logprob = lex[row], scores.flat[keep]
        tokens = np.column_stack([tokens[parent], token])
        done = token == EOS
        completed.extend(
            Hypothesis(t[1:].tolist(), float(lp), True) for t, lp in zip(tokens[done], logprob[done])
        )
        parent, tokens, logprob = parent[~done], tokens[~done], logprob[~done]
        h, c, h_tilde = h[parent], c[parent], h_tilde[parent]
        if logprob.size == 0:
            break
    if not completed:
        completed = [Hypothesis(t[1:].tolist(), float(lp)) for t, lp in zip(tokens, logprob)]
    ranked = sorted(completed, key=lambda h: (-h.score(length_alpha), tuple(h.tokens)))
    return ranked[:n_best]


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
    pair = encode_pair(line, "", src_vocab, tgt_vocab, table)
    best = beam_search(params, pair.src_ids, pair.src_feats, beam_size, max_len, length_alpha)[0]
    return tgt_vocab.decode(best.tokens, unk_token=unk_token)


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
    """Translate line by line, preserving order. Returns the line count."""
    input_path, output_path = Path(input_path), Path(output_path)
    lines = read_lines(input_path)
    with output_path.open("w", encoding="utf-8") as dst:
        for lineno, line in enumerate(lines, 1):
            try:
                out = translate_line(
                    params, table, src_vocab, tgt_vocab, line,
                    beam_size, max_len, length_alpha, unk_token,
                )
            except RadnmtError as exc:
                # keep the error class (and so the exit code), add the line
                raise type(exc)(f"{input_path}:{lineno}: {exc}") from exc
            except OSError as exc:
                raise DataError(f"{input_path}:{lineno}: {exc}") from exc
            dst.write(out + "\n")
    return len(lines)
