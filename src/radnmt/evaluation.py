"""Corpus-level BLEU and combined perplexity/BLEU reports.

BLEU here is the standard corpus metric: clipped modified n-gram
precisions p1..p4 combined geometrically, times the brevity penalty
BP = min(1, exp(1 - ref_len/hyp_len)). Any zero precision zeroes the
score unless add-one smoothing (n >= 2 only) is requested; single
reference per hypothesis.

Default tokenization is per character, which suits unsegmented Chinese
output; whitespace mode scores pre-segmented files.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from .corpus import Vocab, encode_corpus, read_parallel
from .decoding import translate_lines
from .errors import DataError, atomic_write
from .model import ModelParams
from .radicals import RadicalTable
from .training import perplexity

TOKENIZATIONS = ("char", "whitespace")
MAX_N = 4  # BLEU-4: n-gram orders 1..MAX_N


def tokenize(line: str, mode: str) -> list[str]:
    if mode == "char":
        return list(line)
    if mode == "whitespace":
        return line.split()
    raise DataError(f"unknown tokenization {mode!r}; choose from {TOKENIZATIONS}")


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


@dataclass
class BleuReport:
    bleu: float  # 0..100
    precisions: tuple[float, ...]  # p1..p4
    brevity_penalty: float
    hyp_tokens: int
    ref_tokens: int
    tokenization: str


def bleu(
    hypotheses: list[str],
    references: list[str],
    tokenization: str = "char",
    smoothing: bool = False,
) -> BleuReport:
    if len(hypotheses) != len(references):
        raise DataError(
            f"line count mismatch: {len(hypotheses)} hypotheses vs {len(references)} references"
        )
    matches = [0] * MAX_N
    guesses = [0] * MAX_N
    hyp_tokens = ref_tokens = 0
    for hyp, ref in zip(hypotheses, references):
        h = tokenize(hyp, tokenization)
        r = tokenize(ref, tokenization)
        hyp_tokens += len(h)
        ref_tokens += len(r)
        for n in range(1, MAX_N + 1):
            got = _ngrams(h, n)
            want = _ngrams(r, n)
            guesses[n - 1] += sum(got.values())
            matches[n - 1] += sum((got & want).values())
    precisions = []
    for n in range(1, MAX_N + 1):
        m, g = matches[n - 1], guesses[n - 1]
        if smoothing and n >= 2:
            m, g = m + 1, g + 1
        # an order with no hypothesis n-grams at all is vacuously perfect,
        # so degenerate short corpora still satisfy BLEU(h, h) = 100
        precisions.append(m / g if g > 0 else 1.0)
    if hyp_tokens == 0 or any(p == 0.0 for p in precisions):
        score = 0.0
        bp = 0.0 if hyp_tokens == 0 else min(1.0, math.exp(1.0 - ref_tokens / hyp_tokens))
    else:
        bp = min(1.0, math.exp(1.0 - ref_tokens / hyp_tokens))
        score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / MAX_N)
    return BleuReport(score, tuple(precisions), bp, hyp_tokens, ref_tokens, tokenization)


def evaluate(
    params: ModelParams,
    table: RadicalTable,
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    src_path,
    ref_path,
    out_dir=None,
    tokenization: str = "char",
    beam_size: int = 5,
    max_len: int | None = None,
    smoothing: bool = False,
) -> dict:
    """Teacher-forced perplexity plus beam-translation BLEU, with reports.

    When out_dir is given, replaces hypotheses.txt, metrics.tsv and a
    side-by-side examples.txt (source / reference / hypothesis), each
    atomically; all three are deterministic for a checkpoint and inputs.
    """
    pairs = read_parallel(src_path, ref_path)
    if not pairs:
        raise DataError("evaluation set is empty")
    examples = encode_corpus(pairs, src_vocab, tgt_vocab, table, max_chars=None)
    ppl = perplexity(params, examples)

    hypotheses = translate_lines(
        params, table, src_vocab, tgt_vocab, [src for src, _ in pairs], beam_size, max_len,
        source=str(src_path),
    )
    references = [tgt for _, tgt in pairs]
    report = bleu(hypotheses, references, tokenization=tokenization, smoothing=smoothing)
    result = {"ppl": ppl, **asdict(report), "sentences": len(pairs)}
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with atomic_write(out_dir / "hypotheses.txt") as f:
            f.write("".join(h + "\n" for h in hypotheses))
        with atomic_write(out_dir / "metrics.tsv") as f:
            f.write("metric\tvalue\n")
            for key, value in result.items():
                if key == "precisions":
                    f.write("".join(f"p{i}\t{p}\n" for i, p in enumerate(value, 1)))
                else:
                    f.write(f"{key}\t{value}\n")
        with atomic_write(out_dir / "examples.txt") as f:
            for (src, ref), hyp in zip(pairs, hypotheses):
                f.write(f"SRC: {src}\nREF: {ref}\nHYP: {hyp}\n\n")
    return result
