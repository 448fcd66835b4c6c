"""Benchmark inputs, made from the seed with the standard library only.

Nothing here imports radnmt or numpy, so generating inputs stays out of
the set-up time the benchmark reports.

* ``toy-memorize`` uses the bundled 50-pair corpus as it ships.
* ``paper-synthetic`` writes a seeded Japanese/Chinese corpus. Source
  lines mix kana from the bundled kana table with Han characters, target
  lines are Han only. The Han pool is every character of the bundled
  radical table plus unlisted CJK code points (which take the symbol
  rule), so both vocabularies fill their 4,000-entry cap. Every pool
  character appears at least once; the rest follow a Zipf law.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "src" / "radnmt" / "data"

# paper-synthetic make-up
N_PAIRS = 12000
LINE_LEN = (36, 44)  # inclusive bounds of a corpus line, in characters
VOCAB_CAP = 4000
HAN_POOL = 4600  # > VOCAB_CAP, so the cap always binds
KANA_SHARE = 0.35  # of source characters
ZIPF_S = 0.9
N_TRANSLATE = 2  # lines per translate_file call
TRANSLATE_LEN = 12  # beam search runs to max_len = 2 * (12 + 1) + 10 steps
N_SCORE = 30
N_CHECK = 10  # pairs for the gradient and batch-size checks
CHECK_LEN = 6  # characters a side in paper-synthetic's check pairs


@dataclass
class Inputs:
    src_path: Path  # training corpus, source side
    tgt_path: Path
    translate_path: Path  # lines given to translate_file
    reference_lines: list[str] | None  # expected translations, if known
    check_pairs: list[tuple[str, str]]  # pairs for the gradient and batch-size checks


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def toy_inputs(tmp: Path) -> Inputs:
    src, tgt = DATA / "toy" / "toy.ja", DATA / "toy" / "toy.zh"
    refs = tgt.read_text(encoding="utf-8").splitlines()
    pairs = list(zip(src.read_text(encoding="utf-8").splitlines(), refs))
    return Inputs(src, tgt, src, refs, pairs[:N_CHECK])


def _han_pool(rng: random.Random) -> list[str]:
    listed = []
    for line in (DATA / "kangxi_radicals.tsv").read_text(encoding="utf-8").splitlines():
        if line.startswith("U+"):
            listed.append(int(line.split("\t")[0][2:], 16))
    taken = set(listed)
    unlisted = [cp for cp in range(0x4E00, 0x9FA6) if cp not in taken]
    pool = listed + rng.sample(unlisted, HAN_POOL - len(listed))
    rng.shuffle(pool)
    return [chr(cp) for cp in pool]


def _kana_pool() -> list[str]:
    lines = (DATA / "kana_sources.tsv").read_text(encoding="utf-8").splitlines()
    return [line.split("\t")[0] for line in lines if line and not line.startswith("#")]


def synthetic_inputs(tmp: Path, seed: int) -> Inputs:
    rng = random.Random(seed)
    han, kana = _han_pool(rng), _kana_pool()
    cum, total = [], 0.0
    for rank in range(len(han)):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cum.append(total)
    src_han = han[:]
    rng.shuffle(src_han)  # the two sides rank characters differently

    def han_line(pool, n):
        return "".join(rng.choices(pool, cum_weights=cum, k=n))

    def src_line(n):
        chars = list(han_line(src_han, n))
        for i in range(n):
            if rng.random() < KANA_SHARE:
                chars[i] = rng.choice(kana)
        return "".join(chars)

    def cover(pool):  # every pool character once, cut into corpus-length lines
        order = rng.sample(pool, len(pool))
        step = LINE_LEN[1]
        return ["".join(order[i : i + step]) for i in range(0, len(order), step)]

    src_lines, tgt_lines = cover(src_han + kana), cover(han)
    n_cover = max(len(src_lines), len(tgt_lines))
    src_lines += [src_line(rng.randint(*LINE_LEN)) for _ in range(n_cover - len(src_lines))]
    tgt_lines += [han_line(han, rng.randint(*LINE_LEN)) for _ in range(n_cover - len(tgt_lines))]
    for _ in range(N_PAIRS - n_cover):
        src_lines.append(src_line(rng.randint(*LINE_LEN)))
        tgt_lines.append(han_line(han, rng.randint(*LINE_LEN)))
    # the covering lines go last, so the lines trained and scored on are all Zipf-drawn
    src_lines = src_lines[n_cover:] + src_lines[:n_cover]
    tgt_lines = tgt_lines[n_cover:] + tgt_lines[:n_cover]

    paths = tmp / "corpus.ja", tmp / "corpus.zh", tmp / "translate.ja"
    _write_lines(paths[0], src_lines)
    _write_lines(paths[1], tgt_lines)
    _write_lines(paths[2], [src_line(TRANSLATE_LEN) for _ in range(N_TRANSLATE)])
    checks = [(src_line(CHECK_LEN), han_line(han, CHECK_LEN)) for _ in range(N_CHECK)]
    return Inputs(*paths, None, checks)
