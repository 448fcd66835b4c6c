"""Parallel text loading, character vocabularies, and padded mini-batches.

Source sentences are encoded as character ids plus a position-aligned
radical feature sequence; targets get BOS...EOS. Feature id 0 is
reserved for the EOS/PAD positions (real radicals are 1..214).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError, read_lines, read_utf8
from .radicals import N_RADICALS, RadicalTable
from .seeding import derive_rng

log = logging.getLogger(__name__)

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = {PAD: "<pad>", BOS: "<bos>", EOS: "<eos>", UNK: "<unk>"}
N_RESERVED = len(RESERVED)

EOS_FEATURE = 0  # feature id carried by EOS/PAD positions
FEATURE_VOCAB_SIZE = N_RADICALS + 1  # ids 0..214


class Vocab:
    """Character <-> id map with reserved ids 0..3."""

    def __init__(self, chars: list[str]):
        for i, ch in enumerate(chars):
            if len(ch) != 1:
                raise DataError(f"vocab entry {i} is not a single character: {ch!r}")
        self.id_to_char = list(RESERVED.values()) + list(chars)
        self.char_to_id = {ch: N_RESERVED + i for i, ch in enumerate(chars)}
        if len(self.char_to_id) != len(chars):
            raise DataError("duplicate character in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_char)

    def encode(self, text: str) -> list[int]:
        """Id of each character of text; UNK for those outside the vocabulary."""
        get = self.char_to_id.get
        return [get(ch, UNK) for ch in text]

    def decode(self, ids, unk_token: str = "<unk>") -> str:
        out = []
        for i in ids:
            i = int(i)
            if i in (PAD, BOS, EOS):
                continue
            if i == UNK:
                out.append(unk_token)
            elif 0 <= i < len(self.id_to_char):
                out.append(self.id_to_char[i])
            else:
                raise DataError(f"id {i} outside vocabulary of size {len(self)}")
        return "".join(out)

    def save(self, path) -> None:
        with Path(path).open("w", encoding="utf-8") as f:
            for i, ch in enumerate(self.id_to_char):
                f.write(f"{i}\t{ch}\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        chars: list[str] = []
        for lineno, line in enumerate(read_utf8(path).split("\n"), 1):  # save() writes "\n" only
            if not line:
                continue
            fields = line.split("\t", 1)
            if len(fields) != 2:
                raise DataError(f"{path}:{lineno}: expected id<TAB>char")
            ident_text, token = fields
            try:
                ident = int(ident_text)
            except ValueError:
                raise DataError(f"{path}:{lineno}: id {ident_text!r} is not an integer") from None
            if ident in RESERVED:
                if token != RESERVED[ident]:
                    raise DataError(
                        f"{path}:{lineno}: reserved id {ident} must be {RESERVED[ident]}"
                    )
                continue
            if ident != N_RESERVED + len(chars):
                raise DataError(f"{path}:{lineno}: ids must be dense and ordered")
            chars.append(token)
        return cls(chars)


def build_vocab(sentences, min_count: int = 1, max_size: int | None = None) -> Vocab:
    """Admit characters by (frequency desc, codepoint asc), most frequent first.

    max_size counts the 4 reserved entries; None or 0 means unlimited.
    """
    if max_size and max_size <= N_RESERVED:
        raise UsageError(f"max_size must be 0 (unlimited) or at least {N_RESERVED + 1}, got {max_size}")
    if not sentences:
        raise DataError("build_vocab needs at least one sentence")
    counts: dict[str, int] = {}
    for sentence in sentences:
        for ch in sentence:
            counts[ch] = counts.get(ch, 0) + 1
    admitted = sorted(
        (ch for ch, n in counts.items() if n >= min_count),
        key=lambda ch: (-counts[ch], ord(ch)),
    )
    if max_size:
        admitted = admitted[: max_size - N_RESERVED]
    return Vocab(admitted)


def read_parallel(src_path, tgt_path) -> list[tuple[str, str]]:
    """Line-aligned sentence pairs from two UTF-8 files (lines as errors.read_lines)."""
    src_lines, tgt_lines = read_lines(src_path), read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise DataError(
            f"line count mismatch: {len(src_lines)} vs {len(tgt_lines)} "
            f"({src_path} vs {tgt_path})"
        )
    return list(zip(src_lines, tgt_lines))


@dataclass
class ExamplePair:
    """One encoded sentence pair; unpadded (padding is a batch concern)."""

    src_ids: np.ndarray  # EOS-terminated
    src_feats: np.ndarray  # aligned; EOS position carries EOS_FEATURE
    tgt_ids: np.ndarray  # BOS-prefixed, EOS-terminated

    def __post_init__(self):
        if len(self.src_feats) != len(self.src_ids):
            raise DataError("feature sequence not aligned with source ids")


def encode_pair(src: str, tgt: str, src_vocab: Vocab, tgt_vocab: Vocab, table: RadicalTable) -> ExamplePair:
    src_ids = np.array(src_vocab.encode(src) + [EOS], dtype=np.int64)
    feats = np.array(table.annotate(src) + [EOS_FEATURE], dtype=np.int64)
    tgt_ids = np.array([BOS] + tgt_vocab.encode(tgt) + [EOS], dtype=np.int64)
    return ExamplePair(src_ids, feats, tgt_ids)


def encode_corpus(
    pairs,
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    table: RadicalTable,
    max_chars: int | None = 400,
) -> list[ExamplePair]:
    """Encode all pairs, skipping over-length sentences (training-time cap)."""
    out = []
    skipped = 0
    for src, tgt in pairs:
        if max_chars is not None and (len(src) > max_chars or len(tgt) > max_chars):
            skipped += 1
            continue
        out.append(encode_pair(src, tgt, src_vocab, tgt_vocab, table))
    if skipped:
        log.warning("skipped %d pairs longer than %d characters", skipped, max_chars)
    return out


@dataclass
class Batch:
    src: np.ndarray  # (B, L_src) int64, PAD-filled
    feats: np.ndarray  # (B, L_src)
    src_mask: np.ndarray  # (B, L_src) bool
    tgt: np.ndarray  # (B, L_tgt)
    tgt_mask: np.ndarray  # (B, L_tgt) bool

    @property
    def size(self) -> int:
        return self.src.shape[0]


def pad_rows(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """PAD-filled (len(rows), longest) id grid and its mask of real positions."""
    width = max(len(r) for r in rows)
    grid = np.full((len(rows), width), PAD, dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=bool)
    for i, r in enumerate(rows):
        grid[i, : len(r)] = r
        mask[i, : len(r)] = True
    return grid, mask


def make_batches(examples: list[ExamplePair], batch_size: int = 10, seed: int = 0) -> list[Batch]:
    """Shuffle, group by similar source length, pad, and mask.

    Deterministic for a given seed: a seeded shuffle breaks ties, a
    stable sort by source length keeps padding low, and the resulting
    batches are emitted in seeded random order.
    """
    if not examples:
        raise DataError("make_batches needs at least one example")
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    rng = derive_rng(seed, "batches")
    order = list(rng.permutation(len(examples)))
    order.sort(key=lambda i: len(examples[i].src_ids))  # stable
    chunks = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    chunk_order = rng.permutation(len(chunks))
    batches = []
    for ci in chunk_order:
        rows = [examples[i] for i in chunks[ci]]
        src, src_mask = pad_rows([r.src_ids for r in rows])
        feats, _ = pad_rows([r.src_feats for r in rows])
        feats[~src_mask] = EOS_FEATURE
        tgt, tgt_mask = pad_rows([r.tgt_ids for r in rows])
        batches.append(Batch(src, feats, src_mask, tgt, tgt_mask))
    return batches


def toy_corpus_paths() -> tuple[Path, Path]:
    """Bundled 50-pair Japanese -> Chinese toy corpus."""
    from importlib import resources

    data = resources.files("radnmt") / "data" / "toy"
    return Path(str(data / "toy.ja")), Path(str(data / "toy.zh"))
