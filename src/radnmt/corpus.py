"""Parallel text loading, character vocabularies, and padded mini-batches.

Source sentences are encoded as character ids plus a position-aligned
radical feature sequence; targets get BOS...EOS. Feature id 0 is
reserved for the EOS/PAD positions (real radicals are 1..214).
Vocabularies and encodings work on whole code-point arrays (one per
corpus side), looked up in the dense tables of radicals.code_table.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError, atomic_write, read_lines, read_utf8
from .radicals import N_RADICALS, RadicalTable, code_points, code_table, lookup
from .seeding import derive_rng

log = logging.getLogger(__name__)

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = {PAD: "<pad>", BOS: "<bos>", EOS: "<eos>", UNK: "<unk>"}
N_RESERVED = len(RESERVED)

EOS_FEATURE = 0  # feature id carried by EOS/PAD positions
FEATURE_VOCAB_SIZE = N_RADICALS + 1  # ids 0..214
MAX_CHARS = 400  # training-time cap on either side of a pair (the max_src_len key)


class Vocab:
    """Character <-> id map with reserved ids 0..3; id_table maps code points to ids (UNK if absent)."""

    def __init__(self, chars: list[str]):
        for i, ch in enumerate(chars):
            if len(ch) != 1:
                raise DataError(f"vocab entry {i} is not a single character: {ch!r}")
        self.id_to_char = list(RESERVED.values()) + list(chars)
        self.char_to_id = {ch: N_RESERVED + i for i, ch in enumerate(chars)}
        if len(self.char_to_id) != len(chars):
            raise DataError("duplicate character in vocabulary")
        self.id_table = code_table({ord(ch): i for ch, i in self.char_to_id.items()}, UNK, np.int32)

    def __len__(self) -> int:
        return len(self.id_to_char)

    def encode(self, text: str) -> list[int]:
        """Id of each character of text; UNK for those outside the vocabulary."""
        return lookup(self.id_table, code_points(text)).tolist()

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
        with atomic_write(path) as f:
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
    chars, counts = np.unique(code_points("".join(sentences)), return_counts=True)
    keep = counts >= min_count
    chars, counts = chars[keep], counts[keep]
    admitted = np.lexsort((chars, -counts))
    if max_size:
        admitted = admitted[: max_size - N_RESERVED]
    return Vocab([chr(cp) for cp in chars[admitted].tolist()])


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
    """encode_corpus of one pair, with no length cap."""
    return encode_corpus([(src, tgt)], src_vocab, tgt_vocab, table, max_chars=None)[0]


def _rows(texts: list[str], bos: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lay texts out end to end, each as a row of a BOS slot (if bos), its characters and an EOS slot.

    Returns the code points of all texts, the mask of the character
    slots, and the bounds of the rows (0, then the end of each row).
    """
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    bounds = np.concatenate(([0], np.cumsum(lengths + 1 + bos)))
    chars = np.ones(bounds[-1], dtype=bool)
    chars[bounds[1:] - 1] = False
    if bos:
        chars[bounds[:-1]] = False
    return code_points("".join(texts)), chars, bounds


def encode_corpus(
    pairs,
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    table: RadicalTable,
    max_chars: int | None = MAX_CHARS,
) -> list[ExamplePair]:
    """Encode all pairs, skipping over-length sentences (training-time cap).

    Each side is looked up as one code-point array; each pair's arrays
    are views of one array per field.
    """
    pairs = list(pairs)
    kept = pairs if max_chars is None else [
        (src, tgt) for src, tgt in pairs if len(src) <= max_chars and len(tgt) <= max_chars
    ]
    if skipped := len(pairs) - len(kept):
        log.warning("skipped %d pairs longer than %d characters", skipped, max_chars)
    if not kept:
        return []
    src_cps, src_chars, src_bounds = _rows([src for src, _ in kept], bos=False)
    tgt_cps, tgt_chars, tgt_bounds = _rows([tgt for _, tgt in kept], bos=True)
    src_ids = np.full(src_bounds[-1], EOS, dtype=np.int64)
    src_ids[src_chars] = lookup(src_vocab.id_table, src_cps)
    src_feats = np.full(src_bounds[-1], EOS_FEATURE, dtype=np.int64)
    src_feats[src_chars] = lookup(table.resolved, src_cps)
    tgt_ids = np.full(tgt_bounds[-1], EOS, dtype=np.int64)
    tgt_ids[tgt_bounds[:-1]] = BOS
    tgt_ids[tgt_chars] = lookup(tgt_vocab.id_table, tgt_cps)
    src_at, tgt_at = src_bounds.tolist(), tgt_bounds.tolist()
    return [
        ExamplePair(src_ids[s0:s1], src_feats[s0:s1], tgt_ids[t0:t1])
        for s0, s1, t0, t1 in zip(src_at, src_at[1:], tgt_at, tgt_at[1:])
    ]


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
