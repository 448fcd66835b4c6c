import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radnmt
from radnmt.corpus import (
    BOS,
    EOS,
    EOS_FEATURE,
    N_RESERVED,
    PAD,
    RESERVED,
    UNK,
    Vocab,
    build_vocab,
    encode_corpus,
    encode_pair,
    make_batches,
    read_parallel,
)
from radnmt.errors import DataError

from conftest import reference_radical


def test_build_vocab_counting():
    v = build_vocab(["ab", "ab"])
    assert len(v) == 6  # PAD BOS EOS UNK a b


def test_build_vocab_min_count_filters_everything():
    v = build_vocab(["ab"], min_count=2)
    assert len(v) == 4


def test_build_vocab_frequency_ordering():
    v = build_vocab(["aab"])
    assert v.encode("a") < v.encode("b")


def test_build_vocab_codepoint_tiebreak():
    v = build_vocab(["ba"])  # equal counts: codepoint order
    assert v.encode("a") < v.encode("b")


def test_build_vocab_max_size_truncates():
    v = build_vocab(["abcdef"], max_size=6)
    assert len(v) == 6


def test_vocab_roundtrip_through_file(tmp_path):
    v = build_vocab(["鉄の実験\tタブ", "実験データ\r"])  # "\r" reaches a vocabulary: read_lines keeps a lone one
    path = tmp_path / "vocab.tsv"
    v.save(path)
    again = Vocab.load(path)
    assert again.id_to_char == v.id_to_char
    assert again.char_to_id == v.char_to_id


def test_vocab_decode_skips_reserved():
    v = build_vocab(["abc"])
    ids = [BOS, *v.encode("a?b"), EOS, PAD]  # "?" is outside the vocabulary: UNK
    assert v.decode(ids, unk_token="?") == "a?b"


def test_read_parallel_alignment(tmp_path):
    src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
    src.write_text("a\n\nc\n", encoding="utf-8")
    tgt.write_text("x\ny\nz\n", encoding="utf-8")
    pairs = read_parallel(src, tgt)
    assert pairs == [("a", "x"), ("", "y"), ("c", "z")]


def test_read_parallel_count_mismatch(tmp_path):
    src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
    src.write_text("a\nb\nc\n", encoding="utf-8")
    tgt.write_text("x\ny\n", encoding="utf-8")
    with pytest.raises(DataError, match="3 vs 2"):
        read_parallel(src, tgt)


def test_read_parallel_invalid_utf8_reports_offset(tmp_path):
    src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
    src.write_bytes(b"ok\n\xff\n")
    tgt.write_text("x\ny\n", encoding="utf-8")
    with pytest.raises(DataError, match="byte offset 3"):
        read_parallel(src, tgt)


def test_encode_pair_example(table):
    sv = build_vocab(["鉄"])
    tv = build_vocab(["铁"])
    ex = encode_pair("鉄", "铁", sv, tv, table)
    assert ex.src_ids.tolist() == [*sv.encode("鉄"), EOS]
    assert ex.src_feats.tolist() == [167, EOS_FEATURE]
    assert ex.tgt_ids.tolist() == [BOS, *tv.encode("铁"), EOS]


def test_encode_pair_empty_source(table):
    sv = build_vocab(["a"])
    tv = build_vocab(["b"])
    ex = encode_pair("", "b", sv, tv, table)
    assert ex.src_ids.tolist() == [EOS]
    assert ex.src_feats.tolist() == [EOS_FEATURE]


def test_encode_pair_unknown_char_keeps_true_radical(table):
    sv = build_vocab(["a"])
    tv = build_vocab(["b"])
    ex = encode_pair("鉄", "b", sv, tv, table)
    assert ex.src_ids.tolist() == [UNK, EOS]
    assert ex.src_feats.tolist() == [167, EOS_FEATURE]


def _examples(table, sentences):
    sv = build_vocab([s for s, _ in sentences])
    tv = build_vocab([t for _, t in sentences])
    return [encode_pair(s, t, sv, tv, table) for s, t in sentences]


def test_make_batches_sizes(table):
    pairs = [(f"ab{i % 7}", "xy") for i in range(25)]
    examples = _examples(table, pairs)
    batches = make_batches(examples, batch_size=10, seed=0)
    assert sorted(b.size for b in batches) == [5, 10, 10]


def test_make_batches_single_pair_all_true_mask(table):
    examples = _examples(table, [("abc", "xy")])
    (batch,) = make_batches(examples, batch_size=10, seed=0)
    assert batch.src_mask.all() and batch.tgt_mask.all()


def test_make_batches_padding_and_masks(table):
    examples = _examples(table, [("abc", "x"), ("abcde", "x")])
    (batch,) = make_batches(examples, batch_size=2, seed=0)
    assert batch.src.shape[1] == 6  # 5 chars + EOS
    lengths = sorted(batch.src_mask.sum(axis=1).tolist())
    assert lengths == [4, 6]
    short = int(np.argmin(batch.src_mask.sum(axis=1)))
    assert (batch.src[short, 4:] == PAD).all()
    assert (batch.feats[short, 4:] == EOS_FEATURE).all()


def test_make_batches_every_row_has_one_eos(table, toy_data):
    _, _, examples = toy_data
    for batch in make_batches(examples, batch_size=10, seed=3):
        assert ((batch.src == EOS).sum(axis=1) == 1).all()
        assert ((batch.tgt == EOS).sum(axis=1) == 1).all()


def test_make_batches_mask_sum_equals_true_length(table, toy_data):
    _, _, examples = toy_data
    by_len = {tuple(e.src_ids.tolist()): len(e.src_ids) for e in examples}
    for batch in make_batches(examples, batch_size=10, seed=1):
        for i in range(batch.size):
            real = batch.src[i][batch.src_mask[i]]
            assert batch.src_mask[i].sum() == by_len[tuple(real.tolist())]


def test_make_batches_deterministic(table, toy_data):
    _, _, examples = toy_data
    a = make_batches(examples, batch_size=10, seed=42)
    b = make_batches(examples, batch_size=10, seed=42)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.src, y.src)
        np.testing.assert_array_equal(x.tgt, y.tgt)


def test_feature_alignment_survives_batching(table, toy_data):
    sv, _, examples = toy_data
    feat_of = {}
    for e in examples:
        for cid, fid in zip(e.src_ids.tolist(), e.src_feats.tolist()):
            feat_of.setdefault(cid, set()).add(fid)
    for batch in make_batches(examples, batch_size=10, seed=9):
        for i in range(batch.size):
            for j in range(batch.src.shape[1]):
                if batch.src_mask[i, j]:
                    assert batch.feats[i, j] in feat_of[int(batch.src[i, j])]


def test_encode_corpus_length_cap(table):
    pairs = [("a" * 500, "b"), ("ab", "b")]
    sv = build_vocab([s for s, _ in pairs])
    tv = build_vocab([t for _, t in pairs])
    kept = radnmt.encode_corpus(pairs, sv, tv, table, max_chars=400)
    assert len(kept) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="鉄実験研究abc日本語", min_size=0, max_size=12), min_size=1, max_size=8))
def test_vocab_roundtrip_property(table, sentences):
    vocab = build_vocab(sentences)
    for s in sentences:
        ids = vocab.encode(s)
        assert vocab.decode(ids) == s  # no UNK possible: vocab built on s


# The per-character dict-and-list encoding that the whole-corpus array code replaced.


def _reference_vocab(sentences, min_count=1, max_size=None) -> list[str]:
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
    return list(RESERVED.values()) + admitted


def _reference_pair(src, tgt, src_chars, tgt_chars, table) -> tuple[list[int], list[int], list[int]]:
    src_ids = {ch: i for i, ch in enumerate(src_chars) if i >= N_RESERVED}
    tgt_ids = {ch: i for i, ch in enumerate(tgt_chars) if i >= N_RESERVED}
    return (
        [src_ids.get(ch, UNK) for ch in src] + [EOS],
        [reference_radical(table, ch) for ch in src] + [EOS_FEATURE],
        [BOS] + [tgt_ids.get(ch, UNK) for ch in tgt] + [EOS],
    )


def _as_lists(example) -> tuple[list[int], list[int], list[int]]:
    arrays = (example.src_ids, example.src_feats, example.tgt_ids)
    assert all(a.dtype == np.int64 and a.ndim == 1 for a in arrays)
    return tuple(a.tolist() for a in arrays)


# kana, listed and unlisted Han (㐀), an astral Han and an emoji, Latin, a
# fullwidth letter, a digit, symbols and a lone surrogate
_CHARS = ["か", "カ", "ー", "鉄", "実", "㐀", "\U00020000", "\U0001F600", "a", "Ａ", "7", "。", " ", "\ud800"]
_texts = st.lists(st.sampled_from(_CHARS), max_size=8).map("".join)


@settings(max_examples=200, deadline=None)
@given(
    src_lines=st.lists(_texts, min_size=1, max_size=6),
    tgt_lines=st.lists(_texts, min_size=1, max_size=6),
    pairs=st.lists(st.tuples(_texts, _texts), max_size=6),
    max_chars=st.integers(0, 6),
    min_count=st.integers(0, 3),
    max_size=st.sampled_from([None, 0, 5, 6, 9]),
)
def test_vocab_and_encoding_equal_per_character_reference(
    table, src_lines, tgt_lines, pairs, max_chars, min_count, max_size
):
    src_vocab = build_vocab(src_lines, min_count=min_count, max_size=max_size)
    tgt_vocab = build_vocab(tgt_lines, min_count=min_count, max_size=max_size)
    src_chars = _reference_vocab(src_lines, min_count, max_size)
    tgt_chars = _reference_vocab(tgt_lines, min_count, max_size)
    assert src_vocab.id_to_char == src_chars
    assert tgt_vocab.id_to_char == tgt_chars
    # lines of exactly max_chars and max_chars + 1 characters, on either side
    edge = "鉄か\U00020000" * 3
    exact, over = edge[:max_chars], edge[: max_chars + 1]
    pairs = pairs + [(exact, exact), (exact, over), (over, exact)]
    expected = [
        _reference_pair(src, tgt, src_chars, tgt_chars, table)
        for src, tgt in pairs
        if len(src) <= max_chars and len(tgt) <= max_chars
    ]
    encoded = encode_corpus(pairs, src_vocab, tgt_vocab, table, max_chars=max_chars)
    assert [_as_lists(e) for e in encoded] == expected
    for src, tgt in pairs:
        reference = _reference_pair(src, tgt, src_chars, tgt_chars, table)
        assert _as_lists(encode_pair(src, tgt, src_vocab, tgt_vocab, table)) == reference
        assert src_vocab.encode(src) == reference[0][:-1]
        assert table.annotate(src) == reference[1][:-1]
