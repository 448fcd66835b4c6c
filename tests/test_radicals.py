import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radnmt
from radnmt.errors import DataError
from radnmt.radicals import (
    _HAN_RANGES,
    KANGXI_GLYPHS,
    N_RADICALS,
    bundled_table_paths,
    load_radical_table,
    radical_glyph,
)

from conftest import reference_radical


def test_kangxi_glyph_list_complete():
    assert len(KANGXI_GLYPHS) == N_RADICALS + 1
    assert radical_glyph(167) == "金"
    assert radical_glyph(1) == "一"
    assert radical_glyph(214) == "龠"


def test_iron_resolves_to_metal(table):
    assert table.radical_of("鉄") == 167


def test_hiragana_inherits_source_kanji_radical(table):
    # あ derives from 安, whose radical is 宀 (#40)
    assert table.radical_of("あ") == table.radical_of("安") == 40


@pytest.mark.parametrize(
    "ch,expected",
    [
        ("7", 1),  # 七
        ("0", 173),  # 零
        ("Q", 140),  # 英
        ("z", 140),
        ("。", 118),  # 符
        ("!", 118),
        (" ", 118),
    ],
)
def test_rule_examples(table, ch, expected):
    assert table.radical_of(ch) == expected


def test_fullwidth_folding(table):
    assert table.radical_of("７") == table.radical_of("7")
    assert table.radical_of("Ａ") == table.radical_of("A")
    assert table.radical_of("ｑ") == table.radical_of("q")


def test_kangxi_radical_block_maps_by_position(table):
    assert table.radical_of(chr(0x2F00)) == 1
    assert table.radical_of(chr(0x2FA6)) == 167
    assert table.radical_of(chr(0x2FD5)) == 214


def test_prolonged_sound_and_iteration_marks_are_symbol_class(table):
    for ch in "ーゝゞヽヾ":
        assert table.radical_of(ch) == table.symbol_radical


def test_unknown_han_falls_through_to_symbol_with_counter(table):
    assert ord("㐀") not in table.han_map
    assert table.radical_of("㐀") == table.symbol_radical
    assert table.unknown_han("㐀鉄あ") == 1
    assert table.unknown_han("") == 0
    assert table.annotate("㐀㐁鉄") == [table.symbol_radical, table.symbol_radical, 167]
    assert table == radnmt.load_bundled_table()
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.symbol_radical = 1


def test_resolved_map_follows_rule_order_everywhere(table):
    edges = [cp + d for r in _HAN_RANGES for cp in (r.start, r[-1]) for d in (-1, 0, 1)]
    for cp in [*range(0x10000), *edges]:
        assert table.radical_of(chr(cp)) == reference_radical(table, chr(cp)), hex(cp)


def test_annotate_alignment_and_examples(table):
    assert table.annotate("") == []
    assert table.annotate("77") == [1, 1]
    assert table.annotate("鉄あ") == [167, 40]


def test_kana_sweep_never_hits_symbol_rule_spuriously(table):
    # every standard kana resolves through its source kanji, and only the
    # marks explicitly classed as symbols share the symbol radical source
    for cp in list(range(0x3041, 0x3097)) + list(range(0x30A1, 0x30FB)):
        assert ord(chr(cp)) in table.kana_map
        src_cp, rad = table.kana_map[cp]
        assert rad == table.han_map[src_cp]
        assert 1 <= rad <= N_RADICALS


def test_ascii_sweep_rule_precedence(table):
    for cp in range(128):
        ch = chr(cp)
        rad = table.radical_of(ch)
        if ch.isdigit():
            assert rad == table.numeral_map[ch]
        elif ch.isalpha():
            assert rad == table.latin_radical
        else:
            assert rad == table.symbol_radical


@settings(max_examples=300, deadline=None)
@given(st.characters())
def test_totality_and_closed_codomain(table, ch):
    rad = table.radical_of(ch)
    assert 1 <= rad <= N_RADICALS


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40))
def test_annotate_length_preserved(table, text):
    assert len(table.annotate(text)) == len(text)


def test_determinism_across_loads(table):
    again = radnmt.load_bundled_table()
    sample = "鉄あ7Q。ーデ温度計алфа"
    assert table.annotate(sample) == again.annotate(sample)


def test_load_rejects_malformed_line(tmp_path):
    han, kana = bundled_table_paths()
    bad = tmp_path / "bad.tsv"
    bad.write_text(han.read_text(encoding="utf-8") + "U+4E00 167\n", encoding="utf-8")
    with pytest.raises(DataError, match="tab-separated"):
        load_radical_table(bad, kana)


def test_load_rejects_out_of_range_index(tmp_path):
    han, kana = bundled_table_paths()
    bad = tmp_path / "bad.tsv"
    bad.write_text(han.read_text(encoding="utf-8") + "U+3400\t215\n", encoding="utf-8")
    with pytest.raises(DataError, match="215"):
        load_radical_table(bad, kana)


def test_load_rejects_empty_kana_file(tmp_path):
    han, _ = bundled_table_paths()
    empty = tmp_path / "kana.tsv"
    empty.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(DataError, match="kana"):
        load_radical_table(han, empty)


def test_load_requires_latin_and_symbol_anchor_chars(tmp_path):
    han, kana = bundled_table_paths()
    lines = [
        line
        for line in han.read_text(encoding="utf-8").splitlines()
        if not line.startswith(f"U+{ord('英'):04X}")
    ]
    bad = tmp_path / "no_ei.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="英"):
        load_radical_table(bad, kana)


def test_annotate_file_format(table, tmp_path):
    src = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    src.write_text("鉄7\n\n", encoding="utf-8")
    assert radnmt.radicals.annotate_file(table, src, out) == 2
    assert out.read_text(encoding="utf-8") == "鉄|167 7|1\n\n"
