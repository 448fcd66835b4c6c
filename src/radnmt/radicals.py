"""Kangxi radical assignment for every character a corpus can contain.

Chinese characters (and kanji) are indexed in traditional dictionaries
under one of 214 Kangxi radicals, usually the semantic component. This
module maps *any* Unicode character to exactly one radical index.
Characters of the Kangxi Radicals block (U+2F00..U+2FD5) are the
radicals themselves and map by position; every other character takes
the first of these rules that applies:

  1. Han characters resolve through a bundled codepoint table.
  2. Hiragana and katakana have no radical of their own; they inherit
     the radical of the man'yogana kanji they were derived from
     (e.g. あ comes from 安, so あ gets 安's radical, 宀 #40).
  3. Arabic numerals borrow the radical of the corresponding Chinese
     numeral (7 -> 七 -> 一 #1). Fullwidth digits fold to ASCII first.
  4. Latin letters (either case, either width) use the radical of 英.
  5. Everything else uses the radical of 符.

The rules are resolved once, when the tables load, into one frozen
code-point table; every code point it lacks takes rule 5, so the mapping
is total: every Unicode scalar yields an index in 1..214. Han
characters missing from the table take rule 5 too, not an error, so
noisy corpora annotate cleanly; RadicalTable.unknown_han counts them.
"""

from __future__ import annotations

import string
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataError, atomic_write, read_lines

N_RADICALS = 214

# Canonical glyph for each radical number (index 0 unused).
KANGXI_GLYPHS = (
    "",
    "一", "丨", "丶", "丿", "乙", "亅", "二", "亠", "人", "儿",
    "入", "八", "冂", "冖", "冫", "几", "凵", "刀", "力", "勹",
    "匕", "匚", "匸", "十", "卜", "卩", "厂", "厶", "又", "口",
    "囗", "土", "士", "夂", "夊", "夕", "大", "女", "子", "宀",
    "寸", "小", "尢", "尸", "屮", "山", "巛", "工", "己", "巾",
    "干", "幺", "广", "廴", "廾", "弋", "弓", "彐", "彡", "彳",
    "心", "戈", "戶", "手", "支", "攴", "文", "斗", "斤", "方",
    "无", "日", "曰", "月", "木", "欠", "止", "歹", "殳", "毋",
    "比", "毛", "氏", "气", "水", "火", "爪", "父", "爻", "爿",
    "片", "牙", "牛", "犬", "玄", "玉", "瓜", "瓦", "甘", "生",
    "用", "田", "疋", "疒", "癶", "白", "皮", "皿", "目", "矛",
    "矢", "石", "示", "禸", "禾", "穴", "立", "竹", "米", "糸",
    "缶", "网", "羊", "羽", "老", "而", "耒", "耳", "聿", "肉",
    "臣", "自", "至", "臼", "舌", "舛", "舟", "艮", "色", "艸",
    "虍", "虫", "血", "行", "衣", "襾", "見", "角", "言", "谷",
    "豆", "豕", "豸", "貝", "赤", "走", "足", "身", "車", "辛",
    "辰", "辵", "邑", "酉", "釆", "里", "金", "長", "門", "阜",
    "隶", "隹", "雨", "靑", "非", "面", "革", "韋", "韭", "音",
    "頁", "風", "飛", "食", "首", "香", "馬", "骨", "高", "髟",
    "鬥", "鬯", "鬲", "鬼", "魚", "鳥", "鹵", "鹿", "麥", "麻",
    "黃", "黍", "黑", "黹", "黽", "鼎", "鼓", "鼠", "鼻", "齊",
    "齒", "龍", "龜", "龠",
)

LATIN_SOURCE = "英"
SYMBOL_SOURCE = "符"
CHINESE_NUMERALS = "零一二三四五六七八九"

_HIRAGANA = range(0x3041, 0x3097)
_KATAKANA = range(0x30A1, 0x30FB)
# Prolonged-sound mark and the kana iteration marks are covered too.
_KANA_EXTRAS = (0x30FC, 0x309D, 0x309E, 0x30FD, 0x30FE)

_KANGXI_BLOCK = range(0x2F00, 0x2FD6)  # Kangxi Radicals block, ordered 1..214
_FULLWIDTH_OFFSET = 0xFEE0  # U+FF01..U+FF5E are fullwidth U+0021..U+007E

_HAN_RANGES = (
    range(0x3400, 0x4DC0),
    range(0x4E00, 0xA000),
    range(0xF900, 0xFB00),
    range(0x20000, 0x2FA20),
    range(0x30000, 0x3134B),
)


def radical_glyph(index: int) -> str:
    """Canonical representative character of a radical index."""
    check_radical_index(index)
    return KANGXI_GLYPHS[index]


def check_radical_index(index: int) -> int:
    if not 1 <= index <= N_RADICALS:
        raise DataError(f"radical index {index} outside 1..{N_RADICALS}")
    return index


def is_han(cp: int) -> bool:
    return any(cp in r for r in _HAN_RANGES)


def code_points(text: str) -> np.ndarray:
    """The code point of each of text's len(text) characters, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def code_table(mapping: dict[int, int], default: int, dtype) -> np.ndarray:
    """A lookup() table: mapping's value at each code point it names, default elsewhere.

    The table ends one past mapping's largest code point, and that last
    entry, default, stands for every larger code point. It is read-only.
    """
    table = np.full(max(mapping, default=-1) + 2, default, dtype=dtype)
    table[list(mapping)] = list(mapping.values())
    table.flags.writeable = False
    return table


def lookup(table: np.ndarray, cps: np.ndarray) -> np.ndarray:
    """table's entry for each code point of cps (see code_table)."""
    return table.take(cps, mode="clip")


@dataclass(frozen=True)
class RadicalTable:
    """Loaded radical data, frozen after load and safe for shared reads.

    resolved is the code_table of every rule's outcome, symbol_radical
    for each code point no rule names; the other fields are the tables it
    was resolved from.
    """

    han_map: dict[int, int]
    kana_map: dict[int, tuple[int, int]]  # kana cp -> (source kanji cp, radical)
    numeral_map: dict[str, int]
    latin_radical: int
    symbol_radical: int
    resolved: np.ndarray = field(compare=False, repr=False)  # uint8, read through lookup()

    def radical_of(self, ch: str) -> int:
        """Radical index for a single character. Total over Unicode."""
        if len(ch) != 1:
            raise DataError(f"radical_of expects one character, got {ch!r}")
        return self.annotate(ch)[0]

    def annotate(self, sentence: str) -> list[int]:
        """Position-aligned radical indices; len(result) == len(sentence)."""
        return lookup(self.resolved, code_points(sentence)).tolist()

    def unknown_han(self, text: str) -> int:
        """How many characters of text are Han but missing from the Han table."""
        return sum(is_han(cp) and cp not in self.han_map for cp in map(ord, text))


def _parse_codepoint(token: str, path, lineno: int) -> int:
    if token.startswith("U+"):
        try:
            return int(token[2:], 16)
        except ValueError:
            pass
    raise DataError(f"{path}:{lineno}: expected U+XXXX codepoint, got {token!r}")


def load_radical_table(han_path, kana_path) -> RadicalTable:
    """Load and cross-validate the Han and kana tables.

    Han file: ``U+XXXX<TAB>radical_index`` per line, UTF-8, '#' comments.
    Kana file: ``kana_char<TAB>source_kanji_char``; the radical is
    resolved through the Han table at load time.
    """
    han_path, kana_path = Path(han_path), Path(kana_path)
    han_map: dict[int, int] = {}
    for lineno, raw in enumerate(read_lines(han_path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataError(f"{han_path}:{lineno}: expected 2 tab-separated fields")
        cp = _parse_codepoint(fields[0], han_path, lineno)
        try:
            index = int(fields[1])
        except ValueError:
            raise DataError(f"{han_path}:{lineno}: radical index {fields[1]!r} is not an integer")
        if not 1 <= index <= N_RADICALS:
            raise DataError(f"{han_path}:{lineno}: radical index {index} outside 1..{N_RADICALS}")
        han_map[cp] = index

    kana_map: dict[int, tuple[int, int]] = {}
    for lineno, line in enumerate(read_lines(kana_path), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 or len(fields[0]) != 1 or len(fields[1]) != 1:
            raise DataError(f"{kana_path}:{lineno}: expected kana<TAB>kanji, got {line!r}")
        kana_cp, src_cp = ord(fields[0]), ord(fields[1])
        index = han_map.get(src_cp)
        if index is None:
            raise DataError(
                f"{kana_path}:{lineno}: source kanji {fields[1]!r} missing from Han table"
            )
        kana_map[kana_cp] = (src_cp, index)

    missing = [
        chr(cp)
        for block in (_HIRAGANA, _KATAKANA, _KANA_EXTRAS)
        for cp in block
        if cp not in kana_map
    ]
    if missing:
        shown = "".join(missing[:20])
        raise DataError(
            f"kana table misses {len(missing)} kana (starting with {shown!r}); "
            "all standard hiragana and katakana must be covered"
        )

    def _anchor(ch: str) -> int:
        index = han_map.get(ord(ch))
        if index is None:
            raise DataError(
                f"Han table has no entry for {ch!r}; it is required to resolve "
                "the numeral/Latin/symbol rules"
            )
        return index

    numeral_map = {str(d): _anchor(CHINESE_NUMERALS[d]) for d in range(10)}
    latin_radical = _anchor(LATIN_SOURCE)
    # Resolve the rules in reverse order, so that each overwrites the ones
    # it takes precedence over: Latin letters and digits in both widths,
    # kana outside the Han ranges, Han inside them, the Kangxi block.
    resolved: dict[int, int] = {}
    ascii_rules = dict.fromkeys(string.ascii_letters, latin_radical) | numeral_map
    for ch, index in ascii_rules.items():
        resolved[ord(ch)] = resolved[ord(ch) + _FULLWIDTH_OFFSET] = index
    resolved.update((cp, index) for cp, (_, index) in kana_map.items() if not is_han(cp))
    resolved.update((cp, index) for cp, index in han_map.items() if is_han(cp))
    resolved.update((cp, index) for index, cp in enumerate(_KANGXI_BLOCK, 1))
    symbol_radical = _anchor(SYMBOL_SOURCE)
    return RadicalTable(
        han_map=han_map,
        kana_map=kana_map,
        numeral_map=numeral_map,
        latin_radical=latin_radical,
        symbol_radical=symbol_radical,
        resolved=code_table(resolved, symbol_radical, np.uint8),
    )


def bundled_table_paths() -> tuple[Path, Path]:
    """Paths of the radical tables shipped with the package."""
    data = resources.files("radnmt") / "data"
    return Path(str(data / "kangxi_radicals.tsv")), Path(str(data / "kana_sources.tsv"))


def load_bundled_table() -> RadicalTable:
    han, kana = bundled_table_paths()
    return load_radical_table(han, kana)


def annotate_file(table: RadicalTable, input_path, output_path) -> int:
    """Write ``char|radical`` pairs, one annotated line per input line.

    Returns the number of lines written.
    """
    lines = read_lines(input_path)
    with atomic_write(output_path) as dst:
        for text in lines:
            pairs = " ".join(f"{ch}|{index}" for ch, index in zip(text, table.annotate(text)))
            dst.write(pairs + "\n")
    return len(lines)


def describe(ch: str, table: RadicalTable) -> str:
    """Human-readable one-liner used by demos: char, radical index, glyph."""
    index = table.radical_of(ch)
    name = unicodedata.name(ch, f"U+{ord(ch):04X}")
    return f"{ch} ({name}) -> #{index} {radical_glyph(index)}"
