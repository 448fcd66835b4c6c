"""Every character gets exactly one of the 214 Kangxi radicals.

Characters of the Kangxi Radicals block are the radicals themselves;
Han characters resolve through the bundled table; kana inherit the
radical of the kanji they were derived from; digits borrow the Chinese
numeral's radical; Latin letters share 英's radical and everything else
shares 符's. Run it:

    python demos/01_radical_features.py
"""

import radnmt
from radnmt.radicals import describe, radical_glyph

table = radnmt.load_bundled_table()

print("=== the five assignment rules ===")
examples = "鉄語あア7０Qｘ。!⾦"
for ch in examples:
    print("  " + describe(ch, table))

print()
print("=== kana inherit their source kanji's radical ===")
kana_row = "あかさたなはまやらわ"
for kana in kana_row:
    src_cp, rad = table.kana_map[ord(kana)]
    print(f"  {kana} <- {chr(src_cp)} -> #{rad} {radical_glyph(rad)}")

print()
print("=== a mixed sentence, annotated position by position ===")
sentence = "溝幅は10mm以上が必要と推定した。"
radicals = table.annotate(sentence)
print("  " + sentence)
print("  " + " ".join(f"{ch}|{r}" for ch, r in zip(sentence, radicals)))
print("  radicals: " + "".join(radical_glyph(r) for r in radicals))

print()
print("=== totality: anything at all resolves ===")
others = "€μ㐀🎌"
for ch in others:
    print("  " + describe(ch, table))
shown = examples + kana_row + sentence + others
print(f"  (Han characters shown here that the table lacks: {table.unknown_han(shown)})")
