"""Walk through the two alignment stages on a tiny hand-made paragraph pair.

Run as:  python3 demos/01_sentence_and_word_alignment.py
"""

from dmlex.galechurch import align_paragraph
from dmlex.model1 import symmetrize, train_model1, viterbi_align

# A three-sentence "English" paragraph against a two-sentence "foreign" one.
# The second and third English sentences translate a single long foreign
# sentence, so we expect a 1-1 bead followed by a 2-1 bead.
english = [
    "the committee approved the report".split(),
    "the debate was long".split(),
    "and it was difficult".split(),
]
foreign = [
    "o comite aprovou o relatorio".split(),
    "o debate foi longo e foi dificil".split(),
]

beads = align_paragraph(english, foreign)
print("sentence alignment:")
for bead in beads:
    src = " / ".join(" ".join(s) for s in english[bead.src_span[0]:bead.src_span[1]])
    tgt = " / ".join(" ".join(s) for s in foreign[bead.tgt_span[0]:bead.tgt_span[1]])
    print(f"  {bead.shape}  cost={bead.cost:.3f}")
    print(f"    en: {src}")
    print(f"    xx: {tgt}")

# Word alignment needs more than one paragraph to learn anything, so repeat a
# few short sentence pairs with overlapping vocabulary.
pairs = [
    ("the report".split(), "o relatorio".split()),
    ("the debate".split(), "o debate".split()),
    ("the report was long".split(), "o relatorio foi longo".split()),
    ("the debate was difficult".split(), "o debate foi dificil".split()),
]

table_ef = train_model1(pairs, iterations=10)
table_fe = train_model1([(f, e) for e, f in pairs], iterations=10)

print("\nlearned t(relatorio | e) after 10 EM iterations:")
for e in ("report", "the", "was"):
    print(f"  t(relatorio | {e}) = {table_ef.lookup(e, 'relatorio'):.4f}")

e, f = pairs[2]
forward = viterbi_align(e, f, table_ef)    # english conditions, foreign generated
backward = viterbi_align(f, e, table_fe)
links = symmetrize(forward, backward, "grow-diag-final-and")
print(f"\nsymmetrized alignment for '{' '.join(e)}' / '{' '.join(f)}':")
for i, j in sorted(links):
    print(f"  {e[i]} -- {f[j]}")
