"""Count phrase pairs in aligned sentence pairs, prune them with Fisher's
exact test and watch the 1-1-1 noise disappear, then score the survivors.

Run as:  python3 demos/02_phrase_table_and_pruning.py
"""

from dmlex.model1 import train_model1, viterbi_align
from dmlex.phrases import count_phrase_pairs, score_counts
from dmlex.significance import ContingencyTable, PruneConfig, contingency_counts, prune

# foreign / english pairs; "bom dia" <-> "good morning" recurs, while the
# last pair contributes vocabulary that occurs exactly once
pairs = [
    ("bom dia".split(), "good morning".split()),
    ("bom dia a todos".split(), "good morning to all".split()),
    ("um bom relatorio".split(), "a good report".split()),
    ("bom dia senhor presidente".split(), "good morning mister president".split()),
    ("obrigado pela resposta".split(), "thanks for the answer".split()),
]

table_ef = train_model1(pairs, iterations=8)

alignments = []
for f, e in pairs:
    # foreign conditions, english generated: one f_pos (or None) per e_pos
    alignment = viterbi_align(f, e, table_ef)
    alignments.append({(i, j) for j, i in enumerate(alignment) if i is not None})

# one pass per sentence pair: every n-gram gets an id, and each extracted phrase
# pair is counted under its (foreign id, english id) key
phrase_counts = count_phrase_pairs(pairs, alignments, max_phrase_len=3)
print(f"extracted {len(phrase_counts.entries)} phrase pairs from {len(pairs)} sentence pairs")

# prune on counts alone
counts = contingency_counts(phrase_counts)
kept, report = prune(phrase_counts, counts, PruneConfig())

n = len(pairs)
print(f"threshold = ln({n}) + eps = {report.threshold:.4f}")
print(f"kept {report.kept_count}, pruned {report.pruned_count}\n")

# the phrases, alignments and probabilities of the surviving pairs only, one
# entry at a time in (foreign, english) order, as the prune stage writes them
print("surviving entries:")
for entry in score_counts(phrase_counts, kept):
    print(f"  {' '.join(entry.foreign_phrase):24s} ||| {' '.join(entry.english_phrase):24s} "
          f"joint={entry.joint_count:.0f}")

print(f"\n{report.entries[ContingencyTable(1, 1, 1, n)]} of the pruned entries "
      "were 1-1-1 singletons")
