"""Count phrase pairs in aligned sentence pairs, prune them with Fisher's
exact test and watch the 1-1-1 noise disappear, then score the survivors.

Run as:  python3 demos/02_phrase_table_and_pruning.py
"""

from dmlex.model1 import train_model1, viterbi_align
from dmlex.phrases import count_phrase_pairs, extract_phrase_pairs, score_counts
from dmlex.significance import PruneConfig, contingency_counts, prune

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
table_fe = train_model1([(e, f) for f, e in pairs], iterations=8)

instances = []
for f, e in pairs:
    # foreign conditions, english generated: one f_pos (or None) per e_pos
    alignment = viterbi_align(f, e, table_ef)
    links = {(i, j) for j, i in enumerate(alignment) if i is not None}
    instances.extend(extract_phrase_pairs(f, e, links, max_phrase_len=3))

phrase_counts = count_phrase_pairs(instances, corpus_size=len(pairs))
print(f"extracted {len(phrase_counts.entries)} phrase pairs from {len(pairs)} sentence pairs")

# prune on counts alone, then compute probabilities and lexical weights for
# the surviving pairs only
counts = contingency_counts(phrase_counts, pairs)
kept, report = prune(phrase_counts, counts, PruneConfig())
scored = score_counts(phrase_counts, kept.entries, table_fe, table_ef)

n = len(pairs)
print(f"threshold = ln({n}) + eps = {report.threshold:.4f}")
print(f"kept {report.kept_count}, pruned {report.pruned_count}\n")

print("surviving entries:")
for f, e in sorted(scored.entries):
    print(f"  {' '.join(f):24s} ||| {' '.join(e):24s} joint={counts[(f, e)].c_st}")

dropped_111 = sum(
    1
    for key in phrase_counts.entries
    if key not in kept.entries
    and (counts[key].c_s, counts[key].c_t, counts[key].c_st) == (1, 1, 1)
)
print(f"\n{dropped_111} of the pruned entries were 1-1-1 singletons")
