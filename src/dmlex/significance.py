"""Significance pruning of phrase tables via Fisher's exact test."""

import math
from array import array
from collections import Counter, namedtuple
from itertools import compress

from .phrases import PhraseCounts


class ContingencyTable(namedtuple("ContingencyTable", "c_s c_t c_st n")):
    """c_s: sentence pairs whose foreign side contains the foreign phrase;
    c_t: pairs whose english side contains the english phrase; c_st: pairs
    containing both; n: total sentence pairs. A tuple, so its hash is cheap."""
    __slots__ = ()

    def __new__(cls, c_s, c_t, c_st, n):
        self = super().__new__(cls, c_s, c_t, c_st, n)
        if not (0 < c_st <= min(c_s, c_t) <= n):
            raise ValueError(f"invalid contingency counts: {self}")
        return self


EPSILON = 1e-9  # alpha_plus_epsilon sits this far above alpha


class PruneConfig(namedtuple("PruneConfig", "threshold_mode custom_neg_log_p")):
    __slots__ = ()

    def __new__(cls, threshold_mode="alpha_plus_epsilon", custom_neg_log_p=0.0):
        # threshold_mode: alpha | alpha_plus_epsilon | custom
        if threshold_mode not in ("alpha", "alpha_plus_epsilon", "custom"):
            raise ValueError(f"unknown threshold mode: {threshold_mode}")
        if threshold_mode == "custom" and not 0 <= custom_neg_log_p < math.inf:
            raise ValueError("custom_neg_log_p must be finite and >= 0")
        return super().__new__(cls, threshold_mode, custom_neg_log_p)

    def threshold(self, n: int) -> float:
        """Pruning threshold on -log p for n sentence pairs. alpha is the computed
        score of a 1-1-1 entry, ln(n) in exact arithmetic, so such an entry sits on
        it and is pruned at every n; alpha_plus_epsilon is ln(n) + EPSILON."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.threshold_mode == "custom":
            return self.custom_neg_log_p
        if self.threshold_mode == "alpha":
            return fisher_neg_log_p(ContingencyTable(1, 1, 1, n))
        return math.log(n) + EPSILON


class ContingencyCounts:
    """The distinct contingency tables, and each entry's index into them in entry
    order, not a table per entry."""
    __slots__ = ("tables", "which")

    def __init__(self, tables, which):
        self.tables, self.which = tables, which

    def __len__(self):
        return len(self.which)

    def values(self):
        """Each entry's table, in entry order, as a new iterator on each call."""
        return map(self.tables.__getitem__, self.which)


def contingency_counts(table: PhraseCounts) -> ContingencyCounts:
    """Each entry's contingency counts, from one walk over the entries. c_s and c_t
    are its phrases' sentence-pair counts. If either is 1, c_st is 1, since the entry
    was extracted from that pair; else c_st is the size of their postings' overlap."""
    f_pairs, e_pairs, shift = table.foreign.pairs, table.english.pairs, table.shift
    mask = (1 << shift) - 1
    cells, which = {}, array("I")  # (c_s, c_t, c_st) -> its place, in order of first sight
    for key in table.entries:
        s_ids, t_ids = f_pairs[key >> shift], e_pairs[key & mask]
        if s_ids.__class__ is int:
            cell = (1, 1 if t_ids.__class__ is int else len(t_ids), 1)
        elif t_ids.__class__ is int:
            cell = (len(s_ids), 1, 1)
        else:
            cell = (len(s_ids), len(t_ids), len(set(s_ids).intersection(t_ids)))
        which.append(cells.setdefault(cell, len(cells)))
    return ContingencyCounts([ContingencyTable(*cell, table.corpus_size) for cell in cells], which)


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_neg_log_p(ct: ContingencyTable) -> float:
    """-log of the right-tail Fisher exact p-value, computed in log space."""
    k_max = min(ct.c_s, ct.c_t)
    log_denom = _log_comb(ct.n, ct.c_t)
    log_terms = [
        _log_comb(ct.c_s, k) + _log_comb(ct.n - ct.c_s, ct.c_t - k) - log_denom
        for k in range(ct.c_st, k_max + 1)
    ]
    m = max(log_terms)
    total = 0.0
    for t in log_terms:  # left to right: sum() compensates from Python 3.12 on
        total += math.exp(t - m)
    log_p = m + math.log(total)
    return max(0.0, -log_p)


# scores: ContingencyTable -> its -log p, for each distinct table;
# entries: ContingencyTable -> how many entries have it
PruneReport = namedtuple("PruneReport", "threshold scores entries kept_count pruned_count")


def prune(table: PhraseCounts, counts: ContingencyCounts, config: PruneConfig) -> tuple:
    """Keep entries whose -log p exceeds the configured threshold, deciding each
    distinct contingency table once, and count the entries of each table on the way.

    Returns (kept, report); kept lists the surviving entry keys in entry order.
    """
    threshold = config.threshold(table.corpus_size)
    scores = {ct: fisher_neg_log_p(ct) for ct in counts.tables}  # few distinct tables
    keep = [scores[ct] > threshold for ct in counts.tables]  # by table index
    kept = list(compress(table.entries, map(keep.__getitem__, counts.which)))
    tally = Counter(counts.which)
    entries = {ct: tally[i] for i, ct in enumerate(counts.tables)}
    return kept, PruneReport(threshold, scores, entries, len(kept), len(counts) - len(kept))


def write_prune_report(report: PruneReport, path) -> None:
    """One row per distinct contingency table, in count order: c_s, c_t, c_st,
    -log p, kept or pruned, and how many entries have that table."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# threshold={report.threshold:.8g}\n")
        for ct in sorted(report.scores):
            score = report.scores[ct]
            fate = "kept" if score > report.threshold else "pruned"
            fh.write(f"{ct.c_s}\t{ct.c_t}\t{ct.c_st}\t{score:.8g}\t{fate}\t{report.entries[ct]}\n")
