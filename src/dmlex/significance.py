"""Significance pruning of phrase tables via Fisher's exact test."""

import math
from collections import Counter, namedtuple
from collections.abc import Mapping

from .phrases import PhraseCounts, _Memo, escape_phrase


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


def _postings(sentences, phrases) -> dict:
    """phrase -> bitmask of the ids of the sentences containing it, from one
    pass over each sentence's n-grams up to the longest phrase asked for."""
    postings = dict.fromkeys(phrases, 0)
    max_len = max(map(len, postings), default=0)
    for pair_id, sent in enumerate(sentences):
        sent = tuple(sent)
        n = len(sent)
        bit = 1 << pair_id
        for i in range(n):
            for j in range(i + 1, min(n, i + max_len) + 1):
                gram = sent[i:j]
                if gram in postings:
                    postings[gram] |= bit
    return postings


class _ContingencyView(Mapping):
    """(foreign, english) -> ContingencyTable for the keys of entries, built from
    the two postings when a key is looked up; equal counts share one table."""

    def __init__(self, entries, src_ids, tgt_ids, n):
        self._entries, self._src_ids, self._tgt_ids = entries, src_ids, tgt_ids
        self._tables = _Memo(lambda cell: ContingencyTable(*cell, n=n))

    def __getitem__(self, key):
        if key not in self._entries:
            raise KeyError(key)
        s_ids, t_ids = self._src_ids[key[0]], self._tgt_ids[key[1]]
        return self._tables[s_ids.bit_count(), t_ids.bit_count(), (s_ids & t_ids).bit_count()]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


def contingency_counts(table: PhraseCounts, pairs: list) -> Mapping:
    """Per-entry contingency counts against the extraction corpus, a list of
    the table's N (src_tokens, tgt_tokens) sentence pairs: a read-only view
    that holds the postings of each phrase, not a table per entry. An entry
    that never co-occurs raises here, not on its lookup."""
    if table.corpus_size != len(pairs):
        raise ValueError(f"phrase table is for N={table.corpus_size} sentence pairs, "
                         f"but the aligned corpus has {len(pairs)}")
    src_ids = _postings((src for src, _ in pairs), {f for f, _ in table.entries})
    tgt_ids = _postings((tgt for _, tgt in pairs), {e for _, e in table.entries})
    for foreign, english in table.entries:
        if not src_ids[foreign] & tgt_ids[english]:
            raise RuntimeError(f"phrase pair '{escape_phrase(foreign)} ||| "
                               f"{escape_phrase(english)}' never co-occurs in its own corpus")
    return _ContingencyView(table.entries, src_ids, tgt_ids, len(pairs))


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


def prune(table: PhraseCounts, counts: Mapping, config: PruneConfig) -> tuple:
    """Keep entries whose -log p exceeds the configured threshold, and count
    the entries of each contingency table on the way.

    Returns (kept, report); kept is a PhraseCounts holding the surviving
    entries unchanged.
    """
    threshold = config.threshold(table.corpus_size)
    scores = _Memo(fisher_neg_log_p)  # few distinct tables
    entries = Counter()
    kept = {}
    for key, value in table.entries.items():
        ct = counts[key]
        entries[ct] += 1
        if scores[ct] > threshold:
            kept[key] = value
    return PhraseCounts(kept, table.corpus_size), PruneReport(
        threshold, scores, entries, len(kept), len(table.entries) - len(kept))


def write_prune_report(report: PruneReport, path) -> None:
    """One row per distinct contingency table, in count order: c_s, c_t, c_st,
    -log p, kept or pruned, and how many entries have that table."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# threshold={report.threshold:.8g}\n")
        for ct in sorted(report.scores):
            score = report.scores[ct]
            fate = "kept" if score > report.threshold else "pruned"
            fh.write(f"{ct.c_s}\t{ct.c_t}\t{ct.c_st}\t{score:.8g}\t{fate}\t{report.entries[ct]}\n")
