"""Significance pruning of phrase tables via Fisher's exact test."""

import math
from collections import namedtuple
from dataclasses import dataclass

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


@dataclass
class PruneConfig:
    threshold_mode: str = "alpha_plus_epsilon"  # alpha | alpha_plus_epsilon | custom
    custom_neg_log_p: float = 0.0

    def __post_init__(self):
        if self.threshold_mode not in ("alpha", "alpha_plus_epsilon", "custom"):
            raise ValueError(f"unknown threshold mode: {self.threshold_mode}")
        if self.threshold_mode == "custom" and not 0 <= self.custom_neg_log_p < math.inf:
            raise ValueError("custom_neg_log_p must be finite and >= 0")

    def threshold(self, n: int) -> float:
        """Pruning threshold on -log p for n sentence pairs: alpha is ln(n), the
        score of a 1-1-1 entry."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.threshold_mode == "custom":
            return self.custom_neg_log_p
        return math.log(n) + (EPSILON if self.threshold_mode == "alpha_plus_epsilon" else 0.0)


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


def contingency_counts(table: PhraseCounts, pairs: list) -> dict:
    """Per-entry contingency counts against the extraction corpus, a list of
    the table's N (src_tokens, tgt_tokens) sentence pairs."""
    if table.corpus_size != len(pairs):
        raise ValueError(f"phrase table is for N={table.corpus_size} sentence pairs, "
                         f"but the aligned corpus has {len(pairs)}")
    src_ids = _postings((src for src, _ in pairs), {f for f, _ in table.entries})
    tgt_ids = _postings((tgt for _, tgt in pairs), {e for _, e in table.entries})
    n = len(pairs)
    # (c_s, c_t, c_st) -> the one ContingencyTable shared by its entries
    tables = _Memo(lambda cell: ContingencyTable(*cell, n=n))
    counts = {}
    for key in table.entries:
        foreign, english = key
        s_ids, t_ids = src_ids[foreign], tgt_ids[english]
        joint = (s_ids & t_ids).bit_count()
        if joint == 0:
            raise RuntimeError(f"phrase pair '{escape_phrase(foreign)} ||| "
                               f"{escape_phrase(english)}' never co-occurs in its own corpus")
        counts[key] = tables[s_ids.bit_count(), t_ids.bit_count(), joint]
    return counts


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
    log_p = m + math.log(sum(math.exp(t - m) for t in log_terms))
    return max(0.0, -log_p)


@dataclass
class PruneReport:
    threshold: float
    scores: dict  # ContingencyTable -> its -log p, for each distinct table
    kept_count: int
    pruned_count: int


def prune(table: PhraseCounts, counts: dict, config: PruneConfig) -> tuple:
    """Keep entries whose -log p exceeds the configured threshold.

    Returns (kept, report); kept is a PhraseCounts holding the surviving
    entries unchanged.
    """
    threshold = config.threshold(table.corpus_size)
    scores = _Memo(fisher_neg_log_p)  # few distinct tables
    kept = PhraseCounts({key: value for key, value in table.entries.items()
                         if scores[counts[key]] > threshold}, table.corpus_size)
    return kept, PruneReport(threshold, scores, len(kept.entries),
                             len(table.entries) - len(kept.entries))


def write_prune_report(report: PruneReport, counts: dict, path) -> None:
    """One row per entry of counts, in key order: its contingency table, -log p
    and fate. Entries that share a table share its columns."""
    def columns(ct):
        score = report.scores[ct]
        return (f"\t{ct.c_s}\t{ct.c_t}\t{ct.c_st}\t{score:.8g}"
                f"\t{'kept' if score > report.threshold else 'pruned'}\n")

    cells = _Memo(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# threshold={report.threshold:.8g}\n")
        for key in sorted(counts):
            fh.write(f"{escape_phrase(key[0])} ||| {escape_phrase(key[1])}{cells[counts[key]]}")
