"""Marker candidate selection, filtering and lexicon assembly/export."""

import json
from collections import namedtuple

from .ingest import PUNCTUATION, normalize_case, read_text, text_lines, tokenize
from .phrases import PhraseTable

CANDIDATES_HEADER = "marker\tlanguage\ttranslation\tscore\tjoint_count\tcontext\n"
CONTEXTS = ("none", "preceded", "followed", "both")  # punctuation around the marker


def is_punct_token(token: str) -> bool:
    return all(ch in PUNCTUATION for ch in token)


# raw_entry: a PhraseTableEntry; context: one of CONTEXTS
MarkerCandidate = namedtuple("MarkerCandidate", "marker language translation raw_entry context")


class FilterPolicy(namedtuple("FilterPolicy", "min_dir_phrase_prob min_inv_phrase_prob "
                                              "min_joint_count max_length_delta")):
    __slots__ = ()

    def __new__(cls, min_dir_phrase_prob=0.05, min_inv_phrase_prob=0.05, min_joint_count=2,
                max_length_delta=3):
        if not (0 <= min_dir_phrase_prob <= 1 and 0 <= min_inv_phrase_prob <= 1):
            raise ValueError("probability floors must lie in [0, 1]")
        if min_joint_count < 1:
            raise ValueError("min_joint_count must be >= 1")
        if max_length_delta < 0:
            raise ValueError("max_length_delta must be >= 0")
        return super().__new__(cls, min_dir_phrase_prob, min_inv_phrase_prob, min_joint_count,
                               max_length_delta)


LexiconRecord = namedtuple("LexiconRecord", "translation score joint_count context")


def load_seed_markers(path) -> list:
    """Marker token tuples, one per line; `#` comments and blank lines skipped;
    tokenized/lowercased with the corpus tokenizer; first-seen order kept."""
    markers = []
    seen = set()
    for line in text_lines(read_text(path)):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        marker = tuple(normalize_case(tokenize(line)))
        if marker and marker not in seen:
            seen.add(marker)
            markers.append(marker)
    if not markers:
        raise ValueError(f"seed marker file {path} contains no markers")
    return markers


def select_candidates(table: PhraseTable, marker, language: str = "") -> list:
    """Phrase-table entries whose english side is the marker alone or the
    marker with one punctuation token p before and/or q after it, from one pass
    over the english sides. The marker alone comes first, then by sorted p:
    `followed` (p after it), `preceded`, then `both` by sorted q. An english side
    with punctuation at the marker's edges can match twice."""
    marker = tuple(marker)
    n = len(marker)
    hits = []  # (rank, english side, context)
    for english in table.by_english:
        extra = len(english) - n
        if extra == 0 and english == marker:
            hits.append(((), english, "none"))
        elif extra == 1:
            if english[-1] in PUNCTUATION and english[:-1] == marker:
                hits.append(((english[-1], 0), english, "followed"))
            if english[0] in PUNCTUATION and english[1:] == marker:
                hits.append(((english[0], 1), english, "preceded"))
        elif (extra == 2 and english[0] in PUNCTUATION and english[-1] in PUNCTUATION
              and english[1:-1] == marker):
            hits.append(((english[0], 2, english[-1]), english, "both"))
    hits.sort()  # ranks are distinct
    return [MarkerCandidate(marker, language, entry.foreign_phrase, entry, context)
            for _, english, context in hits for entry in table.by_english[english]]


def strip_punctuation_context(candidate: MarkerCandidate) -> MarkerCandidate:
    """Trim leading/trailing punctuation tokens off the foreign translation."""
    translation = list(candidate.translation)
    while translation and is_punct_token(translation[0]):
        translation.pop(0)
    while translation and is_punct_token(translation[-1]):
        translation.pop()
    return candidate._replace(translation=tuple(translation))


def _marker_positions(candidate: MarkerCandidate):
    offset = 1 if candidate.context in ("preceded", "both") else 0
    return range(offset, offset + len(candidate.marker))


def filter_candidates(candidates, policy: FilterPolicy) -> list:
    """(marker, language, LexiconRecord) rows of the candidates that pass the policy,
    scored phi(e|f) * phi(f|e); duplicates keep their best score, in first-seen order."""
    best = {}
    for cand in candidates:
        entry = cand.raw_entry
        if not cand.translation or all(is_punct_token(t) for t in cand.translation):
            continue
        if entry.dir_phrase_prob < policy.min_dir_phrase_prob:
            continue
        if entry.inv_phrase_prob < policy.min_inv_phrase_prob:
            continue
        if entry.joint_count < policy.min_joint_count:
            continue
        if abs(len(cand.translation) - len(cand.marker)) > policy.max_length_delta:
            continue
        aligned_e = {j for _, j in entry.most_frequent_internal_alignment}
        if any(pos not in aligned_e for pos in _marker_positions(cand)):
            continue
        score = entry.dir_phrase_prob * entry.inv_phrase_prob
        key = (cand.marker, cand.language, cand.translation)
        if key not in best or score > best[key].score:
            best[key] = LexiconRecord(cand.translation, score, entry.joint_count, cand.context)
    return [(marker, language, rec) for (marker, language, _), rec in best.items()]


def _tsv_fields(marker, language, rec) -> str:
    """The marker, language, translation, score and joint_count columns of a row."""
    return (f"{' '.join(marker)}\t{language}\t{' '.join(rec.translation)}"
            f"\t{rec.score:.6g}\t{rec.joint_count:.0f}")


def write_candidates(rows, path) -> None:
    """One tab-separated line per (marker, language, LexiconRecord) row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CANDIDATES_HEADER)
        for marker, language, rec in rows:
            fh.write(f"{_tsv_fields(marker, language, rec)}\t{rec.context}\n")


def read_candidates(path) -> list:
    """Rows as written by write_candidates, scores at their written precision."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        if fh.readline() != CANDIDATES_HEADER:
            raise ValueError(f"line 1: no candidates header in {path}")
        for lineno, line in enumerate(fh, start=2):
            try:
                marker, language, translation, score, count, context = (
                    line.rstrip("\n").split("\t"))
                rec = LexiconRecord(translation=tuple(translation.split()), score=float(score),
                                    joint_count=float(int(count)), context=context)
                if not (0 < rec.score <= 1 and rec.joint_count >= 1 and context in CONTEXTS):
                    raise ValueError("score not in (0, 1], count below 1 or unknown context")
                rows.append((tuple(marker.split()), language, rec))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc} in {path}") from None
    return rows


def build_lexicon(rows, markers: list | None = None) -> dict:
    """Group (marker, language, LexiconRecord) rows into marker -> {language:
    [LexiconRecord]}, ranked by score; markers and languages keep first-seen order.

    Markers from the seed list come first, and appear even when no row
    names them.
    """
    lex = {marker: {} for marker in markers or ()}
    for marker, language, rec in rows:
        lex.setdefault(marker, {}).setdefault(language, []).append(rec)
    for langs in lex.values():
        for records in langs.values():
            records.sort(key=lambda r: (-r.score, " ".join(r.translation)))
    return lex


def export_lexicon(lex: dict, fmt: str, path) -> None:
    """tsv: one line per (marker, language, translation); structured: JSON."""
    if fmt == "tsv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("marker\tlanguage\ttranslation\tscore\tjoint_count\n")
            for marker, langs in lex.items():
                for language in sorted(langs):
                    for rec in langs[language]:
                        fh.write(_tsv_fields(marker, language, rec) + "\n")
    elif fmt == "structured":
        doc = {"markers": [
            {"marker": " ".join(marker), "languages": {
                language: [{"translation": " ".join(rec.translation), "score": rec.score,
                            "joint_count": rec.joint_count, "context": rec.context}
                           for rec in langs[language]]
                for language in sorted(langs)}}
            for marker, langs in lex.items()]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, ensure_ascii=False, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown export format: {fmt}")

