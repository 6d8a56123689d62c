"""Alignment-consistent phrase extraction and phrase-table scoring."""

from bisect import bisect_left
from collections import Counter, namedtuple
from functools import cache
from itertools import repeat

from .model1 import format_links, links_inside, parse_links, read_table


# inv_phrase_prob: phi(f|e); dir_phrase_prob: phi(e|f)
PhraseTableEntry = namedtuple("PhraseTableEntry", "foreign_phrase english_phrase inv_phrase_prob "
                              "dir_phrase_prob most_frequent_internal_alignment joint_count")


class PhraseTable:
    """entries: a list of PhraseTableEntry in (foreign, english) order."""

    def __init__(self, entries=(), corpus_size=0):
        self.entries, self.corpus_size = list(entries), corpus_size

    def __len__(self) -> int:
        return len(self.entries)


# One side's n-grams of up to max_phrase_len tokens. ids: n-gram -> id, in order of
# first sight; pairs[id]: the index of the one sentence pair containing it, or the
# ascending list of those indices; instances[id]: the extracted instances it is part of.
PhraseIds = namedtuple("PhraseIds", "ids pairs instances")

# entries: foreign id << shift | english id -> the ref of its one instance, or a list
# of refs; a ref is (pair index << width | english start) << width | foreign start.
# links: the links of each sentence pair as sorted (english, foreign) positions.
PhraseCounts = namedtuple("PhraseCounts", "entries corpus_size foreign english links shift width")


def extract_phrase_pairs(src_tokens, tgt_tokens, alignment, max_phrase_len: int = 7) -> list:
    """The spans (f_start, f_end, e_start, e_end), ends exclusive, of all consistent
    phrase pairs up to max_phrase_len tokens per side.

    src is the foreign side, tgt the english side; alignment links are
    (src_pos, tgt_pos). Consistency: no link leaves the span pair and at
    least one link lies inside; spans extend over unaligned edge words.
    """
    if max_phrase_len < 1:
        raise ValueError("max_phrase_len must be >= 1")
    links = sorted(alignment)
    if not links:
        return []
    n_src, n_tgt = len(src_tokens), len(tgt_tokens)
    f_lo, f_hi = [n_src] * n_tgt, [-1] * n_tgt  # foreign span of each english word
    e_lo, e_hi = [n_tgt] * n_src, [-1] * n_src  # english span of each foreign word
    for i, j in links:  # sorted, so the last link seen is the highest
        f_lo[j], f_hi[j] = min(f_lo[j], i), i
        e_lo[i], e_hi[i] = min(e_lo[i], j), j
    src_aligned = [e >= 0 for e in e_hi]

    out = []
    for e_start in range(n_tgt):
        f_min, f_max = n_src, -1
        for e_end in range(e_start, min(n_tgt, e_start + max_phrase_len)):
            f_min, f_max = min(f_min, f_lo[e_end]), max(f_max, f_hi[e_end])
            if f_max < 0:
                continue
            if f_max - f_min >= max_phrase_len:  # the foreign span only grows with e_end
                break
            # consistency: every link touching [f_min, f_max] must stay inside
            if min(e_lo[f_min:f_max + 1]) < e_start or max(e_hi[f_min:f_max + 1]) > e_end:
                continue
            fs = f_min
            while True:
                fe = f_max
                while fe - fs < max_phrase_len:
                    out.append((fs, fe + 1, e_start, e_end + 1))
                    fe += 1
                    if fe >= n_src or src_aligned[fe]:
                        break
                fs -= 1
                if fs < 0 or src_aligned[fs] or f_max - fs >= max_phrase_len:
                    break
    return out


def _ngram_ids(tokens, side: PhraseIds, pair: int, max_len: int) -> list:
    """rows[start][length - 1]: the id of each n-gram of tokens, interned into side;
    each distinct n-gram gains this pair in side.pairs once."""
    ids, pairs, intern = side.ids, side.pairs, side.ids.setdefault
    known, tokens = len(ids), tuple(tokens)
    n = len(tokens)
    rows = [[intern(tokens[i:j], len(ids)) for j in range(i + 1, min(n, i + max_len) + 1)]
            for i in range(n)]
    pairs.extend(repeat(pair, len(ids) - known))
    side.instances.extend(repeat(0, len(ids) - known))
    for gid in {gid for row in rows for gid in row if gid < known}:
        if pairs[gid].__class__ is int:
            pairs[gid] = [pairs[gid], pair]
        else:
            pairs[gid].append(pair)
    return rows


def count_phrase_pairs(pairs: list, alignments, max_phrase_len: int = 7) -> PhraseCounts:
    """Every consistent phrase pair of the (src_tokens, tgt_tokens) sentence pairs
    under their link sets, from one pass over each pair: its n-grams get ids and
    postings, and its instances are counted by (foreign id, english id) and kept
    as refs, with no phrase tuple or alignment built."""
    foreign, english = PhraseIds({}, [], []), PhraseIds({}, [], [])
    f_count, e_count = foreign.instances, english.instances
    width = max((len(s) for pair in pairs for s in pair), default=0).bit_length()
    shift = (sum(len(tgt) for _, tgt in pairs) * max_phrase_len).bit_length()  # > any id
    entries, links = {}, []
    for k, ((src, tgt), alignment) in enumerate(zip(pairs, alignments, strict=True)):
        links.append(sorted((j, i) for i, j in alignment))
        f_rows = _ngram_ids(src, foreign, k, max_phrase_len)
        e_rows = _ngram_ids(tgt, english, k, max_phrase_len)
        for fs, fe, es, ee in extract_phrase_pairs(src, tgt, alignment, max_phrase_len):
            fid, eid = f_rows[fs][fe - fs - 1], e_rows[es][ee - es - 1]
            f_count[fid] += 1
            e_count[eid] += 1
            key, ref = fid << shift | eid, (k << width | es) << width | fs
            seen = entries.setdefault(key, ref)
            if seen.__class__ is list:
                seen.append(ref)
            elif seen is not ref:
                entries[key] = [seen, ref]
    return PhraseCounts(entries, len(pairs), foreign, english, links, shift, width)


def _internal_alignment(counts: PhraseCounts, ref: int, e_len: int) -> frozenset:
    """The links of the instance at ref relative to its spans, from its pair's links in
    (english, foreign) order: being consistent, the instance holds those of its english words."""
    width = counts.width
    span, links = (1 << width) - 1, counts.links[ref >> 2 * width]
    f_start, e_start = ref & span, ref >> width & span
    inside = links[bisect_left(links, (e_start,)):bisect_left(links, (e_start + e_len,))]
    return frozenset((i - f_start, j - e_start) for j, i in inside)


def score_counts(counts: PhraseCounts, keys):
    """Yield the given entries in (foreign, english) order, one at a time, with
    relative-frequency phrase probabilities and their most frequent internal
    alignment, a tie going to the one whose sorted links come first; phrase tuples
    and alignments are built for these entries alone."""
    f_grams, e_grams = list(counts.foreign.ids), list(counts.english.ids)
    f_count, e_count = counts.foreign.instances, counts.english.instances
    shift, mask = counts.shift, (1 << counts.shift) - 1
    aligns = {}  # equal alignments: one frozenset
    for f, e, key in sorted((f_grams[key >> shift], e_grams[key & mask], key) for key in keys):
        refs = counts.entries[key]
        if refs.__class__ is int:
            joint, align = 1, _internal_alignment(counts, refs, len(e))
        else:
            tally = Counter(_internal_alignment(counts, ref, len(e)) for ref in refs)
            top, joint = max(tally.values()), len(refs)
            align = min((a for a, c in tally.items() if c == top), key=sorted)
        yield PhraseTableEntry(f, e, joint / e_count[key & mask], joint / f_count[key >> shift],
                               aligns.setdefault(align, align), float(joint))


def score_phrase_table(pairs: list, alignments, max_phrase_len: int = 7) -> PhraseTable:
    """Every extracted pair, counted and scored."""
    counts = count_phrase_pairs(pairs, alignments, max_phrase_len)
    return PhraseTable(score_counts(counts, counts.entries), counts.corpus_size)


def _fmt(x: float) -> str:
    return f"{x:.8g}"


def escape_phrase(tokens) -> str:
    """Space-joined tokens with `&` and `|` escaped as Moses does, so no
    field can contain the ` ||| ` separator."""
    text = " ".join(tokens)
    if "&" in text or "|" in text:
        text = text.replace("&", "&amp;").replace("|", "&#124;")
    return text


def unescape_phrase(text: str) -> tuple:
    if "&" in text:  # both entities start with `&`
        text = text.replace("&#124;", "|").replace("&amp;", "&")
    return tuple(text.split())


def write_phrase_table(entries, corpus_size: int, path) -> None:
    """`# N=corpus_size`, then `f ||| e ||| phi(f|e) phi(e|f) ||| i-j links ||| integer
    count` for each entry in the order given, which must be ascending by (foreign,
    english) with no pair twice: an entry out of that order raises ValueError."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# N={corpus_size}\n")
        last = ()
        for entry in entries:
            f, e = entry.foreign_phrase, entry.english_phrase
            if (f, e) <= last:
                raise ValueError(f"phrase pair {(f, e)} does not come after {last}")
            last = (f, e)
            scores = f"{_fmt(entry.inv_phrase_prob)} {_fmt(entry.dir_phrase_prob)}"
            links = format_links(entry.most_frequent_internal_alignment)
            fh.write(f"{escape_phrase(f)} ||| {escape_phrase(e)} ||| {scores} ||| {links} ||| "
                     f"{entry.joint_count:.0f}\n")


def read_phrase_table(path) -> PhraseTable:
    """The table as write_phrase_table wrote it; a pair that does not come after the
    one before, as the writer requires, raises ValueError naming its line."""
    table = PhraseTable()
    entries, links = table.entries, cache(parse_links)

    def header(key, value):
        if key == "N":
            table.corpus_size = int(value)

    def add(f_str, e_str, scores_str, links_str, count_str):
        f, e = unescape_phrase(f_str), unescape_phrase(e_str)
        if entries and (f, e) <= entries[-1][:2]:
            raise ValueError(f"phrase pair {(f, e)} does not come after {entries[-1][:2]}")
        scores = [float(x) for x in scores_str.split()]
        if len(scores) != 2 or not all(0 < x <= 1 for x in scores) or int(count_str) < 1:
            raise ValueError("expected 2 scores in (0, 1] and a joint count of at least 1")
        align = links_inside(links(links_str), links_str, len(f), len(e))
        entries.append(PhraseTableEntry(f, e, *scores, align, float(count_str)))

    read_table(path, " ||| ", 5, header, add)
    return table
