"""Alignment-consistent phrase extraction and phrase-table scoring."""

from collections import Counter, namedtuple

from .model1 import format_links, links_inside, parse_links, read_table


# internal_alignment: frozenset of (foreign offset, english offset) links.
# A tuple, so that building one is cheap.
PhrasePairInstance = namedtuple(
    "PhrasePairInstance", "foreign_phrase english_phrase internal_alignment")


# inv_phrase_prob: phi(f|e); dir_phrase_prob: phi(e|f)
PhraseTableEntry = namedtuple("PhraseTableEntry", "foreign_phrase english_phrase inv_phrase_prob "
                              "dir_phrase_prob most_frequent_internal_alignment joint_count")


class PhraseTable:
    def __init__(self, entries=None, by_english=None, corpus_size=0):
        self.entries = {} if entries is None else entries  # (foreign, english) -> entry
        self.by_english = {} if by_english is None else by_english
        self.corpus_size = corpus_size

    def add(self, entry: PhraseTableEntry) -> None:
        key = (entry.foreign_phrase, entry.english_phrase)
        self.entries[key] = entry
        self.by_english.setdefault(entry.english_phrase, []).append(entry)

    def __len__(self) -> int:
        return len(self.entries)


# entries: (foreign, english) -> (joint count, most frequent internal alignment)
PhraseCounts = namedtuple("PhraseCounts", "entries corpus_size")


def extract_phrase_pairs(src_tokens, tgt_tokens, alignment, max_phrase_len: int = 7) -> list:
    """All consistent phrase pairs up to max_phrase_len tokens per side.

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
            english = tuple(tgt_tokens[e_start:e_end + 1])
            # consistent, so the links of these english words are all the links inside
            inside = [(i, j - e_start) for i, j in links if e_start <= j <= e_end]
            fs = f_min
            while True:
                align = frozenset((i - fs, j) for i, j in inside)
                fe = f_max
                while fe - fs < max_phrase_len:
                    out.append(PhrasePairInstance(tuple(src_tokens[fs:fe + 1]), english, align))
                    fe += 1
                    if fe >= n_src or src_aligned[fe]:
                        break
                fs -= 1
                if fs < 0 or src_aligned[fs] or f_max - fs >= max_phrase_len:
                    break
    return out


def count_phrase_pairs(instances, corpus_size: int) -> PhraseCounts:
    """Each pair's joint count and most frequent internal alignment, from any
    one-pass iterable of instances; a tie goes to the alignment whose sorted
    links come first. Equal phrases, equal alignments and the (1, alignment)
    values of pairs seen once are each kept as one object, and only a pair seen
    more than once gets a tally of its alignments."""
    shared = {}  # phrase -> its one kept copy
    ones = _Memo(lambda align: (1, align))  # alignment -> (1, its one kept copy)
    entries = {}
    tallies = {}  # pair seen more than once -> how often each of its alignments was seen
    for foreign, english, align in instances:
        one = ones[align]
        seen = entries.get((foreign, english))
        if seen is None:
            entries[shared.setdefault(foreign, foreign),
                    shared.setdefault(english, english)] = one
        else:
            tally = tallies.get((foreign, english))
            if tally is None:
                tally = tallies[foreign, english] = Counter((seen[1],))
            tally[one[1]] += 1
    for key, tally in tallies.items():
        top = max(tally.values())
        entries[key] = (sum(tally.values()),
                        min((a for a, c in tally.items() if c == top), key=sorted))
    return PhraseCounts(entries, corpus_size)


def score_counts(counts: PhraseCounts, keys) -> PhraseTable:
    """Relative-frequency phrase probabilities for the given keys, with marginals
    over every pair in counts."""
    marg_f, marg_e = {}, {}
    for (f, e), (joint, _) in counts.entries.items():
        marg_f[f] = marg_f.get(f, 0) + joint
        marg_e[e] = marg_e.get(e, 0) + joint
    table = PhraseTable(corpus_size=counts.corpus_size)
    for f, e in sorted(keys):
        joint, align = counts.entries[f, e]
        table.add(PhraseTableEntry(f, e, joint / marg_e[e], joint / marg_f[f], align,
                                   float(joint)))
    return table


def score_phrase_table(instances, corpus_size: int) -> PhraseTable:
    """Every extracted pair, counted and scored."""
    counts = count_phrase_pairs(instances, corpus_size)
    return score_counts(counts, counts.entries)


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


class _Memo(dict):
    """fn(key) for each key looked up, computed on the first lookup only."""
    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


def write_phrase_table(table: PhraseTable, path) -> None:
    """`f ||| e ||| phi(f|e) phi(e|f) ||| i-j links ||| integer count`, sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# N={table.corpus_size}\n")
        for f, e in sorted(table.entries):
            entry = table.entries[(f, e)]
            scores = f"{_fmt(entry.inv_phrase_prob)} {_fmt(entry.dir_phrase_prob)}"
            links = format_links(entry.most_frequent_internal_alignment)
            fh.write(f"{escape_phrase(f)} ||| {escape_phrase(e)} ||| {scores} ||| {links} ||| "
                     f"{entry.joint_count:.0f}\n")


def read_phrase_table(path) -> PhraseTable:
    table = PhraseTable()
    links = _Memo(parse_links)

    def header(key, value):
        if key == "N":
            table.corpus_size = int(value)

    def add(f_str, e_str, scores_str, links_str, count_str):
        f, e = unescape_phrase(f_str), unescape_phrase(e_str)
        scores = [float(x) for x in scores_str.split()]
        if len(scores) != 2 or not all(0 < x <= 1 for x in scores) or int(count_str) < 1:
            raise ValueError("expected 2 scores in (0, 1] and a joint count of at least 1")
        align = links_inside(links[links_str], links_str, len(f), len(e))
        table.add(PhraseTableEntry(f, e, *scores, align, float(count_str)))

    read_table(path, " ||| ", 5, header, add)
    return table

