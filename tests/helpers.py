"""Independent oracles and synthetic-corpus builders shared by the tests.

Every oracle here is deliberately implemented by a different route than the
library code it checks (enumeration, exact rational arithmetic, regex
matching, high-precision arithmetic, per-sentence slice scans).
"""

import math
import os
import re
from collections import Counter
from fractions import Fraction

import mpmath
from hypothesis import strategies as st

from dmlex.galechurch import (BEAD_PRIORS, MEAN_CHAR_RATIO, SHAPES, SHAPE_NAMES, VARIANCE,
                              sentence_char_length)
from dmlex.ingest import PUNCTUATION, tokenize
from dmlex.lexicon import MarkerCandidate
from dmlex.model1 import NULL_WORD, PROB_FLOOR, USE_NULL

# ---------------------------------------------------------------------------
# Gale-Church oracles


def mp_length_cost(src_len, tgt_len, shape) -> float:
    """High-precision reference for the bead cost formula."""
    mpmath.mp.dps = 60
    name = shape if isinstance(shape, str) else SHAPE_NAMES[shape]
    prior = BEAD_PRIORS[name]
    if name in ("1-0", "0-1"):
        abs_delta = mpmath.mpf(4)
    else:
        denom = mpmath.sqrt(src_len * mpmath.mpf(VARIANCE))
        abs_delta = abs(tgt_len - src_len * mpmath.mpf(MEAN_CHAR_RATIO)) / denom
    return float(-mpmath.log(prior) - mp_log_two_tail(abs_delta))


def mp_log_two_tail(abs_delta):
    """High-precision log(2 * (1 - Phi(|delta|))) as an mpf."""
    mpmath.mp.dps = 60
    # 2 * (1 - Phi(x)) = erfc(x / sqrt(2)), evaluated without cancellation
    return mpmath.log(mpmath.erfc(mpmath.mpf(abs_delta) / mpmath.sqrt(2)))


def enumerate_tilings(m, n):
    """Yield every legal bead tiling of an m x n paragraph pair as a list of
    (shape, src_span, tgt_span) triples, front to back."""
    stack = [(0, 0, [])]
    while stack:
        i, j, beads = stack.pop()
        if i == m and j == n:
            yield beads
            continue
        for s, t in SHAPES:
            ni, nj = i + s, j + t
            if ni <= m and nj <= n:
                stack.append((ni, nj, beads + [((s, t), (i, ni), (j, nj))]))


def brute_force_align(src, tgt, cost_fn):
    """Minimum-cost tiling by full enumeration; ties broken by comparing the
    shape sequence from the last bead backwards (SHAPES preference order)."""
    m, n = len(src), len(tgt)
    src_lens = [sentence_char_length(s) for s in src]
    tgt_lens = [sentence_char_length(s) for s in tgt]
    shape_rank = {shape: k for k, shape in enumerate(SHAPES)}

    cost_cache = {}

    def bead_cost(shape, ss, ts):
        key = (shape, ss, ts)
        if key not in cost_cache:
            cost_cache[key] = cost_fn(
                sum(src_lens[ss[0]:ss[1]]), sum(tgt_lens[ts[0]:ts[1]]), shape
            )
        return cost_cache[key]

    best = None
    best_key = None
    for tiling in enumerate_tilings(m, n):
        cost = 0.0
        for shape, ss, ts in tiling:
            cost += bead_cost(shape, ss, ts)
        key = (cost, tuple(shape_rank[shape] for shape, _, _ in reversed(tiling)))
        if best_key is None or key < best_key:
            best_key = key
            best = tiling
    return best_key[0] if best_key else 0.0, best or []


def fast_brute_force_align(src, tgt, cost_fn):
    """Same oracle as brute_force_align, tuned for larger paragraphs.

    Bead costs are precomputed per grid cell and the depth-first walk keeps
    only the running cost and the shape-rank sequence.  The walk prunes by
    branch and bound: a prefix whose running cost is strictly greater than
    the best complete tiling found so far is dropped.  That is exact because
    every bead cost is strictly positive (checked here; ValueError otherwise)
    and adding a positive float never lowers a sum, so no completion of a
    dropped prefix can reach the best cost.  Prefixes that tie the best cost
    are still explored, so the tie-break on the reversed shape-rank sequence
    sees every minimum-cost tiling.  Tie-break and accumulation order (front
    to back) are identical to brute_force_align.
    """
    m, n = len(src), len(tgt)
    src_lens = [sentence_char_length(s) for s in src]
    tgt_lens = [sentence_char_length(s) for s in tgt]

    moves = {}
    for i in range(m + 1):
        for j in range(n + 1):
            opts = []
            for rank, (di, dj) in enumerate(SHAPES):
                ni, nj = i + di, j + dj
                if ni <= m and nj <= n:
                    c = cost_fn(
                        sum(src_lens[i:ni]), sum(tgt_lens[j:nj]), (di, dj)
                    )
                    if not c > 0:
                        raise ValueError(
                            f"bead cost {c!r} at {(i, j)} shape {(di, dj)} is not "
                            "positive; cost pruning would be inexact"
                        )
                    opts.append((rank, ni, nj, c))
            moves[(i, j)] = opts

    best_cost = math.inf
    best_key = None
    best_ranks = None
    stack = [(0, 0, 0.0, ())]
    while stack:
        i, j, acc, ranks = stack.pop()
        if acc > best_cost:
            continue
        if i == m and j == n:
            key = ranks[::-1]
            if best_key is None or acc < best_cost or key < best_key:
                best_cost, best_key, best_ranks = acc, key, ranks
            continue
        for rank, ni, nj, c in moves[(i, j)]:
            nacc = acc + c
            if nacc <= best_cost:
                stack.append((ni, nj, nacc, ranks + (rank,)))

    if best_ranks is None:
        return 0.0, []
    tiling = []
    i = j = 0
    for rank in best_ranks:
        di, dj = SHAPES[rank]
        tiling.append(((di, dj), (i, i + di), (j, j + dj)))
        i, j = i + di, j + dj
    return best_cost, tiling


# ---------------------------------------------------------------------------
# Model 1 oracle


def dict_train_model1(pairs, iterations, prob_floor=PROB_FLOOR, use_null=USE_NULL):
    """Model 1 EM over dicts of dicts, rebuilt every iteration: (probs,
    log_likelihoods, generated_vocab). Its additions and sums run in the order
    train_model1 promises, so the results must be equal, not just close. A
    conditioning word whose probabilities all fall under the floor leaves
    probs, and later iterations read 0.0 for it."""
    def cond_tokens(cond):
        return [NULL_WORD] + list(cond) if use_null else list(cond)

    cooc = {}
    for cond, gen in pairs:
        for c in cond_tokens(cond):
            cooc.setdefault(c, set()).update(gen)
    probs = {c: {g: 1.0 / len(gens) for g in sorted(gens)} for c, gens in cooc.items()}
    generated_vocab = {g for _, gen in pairs for g in gen}

    log_likelihoods = []
    for _ in range(iterations):
        counts = {c: dict.fromkeys(gens, 0.0) for c, gens in probs.items()}
        totals = dict.fromkeys(probs, 0.0)
        ll = 0.0
        for cond, gen in pairs:
            ctoks = cond_tokens(cond)
            ll -= len(gen) * math.log(len(ctoks))
            for g in gen:
                denom = 0.0
                for c in ctoks:
                    denom += probs.get(c, {}).get(g, 0.0)
                ll += math.log(denom) if denom > 0.0 else math.log(prob_floor)
                for c in ctoks:
                    p = probs.get(c, {}).get(g, 0.0)
                    if p > 0.0:
                        frac = p / denom
                        counts[c][g] += frac
                        totals[c] += frac
        log_likelihoods.append(ll)

        new_probs = {}
        for c, gcounts in counts.items():
            total = totals[c]
            if total <= 0.0:
                continue
            dist = {g: v / total for g, v in gcounts.items() if v / total >= prob_floor}
            if not dist:
                continue
            norm = 0.0
            for v in dist.values():  # left to right, as train_model1 sums
                norm += v
            new_probs[c] = {g: v / norm for g, v in dist.items()}
        probs = new_probs
    return probs, log_likelihoods, generated_vocab


def brute_force_viterbi(cond_tokens, gen_tokens, table):
    """viterbi_align by a table.lookup of every (c, g): for each generated
    token, the first position of the highest probability, or None when the
    token is out of vocabulary, the conditioning side is empty, or NULL (with
    use_null) scores strictly higher."""
    links = []
    for g in gen_tokens:
        scores = [table.lookup(c, g) for c in cond_tokens]
        best = max(scores, default=None)
        if (g not in table.generated_vocab or best is None
                or (table.use_null and table.lookup(NULL_WORD, g) > best)):
            links.append(None)
        else:
            links.append(scores.index(best))
    return links


# ---------------------------------------------------------------------------
# Phrase extraction oracle


def brute_force_phrase_instances(src_tokens, tgt_tokens, links, max_phrase_len):
    """Every span pair tested directly against the consistency predicate, as
    (f_start, f_end, e_start, e_end, foreign, english, internal alignment), ends
    exclusive; a phrase pair found at two places is two instances."""
    links = set(links)
    out = []
    n_src, n_tgt = len(src_tokens), len(tgt_tokens)
    for fs in range(n_src):
        for fe in range(fs, min(n_src, fs + max_phrase_len)):
            for es in range(n_tgt):
                for ee in range(es, min(n_tgt, es + max_phrase_len)):
                    inside = {
                        (i, j) for i, j in links if fs <= i <= fe and es <= j <= ee
                    }
                    if not inside:
                        continue
                    crossing = any(
                        (fs <= i <= fe) != (es <= j <= ee) for i, j in links
                    )
                    if crossing:
                        continue
                    out.append(
                        (
                            fs, fe + 1, es, ee + 1,
                            tuple(src_tokens[fs:fe + 1]),
                            tuple(tgt_tokens[es:ee + 1]),
                            frozenset((i - fs, j - es) for i, j in inside),
                        )
                    )
    return out


def brute_force_phrase_pairs(src_tokens, tgt_tokens, links, max_phrase_len):
    """The distinct (foreign, english, internal alignment) of the brute-force instances."""
    return {inst[4:] for inst in
            brute_force_phrase_instances(src_tokens, tgt_tokens, links, max_phrase_len)}


def naive_phrase_counts(instances) -> dict:
    """(foreign, english) -> (joint count, most frequent internal alignment),
    from plain grouping of (foreign, english, alignment) instances and a Counter
    per pair; among equally frequent alignments the one whose sorted links come
    first wins."""
    groups = {}
    for foreign, english, align in instances:
        key = (tuple(foreign), tuple(english))
        groups.setdefault(key, []).append(frozenset(align))
    out = {}
    for key, alignments in groups.items():
        tally = Counter(alignments)
        out[key] = (len(alignments), min(tally, key=lambda a: (-tally[a], sorted(a))))
    return out


def phrase_keys(counts) -> dict:
    """entry key -> (foreign, english) for the entries of a phrases.PhraseCounts,
    decoded by the key layout its comment gives."""
    foreign, english = list(counts.foreign.ids), list(counts.english.ids)
    mask = (1 << counts.shift) - 1
    return {key: (foreign[key >> counts.shift], english[key & mask]) for key in counts.entries}


# ---------------------------------------------------------------------------
# Contingency count oracle


def _contains_slice(sentence, phrase) -> bool:
    k = len(phrase)
    return any(sentence[i:i + k] == phrase for i in range(len(sentence) - k + 1))


def brute_force_contingency_counts(keys, pairs) -> dict:
    """(foreign, english) -> (c_s, c_t, c_st, n) for each (foreign, english) key,
    each phrase found by scanning every sentence for it slice by slice. An
    entry that never co-occurs gets c_st == 0."""
    pairs = [(tuple(src), tuple(tgt)) for src, tgt in pairs]
    hits = ({}, {})  # per side: phrase -> ids of the pairs containing it

    def containing(side, phrase):
        if phrase not in hits[side]:
            hits[side][phrase] = {
                k for k, pair in enumerate(pairs) if _contains_slice(pair[side], phrase)
            }
        return hits[side][phrase]

    out = {}
    for foreign, english in keys:
        s_ids, t_ids = containing(0, foreign), containing(1, english)
        out[(foreign, english)] = (len(s_ids), len(t_ids), len(s_ids & t_ids), len(pairs))
    return out


# ---------------------------------------------------------------------------
# Fisher exact oracle


def exact_fisher_neg_log_p(c_s, c_t, c_st, n) -> float:
    """Right-tail p-value in exact rational arithmetic."""
    p = Fraction(0)
    denom = math.comb(n, c_t)
    for k in range(c_st, min(c_s, c_t) + 1):
        p += Fraction(math.comb(c_s, k) * math.comb(n - c_s, c_t - k), denom)
    assert 0 < p <= 1
    mpmath.mp.dps = 40
    return float(-mpmath.log(mpmath.mpf(p.numerator) / p.denominator))


# ---------------------------------------------------------------------------
# Marker selection reference matcher


def reference_marker_match(english_side, marker, punct_tokens):
    """Regex-based reference for the four-pattern punctuation rule.

    Returns the matched context name or None.
    """
    punct = "|".join(re.escape(p) for p in sorted(punct_tokens))
    marker_s = re.escape(" ".join(marker))
    side = " ".join(english_side)
    if re.fullmatch(marker_s, side):
        return "none"
    if re.fullmatch(f"(?:{punct}) {marker_s} (?:{punct})", side):
        return "both"
    if re.fullmatch(f"(?:{punct}) {marker_s}", side):
        return "preceded"
    if re.fullmatch(f"{marker_s} (?:{punct})", side):
        return "followed"
    return None


def enumerate_marker_candidates(table, marker, language=""):
    """select_candidates by enumeration: probe the table for every english
    pattern, 1 + 17 * 2 + 17 ** 2 of them over the 17 punctuation tokens, in
    pattern order, each pattern's entries in table order, found by a scan of the
    table's entries."""
    marker = tuple(marker)
    patterns = [(marker, "none")]
    for p in sorted(PUNCTUATION):
        patterns.append((marker + (p,), "followed"))
        patterns.append(((p,) + marker, "preceded"))
        for q in sorted(PUNCTUATION):
            patterns.append(((p,) + marker + (q,), "both"))
    return [MarkerCandidate(marker, language, entry.foreign_phrase, entry, context)
            for english, context in patterns
            for entry in table.entries if entry.english_phrase == english]


# ---------------------------------------------------------------------------
# Synthetic corpus for end-to-end runs

PLANTED_MARKERS = [
    ("above all", ["sobretudo"]),
    ("since", ["pois", "desde"]),
    ("however", ["contudo"]),
    ("in short", ["em suma"]),
    ("meanwhile", ["entretanto"]),
    ("therefore", ["portanto"]),
    ("at last", ["finalmente"]),
    ("for instance", ["por exemplo"]),
    ("anyway", ["adiante", "enfim"]),
    ("then", ["depois"]),
]

_N_CONTENT = 30


def _content_pair(idx):
    return f"word{idx:02d}", f"vort{idx:02d}"


def synthetic_sentences(n_pairs=320, markers=PLANTED_MARKERS, rng=None):
    """Deterministic template sentence pairs planting marker translations.

    Marker sentences are sentence-initial and comma-separated; filler
    sentences carry only content words.
    """
    import random

    rng = rng or random.Random(20240815)
    pairs = []
    marker_cycle = []
    for marker, translations in markers:
        for k in range(24):
            marker_cycle.append((marker, translations[k % len(translations)]))
    rng.shuffle(marker_cycle)

    for k in range(n_pairs):
        idxs = rng.sample(range(_N_CONTENT), 4)
        e_words = [_content_pair(i)[0] for i in idxs]
        f_words = [_content_pair(i)[1] for i in idxs]
        if k < len(marker_cycle):
            marker, translation = marker_cycle[k]
            e_line = f"{marker.capitalize()} , {' '.join(e_words)} ."
            f_line = f"{translation.capitalize()} , {' '.join(f_words)} ."
        else:
            e_line = f"{' '.join(e_words)} ."
            f_line = f"{' '.join(f_words)} ."
        pairs.append((e_line, f_line))
    return pairs


def write_synthetic_corpus(root, n_pairs=320, markers=PLANTED_MARKERS,
                           english="en", foreign="xx", sentences_per_paragraph=4,
                           files=2):
    """Write Europarl-format files plus a seed list and a pipeline config.

    Returns the config file path.
    """
    pairs = synthetic_sentences(n_pairs, markers)
    corpus_root = os.path.join(root, "corpus")
    per_file = (len(pairs) + files - 1) // files
    for lang, column in ((english, 0), (foreign, 1)):
        lang_dir = os.path.join(corpus_root, lang)
        os.makedirs(lang_dir, exist_ok=True)
        for f_idx in range(files):
            chunk = pairs[f_idx * per_file:(f_idx + 1) * per_file]
            lines = ["<CHAPTER 1>", "<SPEAKER 1>"]
            for s_idx, pair in enumerate(chunk):
                if s_idx % sentences_per_paragraph == 0:
                    lines.append("<P>")
                lines.append(pair[column])
            with open(os.path.join(lang_dir, f"ep-{f_idx}.txt"), "w",
                      encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")

    seed_path = os.path.join(root, "markers.txt")
    with open(seed_path, "w", encoding="utf-8") as fh:
        for marker, _ in markers:
            fh.write(marker + "\n")

    config_path = os.path.join(root, "pipeline.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(
            "corpus_root = corpus\n"
            f"english = {english}\n"
            f"foreign = {foreign}\n"
            "markers = markers.txt\n"
            f"output = {os.path.join(root, 'out')}\n"
        )
    return config_path


# ---------------------------------------------------------------------------
# Tokens for on-disk format round trips


# Lines biased towards the characters the text formats give a meaning to.
_FORMAT_LINES = st.text(
    alphabet=st.one_of(st.sampled_from("#|=\t -'."),
                       st.characters(blacklist_categories=("Cs",))),
    max_size=12,
)


def tokenizer_tokens():
    """Single tokens as `tokenize` emits them."""
    return _FORMAT_LINES.map(tokenize).filter(bool).flatmap(st.sampled_from)


def tokenizer_phrases(max_len=3):
    """Non-empty token tuples, the bare `|||` token included."""
    return st.lists(tokenizer_tokens(), min_size=1, max_size=max_len).map(tuple)
