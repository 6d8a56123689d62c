"""Length-based sentence alignment (Gale & Church dynamic program)."""

import math
from collections import namedtuple

# Bead shapes in tie-break preference order: (src sentences, tgt sentences).
SHAPES = [(1, 1), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)]
SHAPE_NAMES = {s: f"{s[0]}-{s[1]}" for s in SHAPES}

# Fixed |delta| charged to insertion/deletion beads, which a pure length
# model cannot score.
DELETION_DELTA = 4.0

# Gale & Church: a bead's target length ~ N(c * source length, s^2 * source length)
MEAN_CHAR_RATIO = 1.0  # c
VARIANCE = 6.8  # s^2

# Classical prior mass per shape, renormalized to sum to 1.
_PRIOR_MASS = {
    "1-1": 0.89,
    "1-0": 0.0099,
    "0-1": 0.0099,
    "2-1": 0.089 / 2,
    "1-2": 0.089 / 2,
    "2-2": 0.011,
}
BEAD_PRIORS = {k: v / sum(_PRIOR_MASS.values()) for k, v in _PRIOR_MASS.items()}


# src_span, tgt_span: half-open (start, end) sentence indices
Bead = namedtuple("Bead", "src_span tgt_span shape cost")


def sentence_char_length(tokens: list) -> int:
    """Characters of the space-joined tokenized sentence."""
    if not tokens:
        return 0
    return sum(len(t) for t in tokens) + len(tokens) - 1


def _log_two_tail(abs_delta: float) -> float:
    # log(2 * (1 - Phi(|delta|))) = log(erfc(z)), z = |delta| / sqrt(2)
    z = abs_delta / math.sqrt(2.0)
    if z < 0.5:  # erfc(z) is near 1, so take the log of 1 - erf(z)
        return math.log1p(-math.erf(z))
    if z < 20.0:
        return math.log(math.erfc(z))
    # erfc underflows past z ~ 27: asymptotic series in 1 / (2 z^2), whose
    # first omitted term is below 1e-16 from z = 20 on
    x = 1.0 / (2.0 * z * z)
    term = series = 1.0
    for n in range(1, 8):
        term *= -(2 * n - 1) * x
        series += term
    return -z * z - math.log(z * math.sqrt(math.pi)) + math.log(series)


def length_cost(src_len: int, tgt_len: int, shape) -> float:
    """-log prior(shape) - log P(delta) for a candidate bead."""
    if src_len < 0 or tgt_len < 0:
        raise ValueError("lengths must be non-negative")
    if src_len == 0 and tgt_len == 0:
        raise ValueError("at least one side must be non-empty")
    if isinstance(shape, tuple):
        shape = SHAPE_NAMES[shape]
    if shape in ("1-0", "0-1"):
        abs_delta = DELETION_DELTA
    else:
        denom = math.sqrt(src_len * VARIANCE) if src_len > 0 else math.sqrt(VARIANCE)
        abs_delta = abs(tgt_len - src_len * MEAN_CHAR_RATIO) / denom
    return -math.log(BEAD_PRIORS[shape]) - _log_two_tail(abs_delta)


def align_paragraph(src: list, tgt: list) -> list:
    """Minimum-cost bead tiling of the two sentence lists.

    Ties at each DP cell are broken by SHAPES order (1-1 first).
    """
    m, n = len(src), len(tgt)
    if m == 0 and n == 0:
        return []
    src_lens = [sentence_char_length(s) for s in src]
    tgt_lens = [sentence_char_length(s) for s in tgt]

    INF = float("inf")
    cost = [[INF] * (n + 1) for _ in range(m + 1)]
    back = [[None] * (n + 1) for _ in range(m + 1)]
    cost[0][0] = 0.0

    for i in range(m + 1):
        for j in range(n + 1):
            if i == 0 and j == 0:
                continue
            best = INF
            best_shape = None
            for s, t in SHAPES:
                pi, pj = i - s, j - t
                if pi < 0 or pj < 0 or cost[pi][pj] == INF:
                    continue
                sl = sum(src_lens[pi:i])
                tl = sum(tgt_lens[pj:j])
                cand = cost[pi][pj] + length_cost(sl, tl, (s, t))
                if cand < best:
                    best = cand
                    best_shape = (s, t)
            cost[i][j] = best
            back[i][j] = best_shape

    beads = []
    i, j = m, n
    while i > 0 or j > 0:
        s, t = back[i][j]
        beads.append(Bead((i - s, i), (j - t, j), SHAPE_NAMES[(s, t)],
                          cost[i][j] - cost[i - s][j - t]))
        i, j = i - s, j - t
    beads.reverse()
    return beads


def align_corpus(pairs: list) -> list:
    """One (src_tokens, tgt_tokens) sentence pair per bead of each
    (src_sentences, tgt_sentences) paragraph pair, concatenating
    multi-sentence sides; insertion/deletion beads are dropped."""
    corpus = []
    for src_para, tgt_para in pairs:
        beads = align_paragraph(src_para, tgt_para)
        for bead in beads:
            if bead.shape in ("1-0", "0-1"):
                continue
            src = [tok for k in range(*bead.src_span) for tok in src_para[k]]
            tgt = [tok for k in range(*bead.tgt_span) for tok in tgt_para[k]]
            corpus.append((src, tgt))
    return corpus


def write_aligned_corpus(pairs: list, src_path, tgt_path) -> None:
    with open(src_path, "w", encoding="utf-8") as fs, open(tgt_path, "w", encoding="utf-8") as ft:
        for src_tokens, tgt_tokens in pairs:
            fs.write(" ".join(src_tokens) + "\n")
            ft.write(" ".join(tgt_tokens) + "\n")


def read_aligned_corpus(src_path, tgt_path) -> list:
    """The (src_tokens, tgt_tokens) sentence pairs written by write_aligned_corpus."""
    with open(src_path, encoding="utf-8") as fs, open(tgt_path, encoding="utf-8") as ft:
        src_lines, tgt_lines = fs.readlines(), ft.readlines()
    if len(src_lines) != len(tgt_lines):
        raise ValueError(f"{src_path} has {len(src_lines)} lines but {tgt_path} "
                         f"has {len(tgt_lines)}")
    return [(s.split(), t.split()) for s, t in zip(src_lines, tgt_lines)]
