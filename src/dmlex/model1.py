"""IBM Model 1 EM training, Viterbi alignment and symmetrization."""

import math

NULL_WORD = "<NULL>"
PROB_FLOOR = 1e-7  # probabilities below it are pruned, and unseen pairs get it
USE_NULL = True  # every conditioning sentence carries the NULL word


class TranslationTable:
    """Directional word-translation probabilities t(generated | conditioning). A
    plain class, not a tuple, so that a weak reference can show when it is freed."""

    def __init__(self, probs, prob_floor=PROB_FLOOR, use_null=USE_NULL, log_likelihoods=None,
                 generated_vocab=None):
        self.probs = probs  # conditioning word -> {generated word: probability}
        self.prob_floor = prob_floor
        self.use_null = use_null
        # one per EM iteration
        self.log_likelihoods = [] if log_likelihoods is None else log_likelihoods
        self.generated_vocab = set() if generated_vocab is None else generated_vocab

    def lookup(self, cond: str, gen: str) -> float:
        return self.probs.get(cond, {}).get(gen, self.prob_floor)


def train_model1(pairs, iterations: int = 5, prob_floor: float = PROB_FLOOR,
                 use_null: bool = USE_NULL) -> TranslationTable:
    """EM for Model 1 over (conditioning_tokens, generated_tokens) pairs.

    Uniform initialization over co-occurring word pairs; distributions are
    renormalized and floor-pruned after every M-step, and a conditioning word
    left with none at or above the floor drops out; the corpus log-likelihood
    under the table entering each iteration is recorded. t and the expected
    counts hold one list of floats per conditioning word c, c in first-seen
    order, with a slot per co-occurring g, sorted; a pruned slot holds 0.0.

    Every float is added in the order of the dict-of-dicts EM that
    tests/helpers.py keeps as the oracle, so the two give equal tables. A
    sentence's E-step first sums each generated token's denominator over the
    conditioning tokens in order. Then it walks the column of each distinct
    conditioning word: generated tokens in order, each fraction added to the
    word's count and total once per occurrence of the word, back to back.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty corpus")

    def cond_tokens(cond):
        return [NULL_WORD] + list(cond) if use_null else list(cond)

    cooc = {}
    for cond, gen in pairs:
        for c in cond_tokens(cond):
            cooc.setdefault(c, set()).update(gen)
    words = list(cooc)  # c in first-seen order
    gen_words = [sorted(gens) for gens in cooc.values()]  # per c, its g
    del cooc
    # slot numbers start at 0 for every c, so all columns share one int object per number
    slots = list(range(max(map(len, gen_words), default=0)))
    slot_of = {c: dict(zip(gens, slots)) for c, gens in zip(words, gen_words)}
    cond_id = {c: k for k, c in enumerate(words)}
    # uniform init over co-occurring pairs
    t = [[1.0 / len(gens) for _ in gens] for gens in gen_words]
    # per sentence: len(gen) * log(len(cond)); len(gen); the id and column of
    # each c in order; the occurrence counts m of its words; and per distinct
    # c, its id, its m and its column with each slot m times over
    sentences = []
    for k, (cond, gen) in enumerate(pairs):
        ctoks = cond_tokens(cond)
        if not ctoks:
            raise ValueError(f"sentence pair {k} has no conditioning tokens")
        columns = {c: (cond_id[c], tuple(map(slot_of[c].__getitem__, gen)))
                   for c in dict.fromkeys(ctoks)}
        spread = []
        for c, (i, column) in columns.items():
            m = ctoks.count(c)  # a word seen once walks the column it has in order
            spread.append((i, m, column if m == 1 else tuple(s for s in column for _ in range(m))))
        sentences.append((len(gen) * math.log(len(ctoks)), len(gen),
                          tuple(map(columns.__getitem__, ctoks)), tuple({m for _, m, _ in spread}),
                          tuple(spread)))
    del slot_of, cond_id

    log_floor = math.log(prob_floor)
    log_likelihoods = []
    for _ in range(iterations):
        counts = [[0.0] * len(tc) for tc in t]
        totals = [0.0] * len(t)
        ll = 0.0
        for length_term, n_gen, in_order, repeats, spread in sentences:
            ll -= length_term
            denoms = [0.0] * n_gen
            for c, column in in_order:
                tc = t[c]
                denoms = [denom + tc[s] for denom, s in zip(denoms, column)]
            for j, denom in enumerate(denoms):
                if denom > 0.0:
                    ll += math.log(denom)
                else:  # every t of g is 0.0: the floor's likelihood and fractions of 0.0
                    ll += log_floor
                    denoms[j] = math.inf
            # per m, each denominator m times over, to walk beside a column spread m times
            spread_denoms = {m: [denom for denom in denoms for _ in range(m)] for m in repeats}
            for c, m, column in spread:
                tc = t[c]
                cc = counts[c]
                total = totals[c]
                for s, denom in zip(column, spread_denoms[m]):
                    frac = tc[s] / denom
                    cc[s] += frac
                    total += frac
                totals[c] = total
        log_likelihoods.append(ll)

        for c, (cc, total) in enumerate(zip(counts, totals)):
            dist = [v / total for v in cc] if total > 0.0 else []
            kept = [q if q >= prob_floor else 0.0 for q in dist]
            norm = 0.0
            for q in kept:  # left to right: sum() compensates from Python 3.12 on
                norm += q
            # with nothing kept, c drops out of the table
            t[c] = [q / norm for q in kept] if norm > 0.0 else [0.0] * len(cc)

    dists = ((c, {g: p for g, p in zip(gens, tc) if p > 0.0})
             for c, gens, tc in zip(words, gen_words, t))
    return TranslationTable({c: dist for c, dist in dists if dist}, prob_floor, use_null,
                            log_likelihoods, {g for _, gen in pairs for g in gen})


def viterbi_align(cond_tokens, gen_tokens, table: TranslationTable) -> list:
    """For each generated token, its best conditioning position, or None.

    Ties go to the smallest conditioning index; NULL loses all ties;
    out-of-vocabulary generated tokens link to NULL. Each conditioning word's
    distribution is fetched once; a word missing from the table reads the floor.
    """
    floor = table.prob_floor
    dists = [table.probs.get(c, {}) for c in cond_tokens]
    null = table.probs.get(NULL_WORD, {})
    links = []
    for g in gen_tokens:
        if g not in table.generated_vocab:
            links.append(None)
            continue
        best_i = None
        best_p = -1.0
        for i, dist in enumerate(dists):
            p = dist.get(g, floor)
            if p > best_p:
                best_p = p
                best_i = i
        if table.use_null and null.get(g, floor) > best_p:
            best_i = None
        links.append(best_i)
    return links


HEURISTICS = ("intersection", "union", "grow-diag-final-and")

_NEIGHBORS = [(-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)]


def symmetrize(src_to_tgt: list, tgt_to_src: list, heuristic: str = "grow-diag-final-and") -> set:
    """Combine two viterbi_align results into one (src, tgt) link set:
    src_to_tgt holds a src position or None per tgt token, tgt_to_src the
    reverse, so each one's length is the other's sentence length."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic: {heuristic}")
    a = {(i, j) for j, i in enumerate(src_to_tgt) if i is not None}
    b = {(i, j) for i, j in enumerate(tgt_to_src) if j is not None}
    if any(i >= len(tgt_to_src) for i, _ in a) or any(j >= len(src_to_tgt) for _, j in b):
        raise ValueError("directional alignments cover different sentence lengths")
    inter = a & b
    union = a | b

    if heuristic == "intersection":
        return set(inter)
    if heuristic == "union":
        return set(union)

    aligned = set(inter)
    src_aligned = {i for i, _ in aligned}
    tgt_aligned = {j for _, j in aligned}

    # grow-diag: repeatedly absorb union neighbors of current links that
    # re-align at least one still-unaligned word
    changed = True
    while changed:
        changed = False
        for i, j in sorted(aligned):
            for di, dj in _NEIGHBORS:
                ni, nj = i + di, j + dj
                if (ni, nj) in union and (ni, nj) not in aligned and (
                    ni not in src_aligned or nj not in tgt_aligned
                ):
                    aligned.add((ni, nj))
                    src_aligned.add(ni)
                    tgt_aligned.add(nj)
                    changed = True

    # final-and: union links with both endpoints still unaligned
    for i, j in sorted(union):
        if i not in src_aligned and j not in tgt_aligned:
            aligned.add((i, j))
            src_aligned.add(i)
            tgt_aligned.add(j)

    return aligned


def write_translation_table(table: TranslationTable, path) -> None:
    """Tab-separated `cond \\t gen \\t prob`, 8 significant digits, sorted; no stage calls it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# floor={table.prob_floor!r}\n")
        fh.write(f"# null={'true' if table.use_null else 'false'}\n")
        for cond in sorted(table.probs):
            for gen in sorted(table.probs[cond]):
                fh.write(f"{cond}\t{gen}\t{table.probs[cond][gen]:.8g}\n")


def format_links(links) -> str:
    """(i, j) links as sorted, space-separated `i-j` tokens."""
    return " ".join(f"{i}-{j}" for i, j in sorted(links))


def parse_links(text: str) -> tuple:
    """The links of a format_links text, whose tokens must each be two ASCII
    decimal integers joined by `-`, with their largest i and j (-1 if none)."""
    tokens = [token.partition("-") for token in text.split()]
    if not (text.isascii() and all(i.isdigit() and j.isdigit() for i, _, j in tokens)):
        raise ValueError(f"links {text.strip()!r} are not all i-j")
    links = frozenset((int(i), int(j)) for i, _, j in tokens)
    return links, max((i for i, _ in links), default=-1), max((j for _, j in links), default=-1)


def links_inside(parsed: tuple, text: str, n_src: int, n_tgt: int) -> frozenset:
    """The links of parse_links(text), which must lie inside an n_src x n_tgt pair."""
    links, last_i, last_j = parsed
    if last_i >= n_src or last_j >= n_tgt:
        raise ValueError(f"links {text.strip()!r} reach outside the {n_src}x{n_tgt} pair")
    return links


def write_alignments(link_sets, path) -> None:
    """One line per sentence pair: its (src, tgt) links."""
    with open(path, "w", encoding="utf-8") as fh:
        for links in link_sets:
            fh.write(format_links(links) + "\n")


def read_alignments(path, pairs) -> list:
    """The link sets written by write_alignments, one line per (src, tgt) sentence
    pair; every link must lie inside its pair."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    if len(lines) != len(pairs):
        raise ValueError(f"{path} has {len(lines)} lines for {len(pairs)} sentence pairs")
    link_sets = []
    for lineno, (line, (src, tgt)) in enumerate(zip(lines, pairs), start=1):
        try:
            link_sets.append(links_inside(parse_links(line), line, len(src), len(tgt)))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc} in {path}") from None
    return link_sets


def read_table(path, sep, n_fields, header, add) -> None:
    """header(key, value) for each `# key=value` line and add(*fields) for each
    line of n_fields fields joined by sep; blank lines are skipped. A bad line
    raises ValueError naming it and the file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                if sep not in line and line.startswith("#"):  # data lines all have fields
                    key, _, value = line[1:].strip().partition("=")
                    header(key, value)
                    continue
                fields = line.split(sep)
                if len(fields) != n_fields:
                    raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
                add(*fields)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc} in {path}") from None


def read_translation_table(path) -> TranslationTable:
    """The table written by write_translation_table; every probability must lie
    in (0, 1], the floor in (0, 1), and `# null=` must be true or false; no stage calls it."""
    probs, vocab = {}, set()
    prob_floor, use_null = PROB_FLOOR, USE_NULL

    def header(key, value):
        nonlocal prob_floor, use_null
        if key == "floor":
            prob_floor = float(value)
            if not 0.0 < prob_floor < 1.0:  # NaN fails every comparison
                raise ValueError(f"floor {value!r} is not in (0, 1)")
        elif key == "null":
            if value not in ("true", "false"):
                raise ValueError(f"null {value!r} is not true or false")
            use_null = value == "true"

    def add(cond, gen, prob):
        p = float(prob)
        if not 0.0 < p <= 1.0:
            raise ValueError(f"probability {prob!r} is not in (0, 1]")
        probs.setdefault(cond, {})[gen] = p
        vocab.add(gen)

    read_table(path, "\t", 3, header, add)
    return TranslationTable(probs, prob_floor, use_null, generated_vocab=vocab)
