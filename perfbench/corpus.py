"""Deterministic Europarl-format corpora with planted marker translations.

Everything here is a pure function of the seed and the size arguments: the
same seed writes byte-identical files. The English side of each file is
shared by every foreign language, as in Europarl, where `corpus_root/en/F`
is paired with `corpus_root/<lang>/F`.

Which word ranks share an English sentence, and each sentence's length,
depend only on the size. The seed spells the words, lays out the
paragraphs, places the planted markers and draws the foreign side's
reordering and splits. The number of phrase pairs, and so most of a cold
run's work, follows from how well the words of each sentence align, which
follows from which words share it; with that fixed, corpora of one size
carry close to the same amount of work.

Shape of the text:
- word frequencies follow Zipf's law over a synthetic vocabulary, and
  frequent words are short, so sentence character lengths vary the way
  Gale-Church expects;
- sentences have about 22 tokens, counting punctuation;
- each foreign word form translates one English word form, and the foreign
  side swaps adjacent words now and then (local reordering);
- planted markers open a sentence (`However , ...`), and the foreign side
  opens with the planted translation (`Xuvanon , ...`);
- the foreign side splits or merges a few sentences, so that 1-2 and 2-1
  beads occur, and optionally splits or merges a paragraph, so that
  paragraph counts differ and `pair_documents` collapses the file into one
  paragraph.
"""

import os
import random
from dataclasses import dataclass
from statistics import NormalDist

# Markers from the shipped seed list that get a planted translation, one- and
# two-word ones. Each is planted `marker_reps` times per language with its
# main translation. With `alternatives`, a marker in WITH_ALTERNATIVE is
# instead planted ALT_MAIN_REPS times with its main translation and ALT_REPS
# times with an alternative one, which gives the lexicon filters something
# to decide: a joint-count floor of 3 drops the alternatives, while every
# main translation keeps a count of 3 or more even with one misaligned
# sentence (given marker_reps >= 4).
PLANTED = ["however", "therefore", "in short", "above all", "finally", "because"]
WITH_ALTERNATIVE = {"however", "finally"}
ALT_MAIN_REPS = 5
ALT_REPS = 2

VOCAB = 4000
ZIPF_S = 1.05
MEAN_TOKENS = 22
PARAGRAPH_SENTENCES = (2, 6)  # inclusive range of sentences per <P>
SPLIT_MERGE_RATE = 0.03  # share of foreign sentences split in two or merged

_EN_SYLLABLES = [c + v for c in "bdfgklmnprst" for v in "aeiou"]
_FX_SYLLABLES = [c + v for c in "bcdghjlmnqrvxz" for v in "aeiouy"]


@dataclass(frozen=True)
class CorpusSpec:
    languages: tuple  # foreign language codes
    files: int
    sentences_per_file: int
    marker_reps: int = 0  # main-translation sentences per marker; 0 plants none
    alternatives: bool = False  # also plant the WITH_ALTERNATIVE translations
    collapse: bool = False  # foreign paragraph counts differ from English


def _word_forms(rng, syllables, count, taken):
    """`count` distinct lowercase words; earlier (more frequent) ones shorter."""
    words = []
    while len(words) < count:
        rank = len(words)
        n_syll = 1 + min(3, int(rank ** 0.25 * rng.uniform(0.5, 1.0)))
        word = "".join(rng.choice(syllables) for _ in range(n_syll))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _zipf_tokens(total, vocab, s):
    """Word ranks with exactly Zipfian counts summing to `total`, rounded by
    largest remainder."""
    weights = [1.0 / r ** s for r in range(1, vocab + 1)]
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(vocab), key=lambda r: counts[r] - weights[r] * scale)
    for r in by_remainder[:total - sum(counts)]:
        counts[r] += 1
    return [r for r, c in enumerate(counts) for _ in range(c)]


def _sentence_lengths(n, mean, sd):
    """n sentence lengths at the quantiles of a clipped normal distribution."""
    dist = NormalDist(mean, sd)
    return [max(6, min(40, round(dist.inv_cdf((k + 0.5) / n)))) for k in range(n)]


def _reorder(words, rng, rate=0.15):
    """Swap non-overlapping adjacent word pairs with probability `rate`."""
    out = list(words)
    k = 0
    while k < len(out) - 1:
        if rng.random() < rate:
            out[k], out[k + 1] = out[k + 1], out[k]
            k += 2
        else:
            k += 1
    return out


def _render(words, lead=None):
    """Capitalized sentence with an optional `Lead ,` opener and a comma."""
    body = list(words)
    if len(body) > 8:
        body.insert(len(body) // 2, ",")
    if lead is not None:
        body = lead.split() + [","] + body
    text = " ".join(body) + " ."
    return text[0].upper() + text[1:]


def planted_translations(seed, languages, alternatives):
    """{language: {marker: [main translation, alternative...]}} for the seed."""
    rng = random.Random(f"markers:{seed}")
    taken = set()
    out = {}
    for lang in languages:
        table = {}
        for marker in PLANTED:
            variants = []
            for _ in range(2 if alternatives and marker in WITH_ALTERNATIVE else 1):
                words = ["".join(rng.choice(_FX_SYLLABLES) for _ in range(3)) + "n"
                         for _ in marker.split()]
                while " ".join(words) in taken:
                    words[-1] += "n"
                taken.add(" ".join(words))
                variants.append(" ".join(words))
            table[marker] = variants
        out[lang] = table
    return out


def write_corpus(root, spec: CorpusSpec, seed: int, reserved=()) -> dict:
    """Write `root/<lang>/ep-NN.txt` for English and every foreign language.

    No generated word form is in `reserved` (pass the seed-marker words, so
    that only planted sentences contain a marker).

    Returns the planted translations, {lang: {marker: [main, alternative...]}}.
    """
    rng = random.Random(f"corpus:{seed}")
    taken = set(reserved) | {w for m in PLANTED for w in m.split()}
    en_words = _word_forms(rng, _EN_SYLLABLES, VOCAB, taken)
    planted = (planted_translations(seed, spec.languages, spec.alternatives)
               if spec.marker_reps else {})
    lexicons = {}
    for lang in spec.languages:
        fx_words = _word_forms(rng, _FX_SYLLABLES, VOCAB, taken)
        lexicons[lang] = dict(zip(en_words, fx_words))

    n_total = spec.files * spec.sentences_per_file
    # sentence index -> (planted marker, translation variant), spread over
    # the whole corpus
    plants = []
    if spec.marker_reps:
        for marker in PLANTED:
            if len(planted[spec.languages[0]][marker]) > 1:
                plants += [(marker, 0)] * ALT_MAIN_REPS + [(marker, 1)] * ALT_REPS
            else:
                plants += [(marker, 0)] * spec.marker_reps
    leads = dict(zip(rng.sample(range(n_total), len(plants)), plants))

    # two tokens of each sentence are the comma and the full stop; the
    # sentences' lengths and word ranks do not depend on the seed
    structure = random.Random(f"structure:{n_total}")
    lengths = _sentence_lengths(n_total, MEAN_TOKENS - 2, 5)
    structure.shuffle(lengths)
    ranks = _zipf_tokens(sum(lengths), VOCAB, ZIPF_S)
    structure.shuffle(ranks)
    english_files = []  # per file: list of paragraphs; paragraph = [(index, words)]
    idx = start = 0
    for _ in range(spec.files):
        paragraphs = []
        left = spec.sentences_per_file
        while left:
            size = min(left, rng.randint(*PARAGRAPH_SENTENCES))
            para = []
            for _ in range(size):
                words = [en_words[r] for r in ranks[start:start + lengths[idx]]]
                para.append((idx, words))
                start += lengths[idx]
                idx += 1
            paragraphs.append(para)
            left -= size
        english_files.append(paragraphs)

    for lang_dir in ["en", *spec.languages]:
        os.makedirs(os.path.join(root, lang_dir), exist_ok=True)

    for f_idx, paragraphs in enumerate(english_files):
        name = f"ep-{f_idx:02d}.txt"
        en_paras = [[_render(words, leads[i][0] if i in leads else None) for i, words in para]
                    for para in paragraphs]
        _write_file(os.path.join(root, "en", name), en_paras, f_idx)
        for lang in spec.languages:
            lrng = random.Random(f"foreign:{seed}:{lang}:{f_idx}")
            lex = lexicons[lang]
            fx_paras = []
            for para in paragraphs:
                lines = []
                k = 0
                while k < len(para):
                    i, words = para[k]
                    lead = leads.get(i)
                    fx = _reorder([lex[w] for w in words], lrng)
                    lead_fx = planted[lang][lead[0]][lead[1]] if lead else None
                    roll = lrng.random()
                    if lead is None and roll < SPLIT_MERGE_RATE / 2 and len(fx) >= 12:
                        cut = len(fx) // 2  # one English sentence, two foreign lines
                        lines += [_render(fx[:cut]), _render(fx[cut:])]
                    elif (lead is None and roll < SPLIT_MERGE_RATE and k + 1 < len(para)
                          and leads.get(para[k + 1][0]) is None):
                        nxt = _reorder([lex[w] for w in para[k + 1][1]], lrng)
                        lines.append(_render(fx + nxt))  # two English sentences, one line
                        k += 1
                    else:
                        lines.append(_render(fx, lead_fx))
                    k += 1
                fx_paras.append(lines)
            if spec.collapse:
                fx_paras = _change_paragraph_count(fx_paras, lrng)
            _write_file(os.path.join(root, lang, name), fx_paras, f_idx)
    return planted


def _change_paragraph_count(paras, rng):
    """Merge one adjacent paragraph pair, or split one paragraph, so the
    foreign file has a different paragraph count from the English one."""
    splittable = [k for k, p in enumerate(paras) if len(p) >= 2]
    if len(paras) >= 2 and (rng.random() < 0.5 or not splittable):
        k = rng.randrange(len(paras) - 1)
        return paras[:k] + [paras[k] + paras[k + 1]] + paras[k + 2:]
    k = rng.choice(splittable)
    cut = len(paras[k]) // 2
    return paras[:k] + [paras[k][:cut], paras[k][cut:]] + paras[k + 1:]


def _write_file(path, paragraphs, f_idx):
    out = [f'<CHAPTER ID="{f_idx + 1}">']
    for p_idx, para in enumerate(paragraphs):
        if p_idx % 3 == 0:
            out.append(f'<SPEAKER ID="{p_idx // 3 + 1}" NAME="Speaker {p_idx // 3 + 1}">')
        out.append("<P>")
        out.extend(para)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
