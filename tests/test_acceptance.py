"""Acceptance suite: one test per shipping criterion.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s); the
pytest verdict carries the same information when output is captured.
"""

import itertools
import math
import os
import pathlib
import random
import time
from contextlib import contextmanager

from dmlex.galechurch import SHAPE_NAMES, align_paragraph, length_cost
from dmlex.lexicon import english_index, select_candidates
from dmlex.model1 import train_model1
from dmlex.phrases import PhraseTable, PhraseTableEntry, count_phrase_pairs, extract_phrase_pairs
from dmlex.pipeline import run_pipeline, validate_config
from dmlex.significance import (
    ContingencyTable,
    PruneConfig,
    contingency_counts,
    fisher_neg_log_p,
    prune,
)

from helpers import (
    PLANTED_MARKERS,
    brute_force_phrase_instances,
    exact_fisher_neg_log_p,
    fast_brute_force_align,
    reference_marker_match,
    write_synthetic_corpus,
)


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def _read_lexicon_tsv(path):
    """marker -> list of (translation, score) rows in file order."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        for line in fh:
            rec = dict(zip(header, line.rstrip("\n").split("\t")))
            rows.setdefault(rec["marker"], []).append(
                (rec["translation"], float(rec["score"]))
            )
    return rows


def test_c01_published_scale_out_of_scope_is_documented():
    # The published candidate counts (846/861/906/1293 per language) need the
    # full 21-language Europarl release and the original alignment toolchain;
    # this repo substitutes the property-based criteria below and must say so.
    with verdict("C01 published-scale counts documented as out of scope"):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        text = pathlib.Path(readme).read_text(encoding="utf-8").lower()
        assert "not" in text and "reproduc" in text
        assert "property" in text


def test_c02_end_to_end_synthetic_recovery(tmp_path):
    with verdict("C02 end-to-end synthetic recovery: >= 9/10 planted markers top-1, < 60 s"):
        config_path = write_synthetic_corpus(str(tmp_path), n_pairs=320)
        assert 320 >= 300
        cfg = validate_config(config_path)
        start = time.monotonic()
        report = run_pipeline(cfg)
        elapsed = time.monotonic() - start
        assert report.ok
        rows = _read_lexicon_tsv(os.path.join(tmp_path, "out", "lexicon.tsv"))
        hits = 0
        for marker, translations in PLANTED_MARKERS:
            ranked = rows.get(marker, [])
            if ranked and ranked[0][0] in translations:
                hits += 1
        assert hits >= 9, f"only {hits}/10 markers recovered top-1"
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f} s"


def test_c03_sentence_aligner_matches_exhaustive_enumeration():
    with verdict("C03 sentence aligner: DP == exhaustive enumeration on 500 paragraphs, < 30 s"):
        rng = random.Random(20240815)
        start = time.monotonic()
        for _ in range(500):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            src = [["x" * rng.randint(3, 60)] for _ in range(m)]
            tgt = [["x" * rng.randint(3, 60)] for _ in range(n)]
            expected_cost, expected_tiling = fast_brute_force_align(
                src, tgt, length_cost
            )
            beads = align_paragraph(src, tgt)
            got_cost = 0.0
            for bead in beads:
                got_cost += bead.cost
            assert got_cost == expected_cost
            assert [
                (SHAPE_NAMES[shape], ss, ts) for shape, ss, ts in expected_tiling
            ] == [(b.shape, b.src_span, b.tgt_span) for b in beads]
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f} s"


def test_c04_em_properties():
    with verdict("C04 EM: monotone log-likelihood, normalized tables, toy t(la|the) >= 0.999"):
        toy = [(["the", "house"], ["la", "maison"]), (["the"], ["la"])]
        rng = random.Random(99)
        fuzz = [
            (
                [f"c{rng.randrange(8)}" for _ in range(rng.randint(1, 6))],
                [f"g{rng.randrange(8)}" for _ in range(rng.randint(1, 6))],
            )
            for _ in range(25)
        ]
        corpora = [toy, fuzz]
        for corpus in corpora:
            for use_null in (False, True):
                table = train_model1(corpus, iterations=12, use_null=use_null)
                lls = table.log_likelihoods
                assert all(b >= a - 1e-12 for a, b in zip(lls, lls[1:]))
                for cond, dist in table.probs.items():
                    assert abs(sum(dist.values()) - 1.0) <= 1e-9, cond
        toy_table = train_model1(toy, iterations=30, use_null=False)
        assert toy_table.probs["the"]["la"] >= 0.999


def test_c05_phrase_extraction_matches_brute_force():
    with verdict("C05 phrase extraction == brute-force consistency enumeration, 1000 pairs"):
        rng = random.Random(424242)
        for _ in range(1000):
            n_src = rng.randint(1, 10)
            n_tgt = rng.randint(1, 10)
            src = [f"f{k}" for k in range(n_src)]
            tgt = [f"e{k}" for k in range(n_tgt)]
            n_links = rng.randint(0, min(n_src, n_tgt) + 3)
            links = {
                (rng.randrange(n_src), rng.randrange(n_tgt)) for _ in range(n_links)
            }
            max_len = rng.choice([2, 3, 7, 10])
            got = extract_phrase_pairs(src, tgt, links, max_len)
            assert sorted(got) == sorted(
                inst[:4] for inst in brute_force_phrase_instances(src, tgt, links, max_len))


def test_c06_fisher_matches_exact_rational_oracle():
    with verdict("C06 Fisher -log p == exact rational oracle (n <= 200), 1-1-1 == ln n"):
        checked = 0
        for n in (1, 2, 3, 4, 5, 8, 13, 21, 34, 55, 89, 144, 200):
            margins = sorted(
                {1, max(1, n // 4), max(1, n // 2), max(1, (3 * n) // 4), n}
            )
            for c_s in margins:
                for c_t in margins:
                    lo = max(1, c_s + c_t - n)
                    for c_st in range(lo, min(c_s, c_t) + 1):
                        ct = ContingencyTable(c_s=c_s, c_t=c_t, c_st=c_st, n=n)
                        expected = exact_fisher_neg_log_p(c_s, c_t, c_st, n)
                        got = fisher_neg_log_p(ct)
                        assert math.isclose(
                            got, expected, rel_tol=1e-9, abs_tol=1e-12
                        ), ct
                        checked += 1
        assert checked > 1000
        for n in (2, 10, 100, 200, 5000):
            got = fisher_neg_log_p(ContingencyTable(c_s=1, c_t=1, c_st=1, n=n))
            assert math.isclose(got, math.log(n), rel_tol=1e-9, abs_tol=1e-12)


def _random_phrase_counts(rng, n_pairs):
    pairs = []
    alignments = []
    for _ in range(n_pairs):
        length = rng.randint(1, 4)
        idxs = [rng.randrange(12) for _ in range(length)]
        pairs.append(([f"f{k}" for k in idxs], [f"e{k}" for k in idxs]))
        alignments.append({(i, i) for i in range(length)})
    # one guaranteed singleton pair
    pairs.append((["fsingle"], ["esingle"]))
    alignments.append({(0, 0)})
    return count_phrase_pairs(pairs, alignments, 7), pairs


def test_c07_pruning_contract():
    with verdict("C07 pruning: alpha+epsilon removes every 1-1-1 entry; threshold monotone"):
        rng = random.Random(31337)
        for trial in range(6):
            table, pairs = _random_phrase_counts(rng, n_pairs=rng.randint(5, 40))
            counts = contingency_counts(table)
            kept, report = prune(table, counts, PruneConfig())
            by_key = dict(zip(table.entries, counts.values()))
            for key in kept:
                ct = by_key[key]
                assert (ct.c_s, ct.c_t, ct.c_st) != (1, 1, 1), key
            assert report.kept_count + report.pruned_count == len(table.entries)

        table, pairs = _random_phrase_counts(rng, n_pairs=30)
        counts = contingency_counts(table)
        thresholds = sorted(rng.uniform(0.0, 8.0) for _ in range(20))
        sizes = [
            len(
                prune(
                    table,
                    counts,
                    PruneConfig(threshold_mode="custom", custom_neg_log_p=t),
                )[0]
            )
            for t in thresholds
        ]
        assert sizes == sorted(sizes, reverse=True)


def test_c08_selection_contract():
    with verdict("C08 selection: four-pattern punctuation rule == reference matcher, exhaustive"):
        vocab = ["aa", "bb", ",", "."]
        punct = {",", "."}
        sides = []
        for length in range(1, 5):
            sides.extend(itertools.product(vocab, repeat=length))
        entries = []
        for side in sides:
            alignment = frozenset((0, j) for j in range(len(side)))
            entries.append(
                PhraseTableEntry(
                    foreign_phrase=("ff",),
                    english_phrase=tuple(side),
                    inv_phrase_prob=0.5,
                    dir_phrase_prob=0.5,
                    most_frequent_internal_alignment=alignment,
                    joint_count=3.0,
                )
            )
        index = english_index(PhraseTable(entries, corpus_size=100))
        for marker in [("aa",), ("bb",), ("aa", "bb"), ("bb", "aa", "bb")]:
            got = {
                tuple(c.raw_entry.english_phrase): c.context
                for c in select_candidates(index, marker)
            }
            expected = {}
            for side in sides:
                ctx = reference_marker_match(side, marker, punct)
                if ctx is not None:
                    expected[side] = ctx
            assert got == expected, marker


def test_c09_exemplar_translations_recovered(tmp_path):
    with verdict("C09 mini-corpus yields 'above all'->'sobretudo' and 'since'->'pois'"):
        markers = [("above all", ["sobretudo"]), ("since", ["pois"])]
        config_path = write_synthetic_corpus(str(tmp_path), n_pairs=64, markers=markers)
        report = run_pipeline(validate_config(config_path))
        assert report.ok
        rows = _read_lexicon_tsv(os.path.join(tmp_path, "out", "lexicon.tsv"))
        assert any(t == "sobretudo" for t, _ in rows.get("above all", []))
        assert any(t == "pois" for t, _ in rows.get("since", []))


def test_c10_determinism_across_clean_runs(tmp_path):
    with verdict("C10 two clean-cache runs byte-identical at every stage"):
        config_path = write_synthetic_corpus(str(tmp_path), n_pairs=120,
                                             markers=PLANTED_MARKERS[:4])

        def run_into(out_dir):
            cfg = validate_config(config_path, {"output": out_dir})
            report = run_pipeline(cfg)
            assert report.ok
            blobs = {}
            # report files carry wall-clock timings; the cache manifest carries
            # absolute paths; everything else must match byte for byte
            skip = {"report.txt", "report.json", ".cache.json"}
            for dirpath, _, filenames in os.walk(out_dir):
                for name in filenames:
                    if name in skip:
                        continue
                    path = os.path.join(dirpath, name)
                    blobs[os.path.relpath(path, out_dir)] = pathlib.Path(path).read_bytes()
            return blobs

        first = run_into(str(tmp_path / "out1"))
        second = run_into(str(tmp_path / "out2"))
        assert set(first) == set(second)
        assert any(name.endswith("phrase-table.pruned.txt") for name in first)
        assert any(name.endswith("lexicon.tsv") for name in first)
        for name in first:
            assert first[name] == second[name], name
