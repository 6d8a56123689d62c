import math
import pathlib
import tempfile
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlex.galechurch import read_aligned_corpus
from dmlex.model1 import read_alignments
from dmlex.phrases import (
    PhraseCounts,
    PhraseIds,
    PhraseTable,
    PhraseTableEntry,
    count_phrase_pairs,
    score_counts,
    write_phrase_table,
)
from dmlex.pipeline import STAGES, run_pipeline, validate_config
from dmlex.significance import (
    ContingencyCounts,
    ContingencyTable,
    PruneConfig,
    PruneReport,
    _log_comb,
    contingency_counts,
    fisher_neg_log_p,
    prune,
    write_prune_report,
)

from helpers import (
    brute_force_contingency_counts,
    brute_force_phrase_instances,
    exact_fisher_neg_log_p,
    naive_phrase_counts,
    phrase_keys,
    write_synthetic_corpus,
)


def _build_table(corpus_pairs, alignments):
    return count_phrase_pairs(corpus_pairs, alignments, 7)


def _by_key(counts, contingency) -> dict:
    """entry key -> ContingencyTable of each entry."""
    return dict(zip(counts.entries, contingency.values()))


def _by_phrases(counts, contingency) -> dict:
    """(foreign, english) -> ContingencyTable of each entry."""
    return dict(zip(phrase_keys(counts).values(), contingency.values()))


def _grid_counts():
    """3,600 entries over 120 phrases: each of 60 foreign and 60 english words
    occurs in 60 one-word pairs, and each pair of them in one."""
    words = [(f"f{a}", f"e{b}") for a in range(60) for b in range(60)]
    return _build_table([([f], [e]) for f, e in words], [{(0, 0)}] * len(words))


def _as_counts(tables) -> ContingencyCounts:
    """The ContingencyCounts of a table per entry, given in entry order."""
    distinct = {}
    which = [distinct.setdefault(ct, len(distinct)) for ct in tables]
    return ContingencyCounts(list(distinct), which)


def _key(counts, foreign, english):
    """The entry key of (foreign, english), an entry of counts or not."""
    return counts.foreign.ids[foreign] << counts.shift | counts.english.ids[english]


def _sentence(vocab):
    # up to 9 tokens from a tiny vocabulary: tokens and phrases repeat within
    # a sentence, and many sentences are shorter than the longest phrase
    return st.lists(st.sampled_from(vocab), min_size=1, max_size=9)


@st.composite
def _aligned_corpus(draw, max_pairs=8):
    """Sentence pairs over tiny vocabularies, so phrases repeat within a pair and
    occur in several pairs, co-occurring in some of them; links are sparse, so
    edge words are often unaligned, and a pair's link set may be empty."""
    pairs = draw(st.lists(st.tuples(_sentence(["f0", "f1", "f2"]), _sentence(["e0", "e1"])),
                          min_size=1, max_size=max_pairs))
    alignments = [draw(st.sets(st.tuples(st.integers(0, len(f) - 1),
                                         st.integers(0, len(e) - 1)), max_size=5))
                  for f, e in pairs]
    return pairs, alignments


class TestContingencyCounts:
    @settings(max_examples=200, deadline=None)
    @given(_aligned_corpus(), st.integers(1, 7))
    def test_matches_brute_force_oracle(self, drawn, max_len):
        pairs, alignments = drawn
        table = count_phrase_pairs(pairs, alignments, max_len)
        counts = contingency_counts(table)
        keys = phrase_keys(table)
        oracle = brute_force_contingency_counts(keys.values(), pairs)
        by_key = _by_key(table, counts)
        assert {keys[key]: (ct.c_s, ct.c_t, ct.c_st, ct.n) for key, ct in by_key.items()} == oracle
        assert by_key == {key: ContingencyTable(*oracle[keys[key]]) for key in table.entries}

    def test_view_gives_each_entry_its_table_in_entry_order(self):
        pairs = [(["f0", "f1"], ["e0", "e1"]), (["f1"], ["e1"])]
        table = _build_table(pairs, [{(0, 0), (1, 1)}, {(0, 0)}])
        counts = contingency_counts(table)
        assert len(counts) == len(table.entries) == 3
        oracle = brute_force_contingency_counts(phrase_keys(table).values(), pairs)
        assert list(counts.values()) == [ContingencyTable(*cell) for cell in oracle.values()]
        assert len(set(counts.tables)) == len(counts.tables) == 2
        assert list(counts.which) == [0, 0, 1]  # (f1, e1) alone is (2, 2, 2)

    def test_view_holds_no_per_entry_map(self):
        """3,600 entries over 120 phrases: the view keeps each entry's place among
        the distinct tables, less than a pointer per entry, where a dict of the
        entries would hold several."""
        table = _grid_counts()
        assert len(table.entries) == 3600
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            counts = contingency_counts(table)
            built = tracemalloc.get_traced_memory()[0] - before
            assert set(counts.values()) == {ContingencyTable(60, 60, 1, 3600)}
            looked_up = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert max(built, looked_up) < 8 * len(table.entries)

    @pytest.mark.parametrize("key", [
        (("f9",), ("e0",)),  # the foreign phrase occurs nowhere
        (("f0", "f1"), ("e1",)),  # both phrases occur, never in the same pair
    ])
    def test_never_cooccurring_entry_raises(self, key):
        """Extraction gives no such entry; one put into hand-made counts fails the
        table's invariant, so the walk's shortcuts cannot hide it."""
        foreign = PhraseIds({("f0",): 0, ("f0", "f1"): 1, ("f9",): 2}, [[0, 2], [0, 2], []],
                            [1, 1, 1])
        english = PhraseIds({("e0",): 0, ("e1",): 1}, [0, [1, 3]], [1, 1])
        ids = (foreign.ids[key[0]], english.ids[key[1]])
        table = PhraseCounts({0 << 2 | 0: 0, ids[0] << 2 | ids[1]: 1}, 4, foreign, english,
                             [], 2, 2)
        with pytest.raises(ValueError, match="invalid contingency counts"):
            contingency_counts(table)

    def test_single_pair_corpus(self):
        pairs = [(["f0"], ["e0"])]
        table = _build_table(pairs, [{(0, 0)}])
        counts = contingency_counts(table)
        ct = _by_key(table, counts)[_key(table, ("f0",), ("e0",))]
        assert (ct.c_s, ct.c_t, ct.c_st, ct.n) == (1, 1, 1, 1)

    def test_multiplicity_counts_once_per_pair(self):
        pairs = [(["f0", "f0"], ["e0"]), (["f1"], ["e1"])]
        table = _build_table(pairs, [{(0, 0)}, {(0, 0)}])
        counts = contingency_counts(table)
        assert _by_key(table, counts)[_key(table, ("f0",), ("e0",))].c_s == 1

    def test_matches_naive_quadratic_scan(self):
        pairs = [
            (["f0", "f1"], ["e0", "e1"]),
            (["f0"], ["e0"]),
            (["f1", "f2"], ["e1", "e2"]),
            (["f0", "f2"], ["e0", "e2"]),
            (["f3"], ["e3"]),
        ]
        alignments = [
            {(0, 0), (1, 1)},
            {(0, 0)},
            {(0, 0), (1, 1)},
            {(0, 0), (1, 1)},
            {(0, 0)},
        ]
        table = _build_table(pairs, alignments)
        counts = contingency_counts(table)

        def contains(sentence, phrase):
            k = len(phrase)
            return any(
                tuple(sentence[i:i + k]) == phrase for i in range(len(sentence) - k + 1)
            )

        for (f, e), ct in _by_phrases(table, counts).items():
            c_s = sum(1 for src, _ in pairs if contains(src, f))
            c_t = sum(1 for _, tgt in pairs if contains(tgt, e))
            c_st = sum(1 for src, tgt in pairs if contains(src, f) and contains(tgt, e))
            assert (ct.c_s, ct.c_t, ct.c_st, ct.n) == (c_s, c_t, c_st, 5)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            ContingencyTable(c_s=1, c_t=1, c_st=2, n=10)
        with pytest.raises(ValueError):
            ContingencyTable(c_s=1, c_t=1, c_st=0, n=10)


class TestFisherNegLogP:
    def test_singleton_closed_form(self):
        ct = ContingencyTable(c_s=1, c_t=1, c_st=1, n=10000)
        assert fisher_neg_log_p(ct) == pytest.approx(math.log(10000), rel=1e-9)

    def test_certain_event(self):
        ct = ContingencyTable(c_s=7, c_t=7, c_st=7, n=7)
        assert fisher_neg_log_p(ct) == pytest.approx(0.0, abs=1e-9)

    def test_frozen_rational_oracle_value(self):
        # exact right tail for c_s=3, c_t=4, c_st=2, n=20 is 5/57
        ct = ContingencyTable(c_s=3, c_t=4, c_st=2, n=20)
        assert fisher_neg_log_p(ct) == pytest.approx(2.4336133554004498, rel=1e-9)
        assert exact_fisher_neg_log_p(3, 4, 2, 20) == pytest.approx(
            -math.log(5 / 57), rel=1e-12
        )

    def test_tail_is_summed_left_to_right(self):
        """The tail terms of (3, 3, 1, 7), scaled by their largest, add up to
        another float from left to right than compensated, as sum() adds them
        from Python 3.12 on; the score is the left-to-right one."""
        log_terms = [_log_comb(3, k) + _log_comb(4, 3 - k) - _log_comb(7, 3) for k in (1, 2, 3)]
        m = max(log_terms)
        terms = [math.exp(x - m) for x in log_terms]
        total = 0.0
        for x in terms:
            total += x
        assert total != math.fsum(terms)
        ct = ContingencyTable(c_s=3, c_t=3, c_st=1, n=7)
        assert fisher_neg_log_p(ct) == -(m + math.log(total)) == 0.1213608570042678

    def test_oracle_agreement_on_margin_lattice(self):
        for n in (1, 2, 3, 5, 10, 25, 60, 120, 200):
            margins = sorted({1, max(1, n // 4), max(1, n // 2), max(1, 3 * n // 4), n})
            for c_s in margins:
                for c_t in margins:
                    lo = max(1, c_s + c_t - n)
                    for c_st in range(lo, min(c_s, c_t) + 1):
                        ct = ContingencyTable(c_s=c_s, c_t=c_t, c_st=c_st, n=n)
                        expected = exact_fisher_neg_log_p(c_s, c_t, c_st, n)
                        got = fisher_neg_log_p(ct)
                        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12), ct

    def test_anti_monotone_in_joint_count(self):
        for c_s, c_t, n in ((10, 14, 50), (5, 5, 9), (30, 40, 200)):
            lo = max(1, c_s + c_t - n)
            values = [
                fisher_neg_log_p(ContingencyTable(c_s=c_s, c_t=c_t, c_st=k, n=n))
                for k in range(lo, min(c_s, c_t) + 1)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestThresholdFor:
    def test_alpha_is_log_n(self):
        """alpha is the computed score of a 1-1-1 entry, ln(n) up to lgamma's
        rounding, which reaches about 1e-12 of it at n = 10000."""
        threshold = PruneConfig("alpha").threshold(10000)
        assert threshold == fisher_neg_log_p(ContingencyTable(1, 1, 1, 10000))
        assert threshold == pytest.approx(math.log(10000), rel=1e-9)

    def test_alpha_prunes_a_1_1_1_entry_at_every_n(self):
        """A 1-1-1 entry scores exactly alpha, so `>` prunes it whatever the
        rounding; ln(n) as the threshold kept it at about half of these n."""
        key = 0
        for n in range(1, 3001):
            table = PhraseCounts({key: 0}, n, None, None, [], 1, 1)
            counts = ContingencyCounts([ContingencyTable(1, 1, 1, n)], [0])
            kept, report = prune(table, counts, PruneConfig("alpha"))
            assert (kept, report.pruned_count) == ([], 1), n

    def test_alpha_of_one(self):
        assert PruneConfig("alpha").threshold(1) == 0.0

    def test_custom_passthrough(self):
        assert PruneConfig("custom", 5.0).threshold(99) == 5.0

    def test_alpha_plus_epsilon_exceeds_alpha(self):
        n = 123
        assert PruneConfig().threshold(n) > PruneConfig("alpha").threshold(n)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_custom_threshold_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="custom_neg_log_p must be finite and >= 0"):
            PruneConfig(threshold_mode="custom", custom_neg_log_p=value)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match=r"unknown threshold mode: alpha\+e"):
            PruneConfig("alpha+e")


class TestPrune:
    def _table_and_pairs(self):
        # f0/e0 co-occur 4 times; f9/e9 is a 1-1-1 singleton
        pairs = [(["f0"], ["e0"])] * 4 + [(["f9"], ["e9"])] + [(["f1"], ["e1"])] * 3
        alignments = [{(0, 0)}] * len(pairs)
        table = _build_table(pairs, alignments)
        return table, pairs

    def test_alpha_plus_epsilon_kills_singletons(self):
        table, pairs = self._table_and_pairs()
        counts = contingency_counts(table)
        kept, report = prune(table, counts, PruneConfig())
        by_key = _by_key(table, counts)
        for key in kept:
            ct = by_key[key]
            assert (ct.c_s, ct.c_t, ct.c_st) != (1, 1, 1)
        assert report.pruned_count >= 1
        assert report.kept_count == len(kept)

    def test_zero_threshold_keeps_everything_significant(self):
        table, pairs = self._table_and_pairs()
        counts = contingency_counts(table)
        kept, _ = prune(
            table, counts, PruneConfig(threshold_mode="custom", custom_neg_log_p=0.0)
        )
        # every entry here has p < 1, hence -log p > 0
        assert set(kept) == set(table.entries)

    def test_threshold_monotonicity(self):
        table, pairs = self._table_and_pairs()
        counts = contingency_counts(table)
        sizes = []
        for threshold in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0]:
            kept, _ = prune(
                table, counts,
                PruneConfig(threshold_mode="custom", custom_neg_log_p=threshold),
            )
            sizes.append(len(kept))
        assert sizes == sorted(sizes, reverse=True)

    def test_survivors_unchanged(self):
        """The survivors are the table's own entry keys, in entry order."""
        table, pairs = self._table_and_pairs()
        counts = contingency_counts(table)
        kept, _ = prune(table, counts, PruneConfig())
        survivors = set(kept)
        assert kept == [key for key in table.entries if key in survivors] and survivors

    def test_report_file(self, tmp_path):
        table, pairs = self._table_and_pairs()
        counts = contingency_counts(table)
        _, report = prune(table, counts, PruneConfig())
        path = tmp_path / "report.tsv"
        write_prune_report(report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# threshold=")
        rows = [l.split("\t") for l in lines[1:]]
        assert len(rows) == len(set(counts.values()))
        assert all(fate in ("kept", "pruned") for *_, fate, _ in rows)
        assert sum(int(row[5]) for row in rows) == len(table.entries)
        assert sum(int(row[5]) for row in rows if row[4] == "kept") == report.kept_count

    def test_report_rows_are_distinct_tables_in_count_order(self, tmp_path):
        cts = [ContingencyTable(2, 3, 1, 9), ContingencyTable(1, 1, 1, 9)]
        report = PruneReport(threshold=1.0, scores={cts[0]: 1.5, cts[1]: 0.5},
                             entries={cts[0]: 2, cts[1]: 7}, kept_count=2, pruned_count=7)
        path = tmp_path / "report.tsv"
        write_prune_report(report, path)
        assert path.read_text(encoding="utf-8").splitlines() == [
            "# threshold=1", "1\t1\t1\t0.5\tpruned\t7", "2\t3\t1\t1.5\tkept\t2"]

    def test_equal_but_distinct_tables_give_the_same_report(self, tmp_path):
        pairs = ([(["f0"], ["e0"])] * 4 + [(["f9"], ["e9"]), (["f8"], ["e8"])]
                 + [(["f1"], ["e1"])] * 3 + [(["f2"], ["e2"])] * 3)
        table = _build_table(pairs, [{(0, 0)}] * len(pairs))
        shared = contingency_counts(table)
        assert len({id(ct) for ct in shared.values()}) == 3 < len(shared)
        distinct = ContingencyCounts([ContingencyTable(*ct) for ct in shared.tables],
                                     shared.which)
        assert not set(map(id, distinct.tables)) & set(map(id, shared.tables))
        outputs = []
        for counts in (shared, distinct):
            kept, report = prune(table, counts, PruneConfig())
            path = tmp_path / f"report-{len(outputs)}.tsv"
            write_prune_report(report, path)
            outputs.append((kept, report.scores, report.entries,
                            path.read_bytes()))
        assert outputs[0] == outputs[1]
        assert 0 < len(outputs[0][0]) < len(shared)


def _oracle_prune(pairs, alignments, max_len, config):
    """(kept, report, scored table) of the prune path by the oracles alone: naive
    counts over the brute-force instances, brute-force contingency counts, each
    table's own -log p, and relative frequencies over instance marginals."""
    naive = naive_phrase_counts(inst[4:] for (f, e), links in zip(pairs, alignments)
                                for inst in brute_force_phrase_instances(f, e, links, max_len))
    tables = {key: ContingencyTable(*cell)
              for key, cell in brute_force_contingency_counts(naive, pairs).items()}
    threshold = config.threshold(len(pairs))
    scores = {ct: fisher_neg_log_p(ct) for ct in tables.values()}
    kept = {key: naive[key] for key, ct in tables.items() if scores[ct] > threshold}
    marg_f, marg_e = Counter(), Counter()
    for (f, e), (joint, _) in naive.items():
        marg_f[f] += joint
        marg_e[e] += joint
    table = PhraseTable((PhraseTableEntry(f, e, joint / marg_e[e], joint / marg_f[f], align,
                                          float(joint))
                         for (f, e), (joint, align) in sorted(kept.items())), len(pairs))
    report = PruneReport(threshold, scores, Counter(tables.values()), len(kept),
                         len(naive) - len(kept))
    return kept, report, table


def _written(report, table, directory) -> tuple:
    write_prune_report(report, directory / "prune-report.tsv")
    write_phrase_table(table.entries, table.corpus_size,
                       directory / "phrase-table.pruned.txt")
    return ((directory / "prune-report.tsv").read_bytes(),
            (directory / "phrase-table.pruned.txt").read_bytes())


MODES = [PruneConfig("alpha"), PruneConfig("alpha_plus_epsilon"), PruneConfig("custom", 0.0),
         PruneConfig("custom", 1.0), PruneConfig("custom", 3.0)]


class TestPrunePathMatchesOracle:
    @pytest.mark.parametrize("config", MODES, ids=["alpha", "alpha_plus_epsilon", "custom-0",
                                                   "custom-1", "custom-3"])
    @settings(max_examples=120, deadline=None)
    @given(drawn=_aligned_corpus(max_pairs=6), max_len=st.integers(1, 4))
    def test_kept_entries_report_and_bytes(self, config, drawn, max_len):
        """Counting by phrase id, the walk's c_st shortcut, prune and survivor scoring
        give the kept entries, the report and the bytes of both files that the
        oracles give."""
        pairs, alignments = drawn
        counts = count_phrase_pairs(pairs, alignments, max_len)
        kept, report = prune(counts, contingency_counts(counts), config)
        table = PhraseTable(score_counts(counts, kept), counts.corpus_size)
        want_kept, want_report, want_table = _oracle_prune(pairs, alignments, max_len, config)
        assert {entry[:2]: (entry.joint_count, entry.most_frequent_internal_alignment)
                for entry in table.entries} == want_kept
        assert report == want_report
        with tempfile.TemporaryDirectory() as tmp:
            directory = pathlib.Path(tmp)
            assert (_written(report, table, directory)
                    == _written(want_report, want_table, directory))


class TestPruneOutputsMatchOracle:
    def test_pipeline_prune_outputs_equal_oracle_count_outputs(self, tmp_path):
        """The pipeline's pruned table and report are the bytes that prune and
        survivor scoring give on counts extracted from the pipeline's alignments
        and brute-force contingency counts, and every row's score is
        its own table's unmemoised -log p."""
        cfg = validate_config(write_synthetic_corpus(str(tmp_path / "run"), n_pairs=80))
        assert run_pipeline(cfg, stages=STAGES[:STAGES.index("prune") + 1]).ok
        pair_dir = tmp_path / "run" / "out" / "pairs" / "xx"
        pairs = read_aligned_corpus(pair_dir / "aligned.src", pair_dir / "aligned.tgt")
        alignments = read_alignments(pair_dir / "alignments.txt", pairs)
        pair_counts = count_phrase_pairs(pairs, alignments, cfg.max_phrase_len)
        keys = phrase_keys(pair_counts)
        oracle = brute_force_contingency_counts(keys.values(), pairs)
        counts = _as_counts(ContingencyTable(*oracle[phrases]) for phrases in keys.values())

        kept, report = prune(pair_counts, counts, cfg.prune_config)
        assert all(report.scores[ct] == fisher_neg_log_p(ct) for ct in counts.values())
        assert 0 < report.kept_count < len(pair_counts.entries)
        write_prune_report(report, tmp_path / "prune-report.tsv")
        write_phrase_table(score_counts(pair_counts, kept), pair_counts.corpus_size,
                           tmp_path / "phrase-table.pruned.txt")
        for name in ("prune-report.tsv", "phrase-table.pruned.txt"):
            assert (pair_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name


class TestSurvivorsAreStreamed:
    def test_writing_every_survivor_holds_no_table(self, tmp_path):
        """Writing the scored survivors holds their sort keys and one entry at a
        time: under 160 bytes per entry where all 3,600 survive. A PhraseTable of
        them, with its dicts, lists and entry records, held about 350."""
        counts = _grid_counts()
        kept, report = prune(counts, contingency_counts(counts), PruneConfig("custom", 0.0))
        assert report.kept_count == len(kept) == len(counts.entries) == 3600
        path = tmp_path / "phrase-table.pruned.txt"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_phrase_table(score_counts(counts, kept), counts.corpus_size, path)
            held = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3601
        assert held < 160 * len(kept)


class TestPruneHoldsKeysOnly:
    def test_keeping_every_entry_holds_a_key_list(self):
        """Under custom 0 all 3,600 entries survive, and prune holds their keys in
        one list: under 16 bytes per entry at its peak. A dict of the survivors'
        refs held more."""
        counts = _grid_counts()
        contingency = contingency_counts(counts)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept, report = prune(counts, contingency, PruneConfig("custom", 0.0))
            held = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert report.kept_count == len(kept) == 3600
        assert held < 16 * len(kept)


class TestPruneStageShape:
    """What a cold prune stage on the 80-pair corpus builds and calls."""

    def _run(self, tmp_path):
        cfg = validate_config(write_synthetic_corpus(str(tmp_path / "run"), n_pairs=80))
        report = run_pipeline(cfg, stages=STAGES[:STAGES.index("prune") + 1])
        assert report.ok
        stats = {r.stage: r.stats for r in report.results}
        return stats, tmp_path / "run" / "out" / "pairs" / "xx"

    def test_alignments_are_built_for_survivors_only(self, tmp_path, monkeypatch):
        """The alignment builder runs once per instance of a kept entry, the sum
        of the survivors' joint counts, and never for a pruned entry."""
        from dmlex import phrases

        calls = []
        real = phrases._internal_alignment
        monkeypatch.setattr(phrases, "_internal_alignment",
                            lambda *args: calls.append(args) or real(*args))
        stats, pair_dir = self._run(tmp_path)
        table = phrases.read_phrase_table(pair_dir / "phrase-table.pruned.txt")
        assert len(calls) == sum(entry.joint_count for entry in table.entries)
        assert 0 < len(calls) < stats["prune"]["instances"]

    def test_traced_functions_stay_on_the_path(self, tmp_path, monkeypatch):
        """extract_phrase_pairs runs once per sentence pair, contingency_counts and
        prune once, and their results hold the stage's instances, entries_in and
        entries_kept."""
        from dmlex import phrases, significance

        seen = {"pairs": 0, "instances": 0, "entries_in": [], "entries_kept": []}
        real = phrases.extract_phrase_pairs, significance.contingency_counts, significance.prune

        def extract(*args):
            spans = real[0](*args)
            seen["pairs"] += 1
            seen["instances"] += len(spans)
            return spans

        def counts(*args):
            result = real[1](*args)
            seen["entries_in"].append(len(result))
            return result

        def pruned(*args):
            result = real[2](*args)
            seen["entries_kept"].append(result[1].kept_count)
            return result

        monkeypatch.setattr(phrases, "extract_phrase_pairs", extract)
        monkeypatch.setattr(significance, "contingency_counts", counts)
        monkeypatch.setattr(significance, "prune", pruned)
        stats, _ = self._run(tmp_path)
        assert seen == {"pairs": stats["wordalign"]["sentence_pairs"],
                        "instances": stats["prune"]["instances"],
                        "entries_in": [stats["prune"]["entries_in"]],
                        "entries_kept": [stats["prune"]["entries_kept"]]}
        assert 0 < stats["prune"]["entries_kept"] < stats["prune"]["entries_in"]


class TestAlphaRun:
    def test_alpha_prunes_every_1_1_1_entry_of_a_48_pair_run(self, tmp_path):
        """At 48 pairs the computed 1-1-1 score exceeds ln(48), so a threshold of
        ln(n) kept every 1-1-1 entry."""
        cfg = validate_config(write_synthetic_corpus(str(tmp_path), n_pairs=48),
                              {"prune.mode": "alpha"})
        report = run_pipeline(cfg, stages=STAGES[:STAGES.index("prune") + 1])
        stats = report.results[-1].stats
        assert stats["threshold"] == fisher_neg_log_p(ContingencyTable(1, 1, 1, 48))
        assert stats["threshold"] > math.log(48)
        lines = (tmp_path / "out" / "pairs" / "xx" / "prune-report.tsv").read_text("utf-8")
        rows = [line.split("\t") for line in lines.splitlines()[1:]]
        assert [row[4:] for row in rows if row[:3] == ["1", "1", "1"]] == [
            ["pruned", str(stats["entries_1_1_1"])]]
        assert stats["entries_1_1_1"] > 0
