import math
import tracemalloc
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlex.galechurch import read_aligned_corpus
from dmlex.model1 import read_alignments
from dmlex.phrases import (
    PhraseCounts,
    count_phrase_pairs,
    extract_phrase_pairs,
    score_counts,
    write_phrase_table,
)
from dmlex.pipeline import STAGES, run_pipeline, validate_config
from dmlex.significance import (
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
    exact_fisher_neg_log_p,
    write_synthetic_corpus,
)


def _build_table(corpus_pairs, alignments):
    instances = []
    for (f, e), links in zip(corpus_pairs, alignments):
        instances.extend(extract_phrase_pairs(f, e, links, 7))
    return count_phrase_pairs(instances, len(corpus_pairs))


def _table_of(keys, corpus_size):
    """Phrase counts holding just these (foreign, english) keys."""
    return PhraseCounts({key: (1, frozenset()) for key in keys}, corpus_size)


def _sentence(vocab):
    # up to 9 tokens from a tiny vocabulary: tokens and phrases repeat within
    # a sentence, and many sentences are shorter than the longest phrase
    return st.lists(st.sampled_from(vocab), max_size=9)


@st.composite
def _corpus_and_keys(draw):
    pairs = draw(st.lists(st.tuples(_sentence(["f0", "f1", "f2"]), _sentence(["e0", "e1"])),
                          min_size=1, max_size=8))

    def phrase(side, vocab):
        # a slice of a corpus sentence (so it occurs) or free tokens (so it may not)
        sent = pairs[draw(st.integers(0, len(pairs) - 1))][side]
        if sent and draw(st.booleans()):
            start = draw(st.integers(0, len(sent) - 1))
            return tuple(sent[start:start + draw(st.integers(1, min(7, len(sent) - start)))])
        return tuple(draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=7)))

    n_keys = draw(st.integers(1, 12))
    keys = {(phrase(0, ["f0", "f1", "f2", "f9"]), phrase(1, ["e0", "e1", "e9"]))
            for _ in range(n_keys)}
    return pairs, sorted(keys)


class TestContingencyCounts:
    @settings(max_examples=200, deadline=None)
    @given(_corpus_and_keys())
    def test_matches_brute_force_oracle(self, drawn):
        pairs, keys = drawn
        oracle = brute_force_contingency_counts(_table_of(keys, len(pairs)), pairs)
        occurring = [key for key in keys if oracle[key][2] > 0]
        if len(occurring) < len(keys):
            with pytest.raises(RuntimeError, match="never co-occurs"):
                contingency_counts(_table_of(keys, len(pairs)), pairs)
        counts = contingency_counts(_table_of(occurring, len(pairs)), pairs)
        assert {key: (ct.c_s, ct.c_t, ct.c_st, ct.n) for key, ct in counts.items()} == {
            key: oracle[key] for key in occurring
        }
        assert counts == {key: ContingencyTable(*oracle[key]) for key in occurring}

    def test_view_is_a_read_only_mapping_of_the_entries(self):
        pairs = [(["f0", "f1"], ["e0"]), (["f1"], ["e1"])]
        table = _table_of([(("f0",), ("e0",)), (("f1",), ("e0",)), (("f1",), ("e1",))], 2)
        counts = contingency_counts(table, pairs)
        assert isinstance(counts, Mapping) and not hasattr(counts, "__setitem__")
        assert list(counts) == list(table.entries) and len(counts) == 3
        assert counts[("f1",), ("e1",)] == ContingencyTable(2, 1, 1, 2)
        assert (("f0",), ("e1",)) not in counts  # co-occurs, but is no entry
        with pytest.raises(KeyError):
            counts[("f0",), ("e1",)]

    def test_view_holds_no_per_entry_map(self):
        """3,600 entries over 120 phrases: the view keeps the phrases' postings
        and the one table they share, less than a pointer per entry, where a
        dict of the entries would hold several."""
        foreign = [f"f{k}" for k in range(60)]
        english = [f"e{k}" for k in range(60)]
        pairs = [(foreign, english)]
        table = _table_of([((f,), (e,)) for f in foreign for e in english], 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            counts = contingency_counts(table, pairs)
            built = tracemalloc.get_traced_memory()[0] - before
            assert len(set(counts.values())) == 1
            looked_up = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert max(built, looked_up) < 8 * len(table.entries)

    @pytest.mark.parametrize("key", [
        (("f9",), ("e0",)),  # the foreign phrase occurs nowhere
        (("f0", "f1"), ("e1",)),  # both phrases occur, never in the same pair
    ])
    def test_never_cooccurring_entry_raises(self, key):
        pairs = [(["f0", "f1", "f0"], ["e0"]), (["f1"], ["e1"])]
        table = _table_of([(("f0",), ("e0",)), key], len(pairs))
        with pytest.raises(RuntimeError, match="never co-occurs"):
            contingency_counts(table, pairs)

    def test_single_pair_corpus(self):
        pairs = [(["f0"], ["e0"])]
        table = _build_table(pairs, [{(0, 0)}])
        counts = contingency_counts(table, pairs)
        ct = counts[(("f0",), ("e0",))]
        assert (ct.c_s, ct.c_t, ct.c_st, ct.n) == (1, 1, 1, 1)

    def test_multiplicity_counts_once_per_pair(self):
        pairs = [(["f0", "f0"], ["e0"]), (["f1"], ["e1"])]
        table = _build_table(pairs, [{(0, 0)}, {(0, 0)}])
        counts = contingency_counts(table, pairs)
        assert counts[(("f0",), ("e0",))].c_s == 1

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
        counts = contingency_counts(table, pairs)

        def contains(sentence, phrase):
            k = len(phrase)
            return any(
                tuple(sentence[i:i + k]) == phrase for i in range(len(sentence) - k + 1)
            )

        for (f, e), ct in counts.items():
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
        key = (("f",), ("e",))
        for n in range(1, 3001):
            table = PhraseCounts({key: (1, frozenset())}, n)
            kept, report = prune(table, {key: ContingencyTable(1, 1, 1, n)}, PruneConfig("alpha"))
            assert (kept.entries, report.pruned_count) == ({}, 1), n

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
        counts = contingency_counts(table, pairs)
        kept, report = prune(table, counts, PruneConfig())
        for key, entry in kept.entries.items():
            ct = counts[key]
            assert (ct.c_s, ct.c_t, ct.c_st) != (1, 1, 1)
        assert report.pruned_count >= 1
        assert report.kept_count == len(kept.entries)

    def test_zero_threshold_keeps_everything_significant(self):
        table, pairs = self._table_and_pairs()
        counts = contingency_counts(table, pairs)
        kept, _ = prune(
            table, counts, PruneConfig(threshold_mode="custom", custom_neg_log_p=0.0)
        )
        # every entry here has p < 1, hence -log p > 0
        assert set(kept.entries) == set(table.entries)

    def test_threshold_monotonicity(self):
        table, pairs = self._table_and_pairs()
        counts = contingency_counts(table, pairs)
        sizes = []
        for threshold in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0]:
            kept, _ = prune(
                table, counts,
                PruneConfig(threshold_mode="custom", custom_neg_log_p=threshold),
            )
            sizes.append(len(kept.entries))
        assert sizes == sorted(sizes, reverse=True)

    def test_survivors_unchanged(self):
        table, pairs = self._table_and_pairs()
        counts = contingency_counts(table, pairs)
        kept, _ = prune(table, counts, PruneConfig())
        for key, entry in kept.entries.items():
            assert entry is table.entries[key]

    def test_report_file(self, tmp_path):
        table, pairs = self._table_and_pairs()
        counts = contingency_counts(table, pairs)
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
        shared = contingency_counts(table, pairs)
        assert len({id(ct) for ct in shared.values()}) == 3 < len(shared)
        distinct = {key: ContingencyTable(ct.c_s, ct.c_t, ct.c_st, ct.n)
                    for key, ct in shared.items()}
        outputs = []
        for counts in (shared, distinct):
            kept, report = prune(table, counts, PruneConfig())
            path = tmp_path / f"report-{len(outputs)}.tsv"
            write_prune_report(report, path)
            outputs.append((set(kept.entries), report.scores, report.entries,
                            path.read_bytes()))
        assert outputs[0] == outputs[1]
        assert 0 < len(outputs[0][0]) < len(shared)


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
        pair_counts = count_phrase_pairs(
            [inst for (f, e), links in zip(pairs, alignments)
             for inst in extract_phrase_pairs(f, e, links, cfg.max_phrase_len)], len(pairs))
        oracle = brute_force_contingency_counts(pair_counts, pairs)
        counts = {key: ContingencyTable(*cell) for key, cell in oracle.items()}

        kept, report = prune(pair_counts, counts, cfg.prune_config)
        assert all(report.scores[ct] == fisher_neg_log_p(ct) for ct in counts.values())
        assert 0 < report.kept_count < len(pair_counts.entries)
        table = score_counts(pair_counts, kept.entries)
        write_prune_report(report, tmp_path / "prune-report.tsv")
        write_phrase_table(table, tmp_path / "phrase-table.pruned.txt")
        for name in ("prune-report.tsv", "phrase-table.pruned.txt"):
            assert (pair_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name


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
