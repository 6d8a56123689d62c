import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlex.galechurch import read_aligned_corpus
from dmlex.phrases import (
    PhraseCounts,
    count_phrase_pairs,
    extract_phrase_pairs,
    read_phrase_counts,
    score_counts,
    write_phrase_table,
)
from dmlex.pipeline import STAGES, run_pipeline, validate_config
from dmlex.significance import (
    ContingencyTable,
    PruneConfig,
    PruneReport,
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
        assert PruneConfig("alpha").threshold(10000) == pytest.approx(math.log(10000), rel=1e-12)

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
        write_prune_report(report, counts, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# threshold=")
        body = [l for l in lines if not l.startswith("#")]
        assert len(body) == len(table.entries)
        assert all(l.endswith(("kept", "pruned")) for l in body)

    def test_report_escapes_phrase_fields(self, tmp_path):
        ct = ContingencyTable(1, 1, 1, 2)
        report = PruneReport(threshold=1.0, scores={ct: 0.5}, kept_count=0, pruned_count=1)
        path = tmp_path / "report.tsv"
        write_prune_report(report, {(("a", "|||"), ("b&c",)): ct}, path)
        row = path.read_text(encoding="utf-8").splitlines()[1]
        assert row == "a &#124;&#124;&#124; ||| b&amp;c\t1\t1\t1\t0.5\tpruned"

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
            write_prune_report(report, counts, path)
            outputs.append((set(kept.entries), report.scores, path.read_bytes()))
        assert outputs[0] == outputs[1]
        assert 0 < len(outputs[0][0]) < len(shared)


class TestPruneOutputsMatchOracle:
    def test_pipeline_prune_outputs_equal_oracle_count_outputs(self, tmp_path):
        """The pipeline's pruned table and report are the bytes that prune and
        survivor scoring give on brute-force counts, and every row's score is
        its own table's unmemoised -log p."""
        cfg = validate_config(write_synthetic_corpus(str(tmp_path / "run"), n_pairs=80))
        assert run_pipeline(cfg, stages=STAGES[:STAGES.index("prune") + 1]).ok
        pair_dir = tmp_path / "run" / "out" / "pairs" / "xx"
        pair_counts = read_phrase_counts(pair_dir / "phrase-table.txt")
        pairs = read_aligned_corpus(pair_dir / "aligned.src", pair_dir / "aligned.tgt")
        oracle = brute_force_contingency_counts(pair_counts, pairs)
        counts = {key: ContingencyTable(*cell) for key, cell in oracle.items()}

        kept, report = prune(pair_counts, counts, cfg.prune_config)
        assert all(report.scores[ct] == fisher_neg_log_p(ct) for ct in counts.values())
        assert 0 < report.kept_count < len(pair_counts.entries)
        table = score_counts(pair_counts, kept.entries)
        write_prune_report(report, counts, tmp_path / "prune-report.tsv")
        write_phrase_table(table, tmp_path / "phrase-table.pruned.txt")
        for name in ("prune-report.tsv", "phrase-table.pruned.txt"):
            assert (pair_dir / name).read_bytes() == (tmp_path / name).read_bytes(), name
