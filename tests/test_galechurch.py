import itertools
import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dmlex.galechurch import (
    BEAD_PRIORS,
    SHAPES,
    _log_two_tail,
    align_corpus,
    align_paragraph,
    length_cost,
    read_aligned_corpus,
    sentence_char_length,
    write_aligned_corpus,
)

from helpers import (
    brute_force_align,
    enumerate_tilings,
    fast_brute_force_align,
    mp_length_cost,
    mp_log_two_tail,
)


class TestLengthCost:
    def test_zero_deviation_is_prior_only(self):
        cost = length_cost(100, 100, "1-1")
        assert cost == pytest.approx(-math.log(BEAD_PRIORS["1-1"]), abs=1e-12)

    def test_symmetric_in_deviation(self):
        for k in (1, 5, 20, 80):
            assert length_cost(100, 100 + k, "1-1") == pytest.approx(
                length_cost(100, 100 - k, "1-1"), rel=1e-12
            )

    def test_matches_high_precision_oracle(self):
        # frozen from the mpmath oracle: src=50, tgt=80, shape 1-1
        assert mp_length_cost(50, 80, "1-1") == pytest.approx(
            2.3921374405552086, rel=1e-12
        )
        assert length_cost(50, 80, "1-1") == pytest.approx(
            2.3921374405552086, rel=1e-10
        )

    def test_oracle_agreement_across_shapes(self):
        # z = |delta| / sqrt(2): (1000, 1058) / (1000, 1059) put z just below /
        # above 0.5, (1000, 3332) / (1000, 3333) just below / above 20, and
        # (1, 10**5) far out in the asymptotic tail.
        lengths = ((30, 30), (10, 90), (200, 180), (1, 40), (1000, 1058), (1000, 1059),
                   (1000, 3332), (1000, 3333), (1, 10**5))
        for shape in ("1-1", "2-1", "1-2", "2-2", "1-0", "0-1"):
            for src_len, tgt_len in lengths:
                assert length_cost(src_len, tgt_len, shape) == pytest.approx(
                    mp_length_cost(src_len, tgt_len, shape), rel=1e-9
                )

    def test_monotone_in_deviation(self):
        # d = 700 gives z = |delta| / sqrt(2) ~ 26.8, past the series switch at 20
        costs = [length_cost(50, 50 + d, "1-1") for d in range(0, 701, 3)]
        assert all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_log_two_tail_matches_oracle(self):
        # |delta| on a log grid from 1e-8 to 4e5, across all three branches
        for k in range(273):
            abs_delta = 1e-8 * 10 ** (k / 20)
            expected = mp_log_two_tail(abs_delta)
            assert abs((_log_two_tail(abs_delta) - expected) / expected) <= 1e-14, abs_delta

    def test_both_zero_is_an_error(self):
        with pytest.raises(ValueError):
            length_cost(0, 0, "1-1")

    def test_priors_sum_to_one(self):
        assert sum(BEAD_PRIORS.values()) == pytest.approx(1.0, abs=1e-9)

    # fast_brute_force_align prunes by running cost; that is exact only while
    # every bead cost is strictly positive.
    @given(
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from(SHAPES),
    )
    def test_cost_is_strictly_positive(self, src_len, tgt_len, shape):
        assume(src_len or tgt_len)
        assert length_cost(src_len, tgt_len, shape) > 0


def _sent(n_chars):
    # one token of the requested joined length
    return ["x" * n_chars]


class TestAlignParagraph:
    def test_matched_lengths_give_one_to_one(self):
        src = [_sent(30), _sent(25), _sent(40)]
        tgt = [_sent(30), _sent(25), _sent(40)]
        beads = align_paragraph(src, tgt)
        assert [b.shape for b in beads] == ["1-1", "1-1", "1-1"]

    def test_two_to_one_merge(self):
        src = [_sent(20), _sent(22)]
        tgt = [_sent(43)]
        beads = align_paragraph(src, tgt)
        assert [b.shape for b in beads] == ["2-1"]
        # cross-check against the exhaustive tiling oracle
        cost, oracle = brute_force_align(src, tgt, length_cost)
        assert [shape for shape, _, _ in oracle] == [(2, 1)]

    def test_forced_deletion(self):
        beads = align_paragraph([_sent(20)], [])
        assert [b.shape for b in beads] == ["1-0"]

    def test_empty_both_sides(self):
        assert align_paragraph([], []) == []

    def test_tiling_covers_both_sides(self):
        rng = random.Random(7)
        for _ in range(50):
            src = [_sent(rng.randint(5, 60)) for _ in range(rng.randint(0, 6))]
            tgt = [_sent(rng.randint(5, 60)) for _ in range(rng.randint(0, 6))]
            if not src and not tgt:
                continue
            beads = align_paragraph(src, tgt)
            covered_src = [k for b in beads for k in range(*b.src_span)]
            covered_tgt = [k for b in beads for k in range(*b.tgt_span)]
            assert covered_src == list(range(len(src)))
            assert covered_tgt == list(range(len(tgt)))

    def test_matches_brute_force_on_small_paragraphs(self):
        rng = random.Random(42)
        for _ in range(60):
            src = [_sent(rng.randint(3, 80)) for _ in range(rng.randint(1, 5))]
            tgt = [_sent(rng.randint(3, 80)) for _ in range(rng.randint(1, 5))]
            beads = align_paragraph(src, tgt)
            oracle_cost, oracle = brute_force_align(src, tgt, length_cost)
            assert sum(b.cost for b in beads) == pytest.approx(oracle_cost, abs=1e-9)
            got = [(tuple(map(int, b.shape.split("-"))), b.src_span, b.tgt_span) for b in beads]
            assert got == oracle

    def test_pruned_oracle_matches_full_enumeration(self):
        # Equal lengths drawn from a few values make equal-cost tilings (1-0/0-1
        # orderings, a deletion at any position), so the tie-break is exercised.
        rng = random.Random(11)
        random_len = lambda: _sent(rng.randint(3, 60))
        equal_len = lambda: _sent(rng.choice((10, 20, 30)))
        ties = 0
        for (m, n), draw in itertools.product(
            itertools.product(range(6), repeat=2), (random_len, equal_len)
        ):
            for _ in range(3):
                src = [draw() for _ in range(m)]
                tgt = [draw() for _ in range(n)]
                expected = brute_force_align(src, tgt, length_cost)
                assert fast_brute_force_align(src, tgt, length_cost) == expected
                costs = []
                for tiling in enumerate_tilings(m, n):
                    cost = 0.0
                    for shape, ss, ts in tiling:
                        cost += length_cost(
                            sum(sentence_char_length(s) for s in src[ss[0]:ss[1]]),
                            sum(sentence_char_length(t) for t in tgt[ts[0]:ts[1]]),
                            shape,
                        )
                    costs.append(cost)
                ties += costs.count(expected[0]) > 1
        assert ties >= 10

    def test_pruned_oracle_rejects_non_positive_costs(self):
        with pytest.raises(ValueError):
            fast_brute_force_align([_sent(10)], [_sent(10)], lambda *args: 0.0)

    def test_deterministic(self):
        src = [_sent(30), _sent(30)]
        tgt = [_sent(30), _sent(30)]
        assert align_paragraph(src, tgt) == align_paragraph(src, tgt)


class TestAlignCorpus:
    def test_one_to_one_paragraph_emits_all_pairs(self):
        para = ([["aaa", "bbb"], ["cc"]], [["xxx", "yyy"], ["zz"]])
        pairs = align_corpus([para])
        assert pairs == [(["aaa", "bbb"], ["xxx", "yyy"]), (["cc"], ["zz"])]

    def test_two_to_one_concatenates_source(self):
        para = ([["aaaaa" * 4], ["bbbbb" * 4]], [["x" * 41]])
        pairs = align_corpus([para])
        assert len(pairs) == 1
        src, tgt = pairs[0]
        assert src == ["aaaaa" * 4, "bbbbb" * 4]
        assert tgt == ["x" * 41]

    def test_deletion_beads_emit_nothing(self):
        para = ([["aaa"]], [])
        pairs = align_corpus([para])
        assert pairs == []

    def test_no_empty_sides(self):
        rng = random.Random(3)
        paras = []
        for _ in range(20):
            paras.append((
                [_sent(rng.randint(3, 50)) for _ in range(rng.randint(0, 4))],
                [_sent(rng.randint(3, 50)) for _ in range(rng.randint(0, 4))],
            ))
        pairs = align_corpus(paras)
        assert all(src and tgt for src, tgt in pairs)

    def test_file_round_trip(self, tmp_path):
        para = ([["ab", "cd"], ["ef"]], [["gh", "ij"], ["kl"]])
        pairs = align_corpus([para])
        src_p, tgt_p = tmp_path / "s.txt", tmp_path / "t.txt"
        write_aligned_corpus(pairs, src_p, tgt_p)
        back = read_aligned_corpus(src_p, tgt_p)
        assert back == pairs


def test_sentence_char_length_counts_joined_chars():
    assert sentence_char_length(["ab", "c"]) == 4  # "ab c"
    assert sentence_char_length([]) == 0
