import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmlex.model1 import (
    NULL_WORD,
    TranslationTable,
    read_alignments,
    read_translation_table,
    symmetrize,
    train_model1,
    viterbi_align,
    write_alignments,
    write_translation_table,
)

from helpers import brute_force_viterbi, dict_train_model1, tokenizer_tokens

TOY = [(["the", "house"], ["la", "maison"]), (["the"], ["la"])]


class TestTrainModel1:
    def test_first_iteration_matches_hand_run(self):
        # hand-run EM: count(la|the) = 0.5 + 1.0 = 1.5, total(the) = 2.0
        table = train_model1(TOY, iterations=1, use_null=False)
        assert table.probs["the"]["la"] == pytest.approx(0.75, abs=1e-12)

    def test_toy_corpus_converges(self):
        table = train_model1(TOY, iterations=30, use_null=False)
        assert table.probs["the"]["la"] >= 0.999
        # t(maison|house) approaches 1 only as 1 - 1/(2n); check the trend
        assert table.probs["house"]["maison"] >= 0.98
        slower = train_model1(TOY, iterations=10, use_null=False)
        assert table.probs["house"]["maison"] > slower.probs["house"]["maison"]

    def test_single_pair_converges_in_one_iteration(self):
        table = train_model1([(["a"], ["x"])], iterations=1, use_null=False)
        assert table.probs["a"]["x"] == pytest.approx(1.0, abs=1e-12)

    def test_distributions_normalized(self):
        table = train_model1(TOY, iterations=5, use_null=True)
        for cond, dist in table.probs.items():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9), cond

    def test_log_likelihood_non_decreasing(self):
        for use_null in (False, True):
            table = train_model1(TOY, iterations=20, use_null=use_null)
            lls = table.log_likelihoods
            assert len(lls) == 20
            assert all(b >= a - 1e-12 for a, b in zip(lls, lls[1:]))

    def test_log_likelihood_is_that_of_the_table_entering_the_iteration(self):
        entering = train_model1(TOY, iterations=1, use_null=False)
        expected = 0.0  # direct summation of the Model 1 likelihood under that table
        for cond, gen in TOY:
            for g in gen:
                expected += math.log(sum(entering.lookup(c, g) for c in cond) / len(cond))
        lls = train_model1(TOY, iterations=2, use_null=False).log_likelihoods
        assert lls[1] == pytest.approx(expected, rel=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_model1([], iterations=1)

    @pytest.mark.parametrize("pairs, index", [
        ([([], ["x"]), (["a"], ["x"])], 0),
        ([(["a"], ["x"]), ([], [])], 1),
    ], ids=["first", "second-and-empty"])
    def test_pair_without_conditioning_tokens_is_named(self, pairs, index):
        """Without NULL, an empty conditioning sentence has nothing to generate
        from; the error names its pair, not a math domain error."""
        with pytest.raises(ValueError,
                           match=rf"^sentence pair {index} has no conditioning tokens$"):
            train_model1(pairs, 1, use_null=False)

    def test_m_step_normalizes_by_a_left_to_right_sum(self):
        """One iteration from the uniform start leaves t(g|a) = count(g) / 20
        before normalizing. Those three add to 1 - 2^-53 from left to right, and
        to 1.0 compensated, as sum() adds them from Python 3.12 on."""
        table = train_model1([(["a"], ["x"] * 6 + ["y"] * 7 + ["z"] * 7)], 1, use_null=False)
        kept = [6 / 20, 7 / 20, 7 / 20]
        norm = 0.0
        for q in kept:
            norm += q
        assert norm != math.fsum(kept)
        assert table.probs["a"] == {g: q / norm for g, q in zip("xyz", kept)}
        assert table.probs["a"]["x"] == 0.30000000000000004

    def test_oracle_normalizes_by_a_left_to_right_sum(self):
        """The dict oracle sums as train_model1 does, so the two stay equal on
        every Python; on the case above it gives the left-to-right table."""
        probs, _, _ = dict_train_model1([(["a"], ["x"] * 6 + ["y"] * 7 + ["z"] * 7)], 1,
                                        use_null=False)
        assert probs == {"a": {"x": 0.30000000000000004, "y": 0.35000000000000003,
                               "z": 0.35000000000000003}}

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            train_model1(TOY, iterations=0)

    def test_deterministic(self):
        t1 = train_model1(TOY, iterations=10)
        t2 = train_model1(TOY, iterations=10)
        assert t1.probs == t2.probs
        assert t1.log_likelihoods == t2.log_likelihoods

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1,
                                       max_size=4),
                              st.lists(st.sampled_from(["x", "y", "z", "w", "v", "u"]),
                                       max_size=6)),
                    min_size=1, max_size=6),
           st.integers(1, 6), st.sampled_from([1e-7, 0.05, 0.1, 0.2, 0.3]), st.booleans())
    # `a` twice in a sentence: its total adds each fraction twice back to back
    @example([(["b"], ["x"]), (["b", "a", "a"], ["x", "y"])], 2, 1e-7, False)
    # `x` twice in a sentence: a column walks the generated tokens in order
    @example([(["b"], ["y", "x"]), (["a"], ["x", "z", "x"])], 2, 1e-7, True)
    # t(x|NULL) and t(x|a) are 0.25 < 0.3 after the first M-step, so the second
    # E-step charges x the floor and gives it no fractions
    @example([(["a"], ["x", "y"]), (["a"], ["y", "y"])], 2, 0.3, True)
    def test_equals_the_dict_of_dicts_oracle(self, pairs, iterations, prob_floor, use_null):
        """Equal, not close: the E-step and the M-step add and sum in the
        oracle's order, also where the floor prunes entries or whole
        conditioning words."""
        table = train_model1(pairs, iterations, prob_floor, use_null)
        assert (table.probs, table.log_likelihoods, table.generated_vocab) == \
            dict_train_model1(pairs, iterations, prob_floor, use_null)

    def test_conditioning_word_under_the_floor_drops_out(self):
        """Every t(x_k|c) is 1/6 < 0.2 after the first M-step, so NULL and `a`
        leave the table, and the second E-step charges each token the floor."""
        gen = ["x1", "x2", "x3", "x4", "x5", "x6"]
        table = train_model1([(["a"], gen)], 2, prob_floor=0.2)
        assert table.probs == {}
        assert table.log_likelihoods[1] == pytest.approx(6 * math.log(0.2 / 2), rel=1e-12)
        assert viterbi_align(["a"], gen, table) == [0] * 6  # a ties the floored NULL

    def test_floor_pruning_drops_tiny_probabilities(self):
        corpus = [(["a", "b"], ["x"]) for _ in range(5)] + [(["a"], ["x"])] * 50
        table = train_model1(corpus, iterations=10, prob_floor=0.05, use_null=False)
        assert all(p >= 0.05 for dist in table.probs.values() for p in dist.values())
        for dist in table.probs.values():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


class TestViterbiAlign:
    def test_converged_toy_table(self):
        table = train_model1(TOY, iterations=30, use_null=False)
        alignment = viterbi_align(["the", "house"], ["la", "maison"], table)
        assert alignment == [0, 1]

    def test_uniform_table_ties_break_to_first_position(self):
        table = TranslationTable(
            probs={"a": {"x": 0.5, "y": 0.5}, "b": {"x": 0.5, "y": 0.5}},
            use_null=False,
            generated_vocab={"x", "y"},
        )
        alignment = viterbi_align(["a", "b"], ["x", "y"], table)
        assert alignment == [0, 0]

    def test_oov_links_to_null(self):
        table = train_model1(TOY, iterations=5, use_null=False)
        alignment = viterbi_align(["the"], ["zzz"], table)
        assert alignment == [None]

    def test_null_loses_ties(self):
        table = TranslationTable(
            probs={NULL_WORD: {"x": 0.5}, "a": {"x": 0.5}},
            use_null=True,
            generated_vocab={"x"},
        )
        assert viterbi_align(["a"], ["x"], table) == [0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1,
                                       max_size=4),
                              st.lists(st.sampled_from(["x", "y", "z", "w", "v", "u"]),
                                       max_size=6)),
                    min_size=1, max_size=6),
           st.lists(st.tuples(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=4),
                              st.lists(st.sampled_from(["x", "y", "z", "w", "oov"]),
                                       max_size=6)),
                    max_size=4),
           st.integers(1, 4), st.sampled_from([1e-7, 0.05, 0.1, 0.2, 0.3]), st.booleans())
    def test_equals_the_lookup_oracle(self, pairs, others, iterations, prob_floor, use_null):
        """Equal on the training pairs and on others that may hold an unseen
        conditioning word `e`, an out-of-vocabulary `oov` or an empty
        conditioning side; the higher floors make words drop out."""
        table = train_model1(pairs, iterations, prob_floor, use_null)
        for cond, gen in pairs + others:
            assert viterbi_align(cond, gen, table) == brute_force_viterbi(cond, gen, table)


class TestSymmetrize:
    def test_identical_alignments_idempotent(self):
        src_to_tgt = [0, 1]  # tgt j -> src i
        tgt_to_src = [0, 1]
        expected = {(0, 0), (1, 1)}
        for heuristic in ("intersection", "union", "grow-diag-final-and"):
            assert symmetrize(src_to_tgt, tgt_to_src, heuristic) == expected

    def test_intersection_and_union(self):
        # a_fe = {(0,0),(1,1)}, a_ef = {(0,0)}
        src_to_tgt = [0, 1]
        tgt_to_src = [0, None]
        assert symmetrize(src_to_tgt, tgt_to_src, "intersection") == {(0, 0)}
        assert symmetrize(src_to_tgt, tgt_to_src, "union") == {(0, 0), (1, 1)}

    def test_grow_diag_final_and_hand_executed(self):
        # 3x3: intersection {(1,1)}; union adds (0,0), (2,2), (0,2).
        # Hand execution: (0,0) and (2,2) join via the diagonal growth from
        # (1,1); (0,2) joins while tgt 2 is still unaligned.
        src_to_tgt = [0, 1, 2]
        tgt_to_src = [2, 1, None]
        result = symmetrize(src_to_tgt, tgt_to_src, "grow-diag-final-and")
        assert result == {(1, 1), (0, 0), (2, 2), (0, 2)}

    def test_mismatched_lengths_rejected(self):
        # a link of either direction reaches past the other's length
        for src_to_tgt, tgt_to_src in (([0, 1], [0]), ([0], [0, 1])):
            with pytest.raises(ValueError, match="cover different sentence lengths"):
                symmetrize(src_to_tgt, tgt_to_src)

    def test_union_drops_null_links(self):
        assert symmetrize([1, None, 0], [None, None], "union") == {(1, 0), (0, 2)}

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.data(),
    )
    def test_sandwich_property(self, src_len, tgt_len, data):
        links_a = data.draw(
            st.lists(
                st.one_of(st.none(), st.integers(0, src_len - 1)),
                min_size=tgt_len,
                max_size=tgt_len,
            )
        )
        links_b = data.draw(
            st.lists(
                st.one_of(st.none(), st.integers(0, tgt_len - 1)),
                min_size=src_len,
                max_size=src_len,
            )
        )
        inter = symmetrize(links_a, links_b, "intersection")
        gdfa = symmetrize(links_a, links_b, "grow-diag-final-and")
        union = symmetrize(links_a, links_b, "union")
        assert inter <= gdfa <= union


class TestSerialization:
    def test_round_trip(self, tmp_path):
        table = train_model1(TOY, iterations=5, use_null=True)
        path = tmp_path / "table.tsv"
        write_translation_table(table, path)
        back = read_translation_table(path)
        assert back.use_null == table.use_null
        assert set(back.probs) == set(table.probs)
        for cond in table.probs:
            for gen, p in table.probs[cond].items():
                assert back.probs[cond][gen] == pytest.approx(p, rel=1e-7)

    def test_null_is_spelled_out(self, tmp_path):
        table = train_model1(TOY, iterations=2, use_null=True)
        path = tmp_path / "table.tsv"
        write_translation_table(table, path)
        body = path.read_text(encoding="utf-8")
        assert "<NULL>\t" in body

    def test_hash_led_conditioning_word_is_not_a_header(self, tmp_path):
        table = TranslationTable(probs={"#a": {"b": 0.5}, "a": {"b": 0.25}})
        path = tmp_path / "table.tsv"
        write_translation_table(table, path)
        assert read_translation_table(path).probs == table.probs

    @pytest.mark.parametrize("lineno, text", [
        (5, "the\tla\n"), (4, "la\tthe\tx\n"), (2, "# floor=x\n"), (4, "la\tthe\tnan\n"),
        (4, "la\tthe\t-0.5\n"), (5, "the\tla\t0\n"), (5, "the\tla\t1.5\n"),
        (2, "# floor=nan\n"), (2, "# floor=0\n"), (3, "# null=True\n"),
    ], ids=["short-line", "bad-probability", "bad-floor", "nan-probability",
            "negative-probability", "zero-probability", "probability-above-one", "nan-floor",
            "zero-floor", "bad-null"])
    def test_corrupt_line_is_named_with_its_file(self, tmp_path, lineno, text):
        """A probability must lie in (0, 1], the floor in (0, 1), and `# null=` must
        be true or false; the error gives the line number and the file."""
        path = tmp_path / "table.tsv"
        write_translation_table(train_model1(TOY, iterations=2, use_null=True), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) >= 5
        lines[lineno - 1] = text
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^line {lineno}: ") as exc:
            read_translation_table(path)
        assert str(exc.value).endswith(f" in {path}")

    @given(st.dictionaries(
        tokenizer_tokens(),
        st.dictionaries(tokenizer_tokens(), st.sampled_from([0.5, 0.25, 1e-7]),
                        min_size=1, max_size=3),
        min_size=1, max_size=4))
    def test_tokenizer_output_round_trips(self, probs):
        table = TranslationTable(probs=probs)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.tsv")
            write_translation_table(table, path)
            back = read_translation_table(path)
        assert back.probs == probs

    @given(st.lists(st.sets(st.tuples(st.integers(0, 200), st.integers(0, 200)),
                            max_size=12), max_size=6))
    def test_alignments_round_trip(self, link_sets):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "alignments.txt")
            write_alignments(link_sets, path)
            pairs = [(["f"] * 201, ["e"] * 201)] * len(link_sets)
            assert read_alignments(path, pairs) == link_sets
