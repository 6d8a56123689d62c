import math
import os
import tempfile

import pytest
from hypothesis import given
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

from helpers import tokenizer_tokens

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

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            train_model1(TOY, iterations=0)

    def test_deterministic(self):
        t1 = train_model1(TOY, iterations=10)
        t2 = train_model1(TOY, iterations=10)
        assert t1.probs == t2.probs
        assert t1.log_likelihoods == t2.log_likelihoods

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
