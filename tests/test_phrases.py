import hashlib
import os
import random
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dmlex.phrases import (
    PhraseCounts,
    PhrasePairInstance,
    PhraseTable,
    PhraseTableEntry,
    count_phrase_pairs,
    escape_phrase,
    extract_phrase_pairs,
    read_phrase_counts,
    read_phrase_table,
    score_counts,
    score_phrase_table,
    unescape_phrase,
    write_phrase_counts,
    write_phrase_table,
)

from helpers import brute_force_phrase_pairs, naive_phrase_counts, tokenizer_phrases


def _as_set(instances):
    return {(i.foreign_phrase, i.english_phrase, i.internal_alignment) for i in instances}


class TestExtractPhrasePairs:
    def test_single_link_pair(self):
        out = extract_phrase_pairs(["casa"], ["house"], {(0, 0)}, 7)
        assert _as_set(out) == {(("casa",), ("house",), frozenset({(0, 0)}))}

    def test_parallel_links(self):
        out = extract_phrase_pairs(["a", "b"], ["x", "y"], {(0, 0), (1, 1)}, 7)
        assert {(i.foreign_phrase, i.english_phrase) for i in out} == {
            (("a",), ("x",)),
            (("b",), ("y",)),
            (("a", "b"), ("x", "y")),
        }

    def test_crossing_links(self):
        # a-y and b-x cross; the whole pair plus both single-word pairs are
        # consistent (each single link stays inside its span pair), matching
        # the brute-force predicate
        out = extract_phrase_pairs(["a", "b"], ["x", "y"], {(0, 1), (1, 0)}, 7)
        assert {(i.foreign_phrase, i.english_phrase) for i in out} == {
            (("a",), ("y",)),
            (("b",), ("x",)),
            (("a", "b"), ("x", "y")),
        }
        assert _as_set(out) == brute_force_phrase_pairs(
            ["a", "b"], ["x", "y"], {(0, 1), (1, 0)}, 7
        )

    def test_crossing_links_with_double_coverage_only_whole_pair(self):
        links = {(0, 0), (0, 1), (1, 0), (1, 1)}
        out = extract_phrase_pairs(["a", "b"], ["x", "y"], links, 7)
        assert {(i.foreign_phrase, i.english_phrase) for i in out} == {
            (("a", "b"), ("x", "y")),
        }

    def test_empty_alignment(self):
        assert extract_phrase_pairs(["a"], ["x"], set(), 7) == []

    def test_unaligned_edge_words_extend_spans(self):
        # foreign "a b", english "x"; only (0,0) linked: b is an unaligned edge
        out = extract_phrase_pairs(["a", "b"], ["x"], {(0, 0)}, 7)
        assert {(i.foreign_phrase, i.english_phrase) for i in out} == {
            (("a",), ("x",)),
            (("a", "b"), ("x",)),
        }

    def test_max_phrase_len_bounds_both_sides(self):
        links = {(i, i) for i in range(4)}
        out = extract_phrase_pairs(list("abcd"), list("wxyz"), links, 2)
        assert all(
            len(i.foreign_phrase) <= 2 and len(i.english_phrase) <= 2 for i in out
        )

    def test_rebased_alignment_within_spans(self):
        out = extract_phrase_pairs(["a", "b", "c"], ["x", "y"], {(1, 0), (2, 1)}, 7)
        for inst in out:
            for i, j in inst.internal_alignment:
                assert 0 <= i < len(inst.foreign_phrase)
                assert 0 <= j < len(inst.english_phrase)
            assert inst.internal_alignment


def test_extraction_equals_brute_force():
    rng = random.Random(1234)
    for _ in range(300):
        n_src = rng.randint(1, 10)
        n_tgt = rng.randint(1, 10)
        src = [f"f{k}" for k in range(n_src)]
        tgt = [f"e{k}" for k in range(n_tgt)]
        n_links = rng.randint(0, min(n_src, n_tgt) + 2)
        links = {
            (rng.randrange(n_src), rng.randrange(n_tgt)) for _ in range(n_links)
        }
        max_len = rng.choice([2, 3, 7])
        got = _as_set(extract_phrase_pairs(src, tgt, links, max_len))
        expected = brute_force_phrase_pairs(src, tgt, links, max_len)
        assert got == expected


def _instance(f, e, links):
    return PhrasePairInstance(
        foreign_phrase=tuple(f), english_phrase=tuple(e),
        internal_alignment=frozenset(links),
    )


class TestScorePhraseTable:
    def test_single_observation(self):
        table = score_phrase_table([_instance(["f0"], ["e0"], {(0, 0)})], 1)
        entry = table.entries[(("f0",), ("e0",))]
        assert entry.inv_phrase_prob == pytest.approx(1.0)
        assert entry.dir_phrase_prob == pytest.approx(1.0)
        assert entry.joint_count == 1

    def test_relative_frequency(self):
        instances = [_instance(["f0"], ["e0"], {(0, 0)}) for _ in range(3)]
        instances.append(_instance(["f1"], ["e0"], {(0, 0)}))
        table = score_phrase_table(instances, 4)
        entry = table.entries[(("f0",), ("e0",))]
        assert entry.inv_phrase_prob == pytest.approx(0.75)

    def test_matches_naive_recount(self):
        # toy corpus of 3 sentence pairs, extraction + scoring vs recount
        corpus = [
            (["f0", "f1"], ["e0", "e1"]),
            (["f0"], ["e0"]),
            (["f1", "f2"], ["e1", "e2"]),
        ]
        alignments = [{(0, 0), (1, 1)}, {(0, 0)}, {(0, 0), (1, 1)}]
        instances = []
        for (f, e), links in zip(corpus, alignments):
            instances.extend(extract_phrase_pairs(f, e, links, 7))
        table = score_phrase_table(instances, 3)

        # independent naive recount
        from collections import Counter

        joint = Counter((i.foreign_phrase, i.english_phrase) for i in instances)
        marg_f = Counter(i.foreign_phrase for i in instances)
        marg_e = Counter(i.english_phrase for i in instances)
        assert set(table.entries) == set(joint)
        for key, entry in table.entries.items():
            f, e = key
            assert entry.joint_count == joint[key]
            assert entry.inv_phrase_prob == pytest.approx(joint[key] / marg_e[e])
            assert entry.dir_phrase_prob == pytest.approx(joint[key] / marg_f[f])

    def test_conditional_distributions_sum_to_one(self):
        rng = random.Random(5)
        instances = []
        for _ in range(200):
            f = [f"f{rng.randrange(6)}" for _ in range(rng.randint(1, 3))]
            e = [f"e{rng.randrange(6)}" for _ in range(rng.randint(1, 3))]
            instances.append(_instance(f, e, {(0, 0)}))
        table = score_phrase_table(instances, 200)
        by_e = {}
        by_f = {}
        for (f, e), entry in table.entries.items():
            by_e.setdefault(e, 0.0)
            by_e[e] += entry.inv_phrase_prob
            by_f.setdefault(f, 0.0)
            by_f[f] += entry.dir_phrase_prob
        assert all(abs(total - 1.0) < 1e-9 for total in by_e.values())
        assert all(abs(total - 1.0) < 1e-9 for total in by_f.values())

    def test_most_frequent_alignment_tie_breaks_lexicographically(self):
        a1 = {(0, 0), (1, 1)}
        a2 = {(0, 1), (1, 0)}
        instances = [
            _instance(["f0", "f1"], ["e0", "e1"], a1),
            _instance(["f0", "f1"], ["e0", "e1"], a2),
        ]
        table = score_phrase_table(instances, 2)
        entry = table.entries[(("f0", "f1"), ("e0", "e1"))]
        assert entry.most_frequent_internal_alignment == frozenset(a1)


@st.composite
def _aligned_corpus(draw):
    """Sentence pairs over tiny vocabularies with dense random links, so
    phrases repeat and several foreign words often link to one english word."""
    pairs = draw(st.lists(st.tuples(
        st.lists(st.sampled_from(["f0", "f1", "f2", "f3"]), min_size=1, max_size=6),
        st.lists(st.sampled_from(["e0", "e1", "e2"]), min_size=1, max_size=6)),
        min_size=1, max_size=6))
    alignments = [draw(st.sets(st.tuples(st.integers(0, len(f) - 1),
                                         st.integers(0, len(e) - 1)), max_size=8))
                  for f, e in pairs]
    return pairs, alignments


class TestScoreCounts:
    @settings(max_examples=100, deadline=None)
    @given(_aligned_corpus(), st.data())
    def test_survivor_scores_equal_full_table_scores(self, drawn, data):
        """Scoring some keys of a counts file read back from disk gives, float
        for float, the entries that scoring every extracted pair gives."""
        pairs, alignments = drawn
        instances = []
        for (f, e), links in zip(pairs, alignments):
            instances.extend(extract_phrase_pairs(f, e, links, 7))
        assume(instances)
        full = score_phrase_table(instances, len(pairs))
        keys = data.draw(st.sets(st.sampled_from(sorted(full.entries))))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "phrase-table.txt")
            write_phrase_counts(count_phrase_pairs(instances, len(pairs)), path)
            counts = read_phrase_counts(path)
        survivors = score_counts(counts, keys)
        assert survivors.corpus_size == full.corpus_size
        assert survivors.entries == {key: full.entries[key] for key in keys}

    def test_counts_keep_joint_count_and_most_frequent_alignment(self):
        instances = [_instance(["f0", "f1"], ["e0", "e1"], {(0, 1), (1, 0)}),
                     _instance(["f0", "f1"], ["e0", "e1"], {(0, 0), (1, 1)}),
                     _instance(["f0", "f1"], ["e0", "e1"], {(0, 1), (1, 0)}),
                     _instance(["f0"], ["e0"], {(0, 0)})]
        counts = count_phrase_pairs(instances, 3)
        assert counts == PhraseCounts({(("f0", "f1"), ("e0", "e1")): (3, {(0, 1), (1, 0)}),
                                       (("f0",), ("e0",)): (1, {(0, 0)})}, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([("f0",), ("f1",), ("f0", "f1")]),
                              st.sampled_from([("e0",), ("e0", "e1")]),
                              st.sampled_from([{(0, 0)}, {(0, 1)}, {(1, 0)}, {(0, 0), (1, 1)},
                                               {(0, 1), (1, 0)}])),
                    max_size=40))
    def test_counts_equal_naive_grouping(self, drawn):
        # few phrases and alignments, so pairs repeat and alignment counts tie
        instances = [_instance(f, e, links) for f, e, links in drawn]
        counts = count_phrase_pairs(instances, 7)
        assert counts.corpus_size == 7
        assert counts.entries == naive_phrase_counts(instances)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([("f0",), ("f1",), ("f0", "f1")]),
                              st.sampled_from([("e0",), ("e0", "e1")]),
                              st.sampled_from([{(0, 0)}, {(0, 1)}, {(1, 0)}, {(0, 0), (1, 1)},
                                               {(0, 1), (1, 0)}])),
                    max_size=40))
    def test_one_pass_generator_counts_as_the_list_does(self, drawn):
        """The instances may come from a generator that can be read once: the
        counts, the most frequent alignments and their tie rule are those of the list."""
        instances = [_instance(f, e, links) for f, e, links in drawn]
        assert count_phrase_pairs((i for i in instances), 7) == count_phrase_pairs(instances, 7)

    @pytest.mark.parametrize("instances, shared", [
        ([_instance(["f0"], ["e0"], {(0, 0)}), _instance(["f1"], ["e1"], {(0, 0)}),
          _instance(["f0", "f1"], ["e0"], {(0, 0), (1, 0)}),
          _instance(["f1", "f0"], ["e0"], {(1, 0), (0, 0)})],
         lambda keys, aligns: [(aligns[0], aligns[1]), (aligns[2], aligns[3])]),
        ([_instance(["f0"], ["e0"], {(0, 0)}), _instance(["f0"], ["e1"], {(0, 0)}),
          _instance(["f1", "f0"], ["e0"], {(1, 0)}), _instance(["f0"], ["e1"], {(0, 0)})],
         lambda keys, aligns: [(keys[0][0], keys[1][0]), (keys[0][1], keys[2][1])]),
    ], ids=["equal-alignments", "equal-phrase-tuples"])
    def test_equal_alignments_share_one_frozenset(self, instances, shared):
        """Equal alignments are one frozenset, and equal phrase tuples one tuple,
        across the entries of the counts, whatever objects the instances held."""
        assert len({id(part) for i in instances for part in i}) == 3 * len(instances)
        counts = count_phrase_pairs(iter(instances), 2)
        for a, b in shared(list(counts.entries), [align for _, align in counts.entries.values()]):
            assert a == b and a is b


class TestPhraseCountsIO:
    @given(st.lists(st.tuples(tokenizer_phrases(), tokenizer_phrases(), st.integers(1, 3)),
                    min_size=1, max_size=6), st.data())
    def test_tokenizer_output_round_trips(self, pairs, data):
        instances = []
        for f, e, n in pairs:
            link = st.tuples(st.integers(0, len(f) - 1), st.integers(0, len(e) - 1))
            instances += [_instance(f, e, data.draw(st.sets(link, min_size=1, max_size=3)))
                          for _ in range(n)]
        counts = count_phrase_pairs(instances, len(pairs))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "phrase-table.txt")
            written = write_phrase_counts(counts, path)
            assert read_phrase_counts(path) == counts
            with open(path, "rb") as fh:
                assert written == hashlib.sha256(fh.read()).hexdigest()

    def test_written_digest_covers_every_block(self, tmp_path):
        """The writer hashes a block of lines at a time; a table of several blocks
        reads back whole, and the digest it returns is the file's."""
        counts = PhraseCounts({((f"f{k}",), (f"e{k % 7}",)): (k % 5 + 1, frozenset({(0, 0)}))
                               for k in range(10_000)}, 10_000)
        path = tmp_path / "phrase-table.txt"
        written = write_phrase_counts(counts, path)
        assert written == hashlib.sha256(path.read_bytes()).hexdigest()
        assert read_phrase_counts(path) == counts

    def test_separator_entity_and_header_like_tokens_round_trip(self, tmp_path):
        counts = PhraseCounts({(("a", "|||"), ("b",)): (2, frozenset({(0, 0), (1, 0)})),
                               (("&#124;", "&amp;"), ("x|y", "&")): (1, frozenset({(0, 0)})),
                               (("#", "N=5"), ("#eu",)): (4, frozenset({(1, 0)}))}, 7)
        path = tmp_path / "phrase-table.txt"
        write_phrase_counts(counts, path)
        assert path.read_text(encoding="utf-8").splitlines() == [
            "# N=7",
            "# N=5 ||| #eu ||| 1-0 ||| 4",
            "&amp;#124; &amp;amp; ||| x&#124;y &amp; ||| 0-0 ||| 1",
            "a &#124;&#124;&#124; ||| b ||| 0-0 1-0 ||| 2",
        ]
        assert read_phrase_counts(path) == counts

    def test_equal_tokens_are_one_string_across_phrases(self, tmp_path):
        """Reading shares each token text among all phrases, foreign or english,
        that hold it, as well as each whole phrase among its entries."""
        path = tmp_path / "phrase-table.txt"
        path.write_text("# N=2\n"
                        "das haus ||| the house ||| 0-0 1-1 ||| 1\n"
                        "haus ||| house ||| 0-0 ||| 2\n"
                        "haus ||| house the ||| 0-0 ||| 1\n"
                        "the ||| das ||| 0-0 ||| 1\n", encoding="utf-8")
        keys = list(read_phrase_counts(path).entries)
        assert keys[0][0][1] is keys[1][0][0] is keys[2][0][0]  # haus
        assert keys[0][1][1] is keys[1][1][0] is keys[2][1][0]  # house
        assert keys[0][1][0] is keys[2][1][1] is keys[3][0][0]  # the
        assert keys[0][0][0] is keys[3][1][0]  # das
        assert keys[1][0] is keys[2][0]  # the phrase `haus`

    @pytest.mark.parametrize("line", ["a ||| b ||| 0-0 ||| 1 ||| 2", "a ||| b ||| 0-0 ||| 1.5",
                                      "a ||| b ||| 0-x ||| 1", "a ||| b ||| 0 ||| 1",
                                      "a ||| b ||| 1-0 ||| 1", "a ||| b ||| 0-1 ||| 1",
                                      "a ||| b ||| +0-+0 ||| 1", "a ||| b ||| 0-0_0 ||| 1",
                                      "a ||| b ||| \u0660-\u0660 ||| 1", "# N=abc"])
    def test_malformed_line_reports_line_number(self, tmp_path, line):
        path = tmp_path / "phrase-table.txt"
        path.write_text(f"# N=1\na ||| b ||| 0-0 ||| 1\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^line 3: ") as exc:
            read_phrase_counts(path)
        assert str(exc.value).endswith(f" in {path}")


class TestPhraseTableIO:
    def _toy_table(self):
        instances = [
            _instance(["f0"], ["e0"], {(0, 0)}),
            _instance(["f0", "f1"], ["e0", "e1"], {(0, 0), (1, 1)}),
            _instance(["f2"], ["e2"], {(0, 0)}),
        ]
        return score_phrase_table(instances, 3)

    def test_round_trip(self, tmp_path):
        table = self._toy_table()
        table.add(PhraseTableEntry(("f3",), ("e3",), 0.5, 0.5, frozenset({(0, 0)}),
                                   1234567891.0))  # every digit of a large count survives
        path = tmp_path / "pt.txt"
        write_phrase_table(table, path)
        back = read_phrase_table(path)
        assert back.corpus_size == table.corpus_size
        assert ({key: entry.joint_count for key, entry in back.entries.items()}
                == {key: entry.joint_count for key, entry in table.entries.items()})
        path2 = tmp_path / "pt2.txt"
        write_phrase_table(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_table_round_trip(self, tmp_path):
        path = tmp_path / "pt.txt"
        write_phrase_table(PhraseTable(corpus_size=9), path)
        assert path.read_text(encoding="utf-8") == "# N=9\n"
        back = read_phrase_table(path)
        assert len(back) == 0
        assert back.corpus_size == 9

    def test_hash_led_phrase_is_not_a_header(self, tmp_path):
        table = PhraseTable(corpus_size=3)
        for f in (("#eu",), ("eu",), ("nos",)):
            table.add(PhraseTableEntry(f, ("we",), 0.5, 0.5,
                                       frozenset({(0, 0)}), 1.0))
        path = tmp_path / "pt.txt"
        write_phrase_table(table, path)
        back = read_phrase_table(path)
        assert set(back.entries) == set(table.entries)
        assert back.corpus_size == 3

    def test_separator_and_entity_tokens_round_trip(self, tmp_path):
        # unescaped, ("a", "|||") / ("b",) was written `a ||| ||| b ||| ...`
        # and read back as ("a",) / ("|||", "b")
        table = PhraseTable(corpus_size=2)
        for f, e in ((("a", "|||"), ("b",)), (("&#124;", "&amp;"), ("x|y", "&"))):
            table.add(PhraseTableEntry(f, e, 0.5, 0.5, frozenset({(0, 0)}), 1.0))
        path = tmp_path / "pt.txt"
        write_phrase_table(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1].startswith("&amp;#124; &amp;amp; ||| x&#124;y &amp; ||| ")
        assert lines[2].startswith("a &#124;&#124;&#124; ||| b ||| ")
        assert set(read_phrase_table(path).entries) == set(table.entries)

    @given(tokenizer_phrases(max_len=5))
    def test_escape_equals_two_replace_reference(self, tokens):
        escaped = escape_phrase(tokens)
        assert escaped == " ".join(tokens).replace("&", "&amp;").replace("|", "&#124;")
        assert unescape_phrase(escaped) == tokens

    @given(st.text(alphabet="ab &|#;124mp", max_size=20))
    def test_unescape_equals_two_replace_reference(self, text):
        assert unescape_phrase(text) == tuple(
            text.replace("&#124;", "|").replace("&amp;", "&").split())

    def test_escaping_leaves_other_tokens_alone(self):
        assert escape_phrase(("#eu", "x-y", "l'")) == "#eu x-y l'"
        assert unescape_phrase("#eu x-y l'") == ("#eu", "x-y", "l'")

    @given(st.lists(st.tuples(tokenizer_phrases(), tokenizer_phrases()),
                    min_size=1, max_size=6), st.data())
    def test_tokenizer_output_round_trips(self, pairs, data):
        table = PhraseTable(corpus_size=len(pairs))
        for f, e in pairs:
            link = st.tuples(st.integers(0, len(f) - 1), st.integers(0, len(e) - 1))
            links = frozenset(data.draw(st.sets(link, max_size=3)))
            table.add(PhraseTableEntry(f, e, 0.5, 0.25, links, 2.0))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "pt.txt")
            write_phrase_table(table, path)
            back = read_phrase_table(path)
        assert back.corpus_size == table.corpus_size
        assert ({k: e.most_frequent_internal_alignment for k, e in back.entries.items()}
                == {k: e.most_frequent_internal_alignment for k, e in table.entries.items()})

    def test_score_formatting_eight_significant_digits(self):
        from dmlex.phrases import _fmt

        assert _fmt(0.333333333333) == "0.33333333"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "pt.txt"
        for line in ["broken line without separators",
                     "a b ||| c ||| 0.5 0.5 ||| 0-9 1-0 ||| 2",
                     "a b ||| c ||| 0.5 0.5 ||| +0-+0 ||| 2",
                     "a b ||| c ||| 0.5 0.5 ||| 0-0_0 ||| 2",
                     "a b ||| c ||| 0.5 0.5 ||| \u0660-\u0660 ||| 2", "# N=abc"]:
            path.write_text(f"# N=1\n{line}\n", encoding="utf-8")
            with pytest.raises(ValueError, match=r"^line 2: ") as exc:
                read_phrase_table(path)
            assert str(exc.value).endswith(f" in {path}")

    def test_entries_sorted_lexicographically(self, tmp_path):
        table = self._toy_table()
        path = tmp_path / "pt.txt"
        write_phrase_table(table, path)
        lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
        keys = [tuple(l.split(" ||| ")[:2]) for l in lines]
        assert keys == sorted(keys)
