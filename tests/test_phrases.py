import os
import random
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dmlex.phrases import (
    PhraseTable,
    PhraseTableEntry,
    _internal_alignment,
    count_phrase_pairs,
    escape_phrase,
    extract_phrase_pairs,
    read_phrase_table,
    score_counts,
    score_phrase_table,
    unescape_phrase,
    write_phrase_table,
)

from helpers import (
    brute_force_phrase_instances,
    brute_force_phrase_pairs,
    naive_phrase_counts,
    phrase_keys,
    tokenizer_phrases,
)


def _as_set(src, tgt, links, max_len=7):
    """The (foreign, english, internal alignment) of each span extracted, the
    alignment being the links inside both spans; no span is extracted twice."""
    spans = extract_phrase_pairs(src, tgt, links, max_len)
    assert len(set(spans)) == len(spans)
    return {(tuple(src[fs:fe]), tuple(tgt[es:ee]),
             frozenset((i - fs, j - es) for i, j in links if fs <= i < fe and es <= j < ee))
            for fs, fe, es, ee in spans}


class TestExtractPhrasePairs:
    def test_single_link_pair(self):
        out = _as_set(["casa"], ["house"], {(0, 0)})
        assert out == {(("casa",), ("house",), frozenset({(0, 0)}))}

    def test_parallel_links(self):
        out = _as_set(["a", "b"], ["x", "y"], {(0, 0), (1, 1)})
        assert {(f, e) for f, e, _ in out} == {
            (("a",), ("x",)),
            (("b",), ("y",)),
            (("a", "b"), ("x", "y")),
        }

    def test_crossing_links(self):
        # a-y and b-x cross; the whole pair plus both single-word pairs are
        # consistent (each single link stays inside its span pair), matching
        # the brute-force predicate
        out = _as_set(["a", "b"], ["x", "y"], {(0, 1), (1, 0)})
        assert {(f, e) for f, e, _ in out} == {
            (("a",), ("y",)),
            (("b",), ("x",)),
            (("a", "b"), ("x", "y")),
        }
        assert out == brute_force_phrase_pairs(["a", "b"], ["x", "y"], {(0, 1), (1, 0)}, 7)

    def test_crossing_links_with_double_coverage_only_whole_pair(self):
        links = {(0, 0), (0, 1), (1, 0), (1, 1)}
        out = _as_set(["a", "b"], ["x", "y"], links)
        assert {(f, e) for f, e, _ in out} == {
            (("a", "b"), ("x", "y")),
        }

    def test_empty_alignment(self):
        assert extract_phrase_pairs(["a"], ["x"], set(), 7) == []

    def test_unaligned_edge_words_extend_spans(self):
        # foreign "a b", english "x"; only (0,0) linked: b is an unaligned edge
        out = _as_set(["a", "b"], ["x"], {(0, 0)})
        assert {(f, e) for f, e, _ in out} == {
            (("a",), ("x",)),
            (("a", "b"), ("x",)),
        }

    def test_max_phrase_len_bounds_both_sides(self):
        links = {(i, i) for i in range(4)}
        out = extract_phrase_pairs(list("abcd"), list("wxyz"), links, 2)
        assert out and all(fe - fs <= 2 and ee - es <= 2 for fs, fe, es, ee in out)

    def test_rebased_alignment_within_spans(self):
        """The alignment builder rebases the links of the instance at a ref onto its
        spans: the links inside both spans, at least one."""
        src, tgt, links = ["a", "b", "c"], ["x", "y"], {(1, 0), (2, 1)}
        counts = count_phrase_pairs([(src, tgt)], [links])
        spans = extract_phrase_pairs(src, tgt, links, 7)
        assert len(spans) == sum(len(v) if isinstance(v, list) else 1
                                 for v in counts.entries.values())
        for fs, fe, es, ee in spans:
            align = _internal_alignment(counts, es << counts.width | fs, ee - es)
            for i, j in align:
                assert 0 <= i < fe - fs
                assert 0 <= j < ee - es
            assert align == {(i - fs, j - es) for i, j in links
                             if fs <= i < fe and es <= j < ee}
            assert align


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
        got = extract_phrase_pairs(src, tgt, links, max_len)
        expected = brute_force_phrase_instances(src, tgt, links, max_len)
        assert sorted(got) == sorted(inst[:4] for inst in expected)
        assert _as_set(src, tgt, links, max_len) == brute_force_phrase_pairs(
            src, tgt, links, max_len)


def _one_link_pairs(words):
    """One-word sentence pairs, one per (foreign, english) of words, each linked 0-0."""
    return [([f], [e]) for f, e in words], [{(0, 0)}] * len(words)


def _by_pair(table) -> dict:
    """(foreign, english) -> its entry, of every entry of a PhraseTable."""
    return {entry[:2]: entry for entry in table.entries}


class TestScorePhraseTable:
    def test_single_observation(self):
        table = score_phrase_table(*_one_link_pairs([("f0", "e0")]))
        entry = _by_pair(table)[(("f0",), ("e0",))]
        assert entry.inv_phrase_prob == pytest.approx(1.0)
        assert entry.dir_phrase_prob == pytest.approx(1.0)
        assert entry.joint_count == 1

    def test_relative_frequency(self):
        table = score_phrase_table(*_one_link_pairs([("f0", "e0")] * 3 + [("f1", "e0")]))
        assert table.corpus_size == 4
        entry = _by_pair(table)[(("f0",), ("e0",))]
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
            instances.extend((tuple(f[fs:fe]), tuple(e[es:ee]))
                             for fs, fe, es, ee in extract_phrase_pairs(f, e, links, 7))
        table = score_phrase_table(corpus, alignments, 7)

        # independent naive recount
        from collections import Counter

        joint = Counter(instances)
        marg_f = Counter(f for f, _ in instances)
        marg_e = Counter(e for _, e in instances)
        assert set(_by_pair(table)) == set(joint)
        for key, entry in _by_pair(table).items():
            f, e = key
            assert entry.joint_count == joint[key]
            assert entry.inv_phrase_prob == pytest.approx(joint[key] / marg_e[e])
            assert entry.dir_phrase_prob == pytest.approx(joint[key] / marg_f[f])

    def test_conditional_distributions_sum_to_one(self):
        rng = random.Random(5)
        pairs = []
        for _ in range(200):
            f = [f"f{rng.randrange(6)}" for _ in range(rng.randint(1, 3))]
            e = [f"e{rng.randrange(6)}" for _ in range(rng.randint(1, 3))]
            pairs.append((f, e))
        table = score_phrase_table(pairs, [{(0, 0)}] * len(pairs))
        by_e = {}
        by_f = {}
        for (f, e), entry in _by_pair(table).items():
            by_e.setdefault(e, 0.0)
            by_e[e] += entry.inv_phrase_prob
            by_f.setdefault(f, 0.0)
            by_f[f] += entry.dir_phrase_prob
        assert all(abs(total - 1.0) < 1e-9 for total in by_e.values())
        assert all(abs(total - 1.0) < 1e-9 for total in by_f.values())

    def test_most_frequent_alignment_tie_breaks_lexicographically(self):
        a1 = {(0, 0), (1, 1)}
        a2 = {(0, 1), (1, 0)}
        pairs = [(["f0", "f1"], ["e0", "e1"])] * 2
        table = score_phrase_table(pairs, [a2, a1])
        entry = _by_pair(table)[(("f0", "f1"), ("e0", "e1"))]
        assert entry.joint_count == 2
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


def _decoded(counts) -> dict:
    """(foreign, english) -> (joint count, most frequent internal alignment) of
    every entry of counts."""
    return {(entry.foreign_phrase, entry.english_phrase):
            (entry.joint_count, entry.most_frequent_internal_alignment)
            for entry in score_counts(counts, counts.entries)}


class TestScoreCounts:
    @settings(max_examples=100, deadline=None)
    @given(_aligned_corpus(), st.data())
    def test_survivor_scores_equal_full_table_scores(self, drawn, data):
        """Scoring some keys of the extracted counts yields, float for float and in
        (foreign, english) order, the entries that scoring every extracted pair gives."""
        pairs, alignments = drawn
        full = _by_pair(score_phrase_table(pairs, alignments, 7))
        assume(full)
        keys = data.draw(st.sets(st.sampled_from(sorted(full))))
        counts = count_phrase_pairs(pairs, alignments, 7)
        by_phrases = {phrases: key for key, phrases in phrase_keys(counts).items()}
        survivors = score_counts(counts, [by_phrases[key] for key in keys])
        assert list(survivors) == [full[key] for key in sorted(keys)]

    def test_counts_keep_joint_count_and_most_frequent_alignment(self):
        crossing, diagonal = {(0, 1), (1, 0)}, {(0, 0), (1, 1)}
        counts = count_phrase_pairs([(["f0", "f1"], ["e0", "e1"])] * 3,
                                    [crossing, diagonal, crossing])
        assert counts.corpus_size == 3
        one = frozenset({(0, 0)})
        assert _decoded(counts) == {(("f0", "f1"), ("e0", "e1")): (3, crossing),
                                    (("f0",), ("e1",)): (2, one), (("f1",), ("e0",)): (2, one),
                                    (("f0",), ("e0",)): (1, one), (("f1",), ("e1",)): (1, one)}

    @settings(max_examples=200, deadline=None)
    @given(_aligned_corpus(), st.integers(1, 4))
    def test_counts_equal_naive_grouping(self, drawn, max_len):
        # few phrases and alignments, so pairs repeat and alignment counts tie
        pairs, alignments = drawn
        counts = count_phrase_pairs(pairs, alignments, max_len)
        assert counts.corpus_size == len(pairs)
        assert _decoded(counts) == naive_phrase_counts(
            inst[4:] for (f, e), links in zip(pairs, alignments)
            for inst in brute_force_phrase_instances(f, e, links, max_len))

    @settings(max_examples=200, deadline=None)
    @given(_aligned_corpus())
    def test_one_pass_generator_counts_as_the_list_does(self, drawn):
        """The link sets may come from a generator that can be read once: the
        counts, the most frequent alignments and their tie rule are those of the list."""
        pairs, alignments = drawn
        assert (count_phrase_pairs(pairs, (links for links in alignments))
                == count_phrase_pairs(pairs, alignments))

    @pytest.mark.parametrize("pairs, links, shared", [
        ([(["f0"], ["e0"]), (["f1"], ["e1"]), (["f0", "f1"], ["e0"]), (["f1", "f0"], ["e0"])],
         [{(0, 0)}, {(0, 0)}, {(0, 0), (1, 0)}, {(1, 0), (0, 0)}],
         lambda keys, aligns: [(aligns[0], aligns[2]), (aligns[1], aligns[3])]),
        ([(["f0"], ["e0"]), (["f0"], ["e1"]), (["f1", "f0"], ["e0"]), (["f0"], ["e1"])],
         [{(0, 0)}, {(0, 0)}, {(1, 0)}, {(0, 0)}],
         lambda keys, aligns: [(keys[0][0], keys[1][0]), (keys[0][1], keys[2][1])]),
    ], ids=["equal-alignments", "equal-phrase-tuples"])
    def test_equal_alignments_share_one_frozenset(self, pairs, links, shared):
        """Equal alignments are one frozenset, and equal phrase tuples one tuple,
        across the entries of the scored table, though each instance's alignment
        is built on its own."""
        table = score_phrase_table(pairs, links)
        keys = [entry[:2] for entry in table.entries]
        aligns = [entry.most_frequent_internal_alignment for entry in table.entries]
        for a, b in shared(keys, aligns):
            assert a == b and a is b

    def test_link_sets_must_match_the_sentence_pairs(self):
        with pytest.raises(ValueError):
            count_phrase_pairs([(["f0"], ["e0"])] * 2, [{(0, 0)}])


class TestPhraseTableIO:
    def _toy_table(self):
        pairs = [(["f0"], ["e0"]), (["f0", "f1"], ["e0", "e1"]), (["f2"], ["e2"])]
        return score_phrase_table(pairs, [{(0, 0)}, {(0, 0), (1, 1)}, {(0, 0)}])

    def test_round_trip(self, tmp_path):
        table = self._toy_table()
        table.entries.append(PhraseTableEntry(("f3",), ("e3",), 0.5, 0.5, frozenset({(0, 0)}),
                                              1234567891.0))  # every digit of a large count
        path = tmp_path / "pt.txt"
        write_phrase_table(table.entries, table.corpus_size, path)
        back = read_phrase_table(path)
        assert back.corpus_size == table.corpus_size
        assert ([(entry[:2], entry.joint_count) for entry in back.entries]
                == [(entry[:2], entry.joint_count) for entry in table.entries])
        path2 = tmp_path / "pt2.txt"
        write_phrase_table(back.entries, back.corpus_size, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_table_round_trip(self, tmp_path):
        path = tmp_path / "pt.txt"
        write_phrase_table([], 9, path)
        assert path.read_text(encoding="utf-8") == "# N=9\n"
        back = read_phrase_table(path)
        assert len(back) == 0
        assert back.corpus_size == 9

    def test_hash_led_phrase_is_not_a_header(self, tmp_path):
        table = PhraseTable((PhraseTableEntry(f, ("we",), 0.5, 0.5, frozenset({(0, 0)}), 1.0)
                             for f in (("#eu",), ("eu",), ("nos",))), corpus_size=3)
        path = tmp_path / "pt.txt"
        write_phrase_table(table.entries, table.corpus_size, path)
        back = read_phrase_table(path)
        assert set(back.entries) == set(table.entries)
        assert back.corpus_size == 3

    def test_separator_entity_and_header_like_tokens_round_trip(self, tmp_path):
        # unescaped, ("a", "|||") / ("b",) was written `a ||| ||| b ||| ...`
        # and read back as ("a",) / ("|||", "b"); a `# N=5` phrase is a data line
        table = PhraseTable((PhraseTableEntry(f, e, 0.5, 0.5, frozenset({(0, 0)}), 1.0)
                             for f, e in sorted([(("a", "|||"), ("b",)),
                                                 (("&#124;", "&amp;"), ("x|y", "&")),
                                                 (("#", "N=5"), ("#eu",))])), corpus_size=7)
        path = tmp_path / "pt.txt"
        write_phrase_table(table.entries, table.corpus_size, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# N=7"
        assert lines[1].startswith("# N=5 ||| #eu ||| ")
        assert lines[2].startswith("&amp;#124; &amp;amp; ||| x&#124;y &amp; ||| ")
        assert lines[3].startswith("a &#124;&#124;&#124; ||| b ||| ")
        back = read_phrase_table(path)
        assert set(back.entries) == set(table.entries)
        assert back.corpus_size == 7

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
        entries = {}  # (foreign, english) -> its entry, the last drawn for a repeated pair
        for f, e in pairs:
            link = st.tuples(st.integers(0, len(f) - 1), st.integers(0, len(e) - 1))
            links = frozenset(data.draw(st.sets(link, max_size=3)))
            entries[f, e] = PhraseTableEntry(f, e, 0.5, 0.25, links, 2.0)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "pt.txt")
            write_phrase_table([entries[key] for key in sorted(entries)], len(pairs), path)
            back = read_phrase_table(path)
        assert back.corpus_size == len(pairs)
        assert ({e[:2]: e.most_frequent_internal_alignment for e in back.entries}
                == {k: e.most_frequent_internal_alignment for k, e in entries.items()})

    def test_score_formatting_eight_significant_digits(self):
        from dmlex.phrases import _fmt

        assert _fmt(0.333333333333) == "0.33333333"

    @pytest.mark.parametrize("line", [
        "broken line without separators",
        "a b ||| c ||| 0.5 0.5 ||| 0-0 ||| 2 ||| 3",
        "a b ||| c ||| 0.5 0.5 ||| 0-0 ||| 1.5",
        "a b ||| c ||| 0.5 0.5 ||| 0-9 1-0 ||| 2",
        "a b ||| c ||| 0.5 0.5 ||| 2-0 ||| 2",
        "a b ||| c ||| 0.5 0.5 ||| 0-x ||| 2",
        "a b ||| c ||| 0.5 0.5 ||| 0 ||| 2",
        "a b ||| c ||| 0.5 0.5 ||| +0-+0 ||| 2",
        "a b ||| c ||| 0.5 0.5 ||| 0-0_0 ||| 2",
        "a b ||| c ||| 0.5 0.5 ||| \u0660-\u0660 ||| 2",
        "# N=abc",
    ], ids=["no-separators", "six-fields", "count-not-integer", "link-beyond-english",
            "link-beyond-foreign", "link-not-integer", "link-without-dash", "link-sign",
            "link-underscore", "link-arabic-digits", "corpus-size-not-integer"])
    def test_malformed_line_reports_line_number(self, tmp_path, line):
        """A link is two ASCII decimal integers joined by `-` that lie inside the
        pair, and a count is an integer."""
        path = tmp_path / "pt.txt"
        path.write_text(f"# N=1\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^line 2: ") as exc:
            read_phrase_table(path)
        assert str(exc.value).endswith(f" in {path}")

    @pytest.mark.parametrize("pairs", [["b", "a", "a"], ["a", "a"]],
                             ids=["out-of-order", "repeated-pair"])
    def test_pair_not_after_the_one_before_reports_line_number(self, tmp_path, pairs):
        """The reader applies the writer's rule: each pair comes strictly after the
        one before."""
        path = tmp_path / "pt.txt"
        path.write_text("# N=3\n" + "".join(f"{f} ||| so ||| 0.5 0.5 ||| 0-0 ||| 2\n"
                                            for f in pairs), encoding="utf-8")
        with pytest.raises(ValueError, match=r"^line 3: phrase pair .* does not come after") as exc:
            read_phrase_table(path)
        assert str(exc.value).endswith(f" in {path}")

    def test_entries_sorted_lexicographically(self, tmp_path):
        """The writer keeps the order it is given and rejects an entry that does not
        come strictly after the one before, so a written table is sorted with no
        pair twice."""
        entries = self._toy_table().entries
        path = tmp_path / "pt.txt"
        write_phrase_table(entries, 3, path)
        lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
        keys = [tuple(l.split(" ||| ")[:2]) for l in lines]
        assert len(keys) == len(entries) > 2 and keys == sorted(keys)
        for bad in (entries[:1] + entries[2:] + entries[1:2], entries + entries[-1:]):
            with pytest.raises(ValueError, match="does not come after"):
                write_phrase_table(bad, 3, path)
