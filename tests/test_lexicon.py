import itertools
import json

import pytest

from dmlex.lexicon import (
    FilterPolicy,
    LexiconRecord,
    MarkerCandidate,
    build_lexicon,
    export_lexicon,
    filter_candidates,
    load_seed_markers,
    read_candidates,
    select_candidates,
    strip_punctuation_context,
    write_candidates,
)
from dmlex.phrases import PhraseTable, PhraseTableEntry

from helpers import reference_marker_match


def _entry(foreign, english, inv=0.5, dir_=0.5, joint=3.0, alignment=None):
    foreign = tuple(foreign.split())
    english = tuple(english.split())
    if alignment is None:
        alignment = frozenset(
            (min(i, len(foreign) - 1), j) for j, i in enumerate(range(len(english)))
        )
    return PhraseTableEntry(
        foreign_phrase=foreign,
        english_phrase=english,
        inv_phrase_prob=inv,
        dir_phrase_prob=dir_,
        most_frequent_internal_alignment=alignment,
        joint_count=joint,
    )


def _table(entries, n=100):
    table = PhraseTable(corpus_size=n)
    for entry in entries:
        table.add(entry)
    return table


class TestLoadSeedMarkers:
    def test_basic(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("above all\nsince\n", encoding="utf-8")
        seeds = load_seed_markers(path)
        assert seeds == [("above", "all"), ("since",)]

    def test_case_fold_dedup(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("Since\nsince\n", encoding="utf-8")
        assert load_seed_markers(path) == [("since",)]

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("\n# comment\nwell\n\n", encoding="utf-8")
        assert load_seed_markers(path) == [("well",)]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_seed_markers(path)

    def test_lines_end_where_text_mode_ends_them(self, tmp_path):
        """Only \\n, \\r\\n and \\r end a line: a form feed, NEL or line
        separator is whitespace inside it, so the comment's NEL starts no marker."""
        path = tmp_path / "seeds.txt"
        path.write_bytes("as\x0cwell\r\nin\x85fact\rabove\u2028all\n# \x85since\n"
                         .encode("utf-8"))
        assert load_seed_markers(path) == [("as", "well"), ("in", "fact"), ("above", "all")]

    def test_invalid_utf8_names_the_byte_and_the_file(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_bytes(b"since\nwell\xfb\n")
        with pytest.raises(ValueError) as exc:
            load_seed_markers(path)
        assert str(exc.value) == f"byte 10: invalid UTF-8 in {path}"


class TestSelectCandidates:
    def test_followed_by_punctuation(self):
        table = _table([_entry("sobretudo ,", "above all ,")])
        cands = select_candidates(table, ("above", "all"), language="pt")
        assert len(cands) == 1
        assert cands[0].context == "followed"
        assert cands[0].translation == ("sobretudo", ",")

    def test_trailing_word_does_not_match(self):
        table = _table([_entry("sobretudo nos", "above all we")])
        assert select_candidates(table, ("above", "all")) == []

    def test_exact_match_context_none(self):
        table = _table([_entry("pois", "since")])
        cands = select_candidates(table, ("since",))
        assert len(cands) == 1
        assert cands[0].context == "none"

    def test_preceded_and_both(self):
        table = _table(
            [_entry(", pois", ", since"), _entry(", pois ,", ", since ,")]
        )
        contexts = {c.context for c in select_candidates(table, ("since",))}
        assert contexts == {"preceded", "both"}

    def test_matches_reference_matcher_exhaustively(self):
        # every english side of length <= 4 over a toy vocabulary + punctuation
        vocab = ["aa", "bb", ",", "."]
        punct = {",", "."}
        sides = []
        for length in range(1, 5):
            sides.extend(itertools.product(vocab, repeat=length))
        table = _table([_entry("ff", " ".join(side)) for side in sides])
        for marker in [("aa",), ("aa", "bb")]:
            got = {
                tuple(c.raw_entry.english_phrase): c.context
                for c in select_candidates(table, marker)
            }
            expected = {}
            for side in sides:
                ctx = reference_marker_match(side, marker, punct)
                if ctx is not None:
                    expected[side] = ctx
            assert got == expected


class TestStripPunctuationContext:
    def _cand(self, translation, context="followed"):
        return MarkerCandidate(
            marker=("above", "all"),
            language="pt",
            translation=tuple(translation.split()),
            raw_entry=_entry(translation, "above all ,"),
            context=context,
        )

    def test_trailing_comma_removed(self):
        assert strip_punctuation_context(self._cand("sobretudo ,")).translation == ("sobretudo",)

    def test_punctuation_only_becomes_empty(self):
        assert strip_punctuation_context(self._cand(", ,")).translation == ()

    def test_clean_translation_unchanged(self):
        cand = self._cand("avant tout", context="none")
        assert strip_punctuation_context(cand).translation == ("avant", "tout")

    def test_context_field_unchanged(self):
        assert strip_punctuation_context(self._cand("sobretudo ,")).context == "followed"


class TestFilterCandidates:
    def _cand(self, entry, marker=("above", "all"), context="none"):
        translation = tuple(
            t for t in entry.foreign_phrase if not all(ch in ",.;:!?" for ch in t)
        )
        return MarkerCandidate(
            marker=marker,
            language="pt",
            translation=translation,
            raw_entry=entry,
            context=context,
        )

    def test_score_is_probability_product(self):
        entry = _entry("sobretudo", "above all", inv=0.5, dir_=0.6,
                       alignment=frozenset({(0, 0), (0, 1)}))
        kept = filter_candidates([self._cand(entry)], FilterPolicy())
        assert len(kept) == 1
        assert kept[0][2].score == pytest.approx(0.30)

    def test_unaligned_marker_token_rejected(self):
        entry = _entry("sobretudo", "above all", alignment=frozenset({(0, 0)}))
        assert filter_candidates([self._cand(entry)], FilterPolicy()) == []

    def test_rows_keep_entry_count_and_context(self):
        entry = _entry("sobretudo ,", "above all ,", joint=7.0,
                       alignment=frozenset({(0, 0), (0, 1)}))
        cand = self._cand(entry, context="followed")
        record = LexiconRecord(("sobretudo",), score=0.25, joint_count=7.0, context="followed")
        assert filter_candidates([cand], FilterPolicy()) == [(("above", "all"), "pt", record)]

    def test_marker_offset_respects_preceding_punctuation(self):
        # english ", above all": marker tokens sit at positions 1 and 2
        entry = _entry(", sobretudo", ", above all",
                       alignment=frozenset({(0, 0), (1, 1), (1, 2)}))
        cand = self._cand(entry, context="preceded")
        assert len(filter_candidates([cand], FilterPolicy())) == 1

    def test_duplicate_translations_keep_max_score(self):
        e1 = _entry("sobretudo", "above all", inv=0.5, dir_=0.6,
                    alignment=frozenset({(0, 0), (0, 1)}))
        e2 = _entry("sobretudo ,", "above all ,", inv=0.4, dir_=0.3,
                    alignment=frozenset({(0, 0), (0, 1)}))
        kept = filter_candidates(
            [self._cand(e1), self._cand(e2, context="followed")], FilterPolicy()
        )
        assert len(kept) == 1
        assert kept[0][2].score == pytest.approx(0.30)

    def test_probability_floors(self):
        entry = _entry("sobretudo", "above all", inv=0.01, dir_=0.9,
                       alignment=frozenset({(0, 0), (0, 1)}))
        assert filter_candidates([self._cand(entry)], FilterPolicy()) == []

    def test_joint_count_floor(self):
        entry = _entry("sobretudo", "above all", joint=1.0,
                       alignment=frozenset({(0, 0), (0, 1)}))
        assert filter_candidates([self._cand(entry)], FilterPolicy(min_joint_count=2)) == []

    def test_length_delta(self):
        entry = _entry("um dois tres quatro cinco seis", "above all",
                       alignment=frozenset({(i, j) for i in range(6) for j in range(2)}))
        assert filter_candidates([self._cand(entry)], FilterPolicy(max_length_delta=3)) == []

    def test_punctuation_only_translation_rejected(self):
        entry = _entry(",", "above all", alignment=frozenset({(0, 0), (0, 1)}))
        cand = MarkerCandidate(
            marker=("above", "all"), language="pt", translation=(),
            raw_entry=entry, context="none",
        )
        assert filter_candidates([cand], FilterPolicy()) == []

    def test_tightening_any_threshold_shrinks_survivors(self):
        import random

        rng = random.Random(17)
        cands = []
        for k in range(60):
            entry = _entry(
                f"t{k}", "above all",
                inv=rng.uniform(0, 1), dir_=rng.uniform(0, 1),
                joint=float(rng.randint(1, 6)),
                alignment=frozenset({(0, 0), (0, 1)}),
            )
            cands.append(self._cand(entry))
        base = FilterPolicy(min_dir_phrase_prob=0.2, min_inv_phrase_prob=0.2,
                            min_joint_count=2, max_length_delta=3)
        baseline = {rec.translation for _, _, rec in filter_candidates(cands, base)}
        tighter = [
            FilterPolicy(min_dir_phrase_prob=0.5, min_inv_phrase_prob=0.2, min_joint_count=2),
            FilterPolicy(min_dir_phrase_prob=0.2, min_inv_phrase_prob=0.5, min_joint_count=2),
            FilterPolicy(min_dir_phrase_prob=0.2, min_inv_phrase_prob=0.2, min_joint_count=4),
            FilterPolicy(min_dir_phrase_prob=0.2, min_inv_phrase_prob=0.2,
                         min_joint_count=2, max_length_delta=0),
        ]
        for policy in tighter:
            survivors = {rec.translation for _, _, rec in filter_candidates(cands, policy)}
            assert survivors <= baseline


def _scored(marker, lang, translation, score, joint=3.0, context="none"):
    """A (marker, language, LexiconRecord) row, as filter_candidates returns it."""
    return marker, lang, LexiconRecord(tuple(translation.split()), score, joint, context)


def _rows(per_language):
    return [row for lang in per_language for row in per_language[lang]]


class TestBuildLexicon:
    def test_grouping_and_ranking(self):
        marker = ("above", "all")
        per_language = {
            "pt": [
                _scored(marker, "pt", "sobretudo", 0.3),
                _scored(marker, "pt", "acima de tudo", 0.2),
            ],
            "fr": [_scored(marker, "fr", "avant tout", 0.4)],
        }
        lex = build_lexicon(_rows(per_language))
        langs = lex[marker]
        assert [r.translation for r in langs["pt"]] == [
            ("sobretudo",), ("acima", "de", "tudo"),
        ]
        assert [r.translation for r in langs["fr"]] == [("avant", "tout")]

    def test_markers_without_candidates_keep_explicit_gaps(self):
        seeds = [("since",), ("well",)]
        lex = build_lexicon(_rows({"pt": [_scored(("since",), "pt", "pois", 0.5)]}), seeds)
        assert lex[("well",)] == {}
        assert ("since",) in lex

    def test_equal_scores_order_lexicographically(self):
        marker = ("since",)
        per_language = {
            "pt": [
                _scored(marker, "pt", "pois", 0.2),
                _scored(marker, "pt", "desde", 0.2),
            ]
        }
        lex = build_lexicon(_rows(per_language))
        assert [r.translation for r in lex[marker]["pt"]] == [
            ("desde",), ("pois",),
        ]

    def test_rows_keep_first_seen_language_order(self):
        rows = _rows({"pt": [_scored(("since",), "pt", "pois", 0.5)],
                      "fr": [_scored(("since",), "fr", "puisque", 0.5)]})
        assert list(build_lexicon(rows)[("since",)]) == ["pt", "fr"]


class TestCandidatesFile:
    @pytest.mark.parametrize("per_language", [{}, {
        "pt": [_scored(("above", "all"), "pt", "acima de tudo", 0.25, context="both")],
        "fr": [_scored(("since",), "fr", "puisque", 0.5, joint=12.0),
               _scored(("since",), "fr", "car", 0.25, joint=1234567.0)],
    }], ids=["header-only", "two-languages"])
    def test_round_trip(self, tmp_path, per_language):
        rows = _rows(per_language)
        path = tmp_path / "candidates.tsv"
        write_candidates(rows, path)
        assert read_candidates(path) == rows

    def test_scores_read_back_at_written_precision(self, tmp_path):
        path = tmp_path / "candidates.tsv"
        write_candidates([_scored(("since",), "pt", "pois", 1 / 3)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "marker\tlanguage\ttranslation\tscore\tjoint_count\tcontext"
        assert lines[1] == "since\tpt\tpois\t0.333333\t3\tnone"
        [(_, _, rec)] = read_candidates(path)
        assert rec.score == 0.333333


class TestExportLexicon:
    def _lexicon(self):
        marker = ("above", "all")
        per_language = {
            "pt": [
                _scored(marker, "pt", "sobretudo", 0.3),
                _scored(marker, "pt", "acima de tudo", 0.2),
            ],
            "fr": [_scored(marker, "fr", "avant tout", 0.4)],
        }
        return build_lexicon(_rows(per_language))

    def test_tsv_lines(self, tmp_path):
        lex = self._lexicon()
        lex[("since",)] = {"pt": [LexiconRecord(("pois",), 0.5, 1234567.0, "none")]}
        path = tmp_path / "lex.tsv"
        export_lexicon(lex, "tsv", path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "marker\tlanguage\ttranslation\tscore\tjoint_count"
        assert len(lines) == 5
        assert "above all\tpt\tsobretudo\t0.3\t3" in lines
        assert "since\tpt\tpois\t0.5\t1234567" in lines  # every digit of a large count

    def test_empty_lexicon_header_only(self, tmp_path):
        path = tmp_path / "lex.tsv"
        export_lexicon({}, "tsv", path)
        assert path.read_text(encoding="utf-8") == (
            "marker\tlanguage\ttranslation\tscore\tjoint_count\n"
        )

    def test_structured_document(self, tmp_path):
        path = tmp_path / "lex.json"
        export_lexicon(self._lexicon(), "structured", path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)

        def record(translation, score):
            return {"translation": translation, "score": score, "joint_count": 3.0,
                    "context": "none"}

        assert doc == {"markers": [{"marker": "above all", "languages": {
            "fr": [record("avant tout", 0.4)],
            "pt": [record("sobretudo", 0.3), record("acima de tudo", 0.2)],
        }}]}

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export_lexicon(self._lexicon(), "structured", p1)
        export_lexicon(self._lexicon(), "structured", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_lexicon({}, "xml", tmp_path / "lex.xml")
