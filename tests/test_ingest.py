import pytest
from hypothesis import given
from hypothesis import strategies as st

from dmlex.ingest import (
    Document,
    build_document,
    load_document,
    normalize_case,
    pair_documents,
    parse_europarl_file,
    read_tokenized_document,
    text_lines,
    tokenize,
    write_tokenized_document,
)


class TestParseEuroparlFile:
    def test_minimal_paragraph(self):
        paragraphs = parse_europarl_file("<P>\nHello world.\n")
        assert paragraphs == [["Hello world."]]

    def test_two_paragraphs_under_chapter_and_speaker(self):
        raw = "<CHAPTER 1>\n<SPEAKER 2>\n<P>\nA.\nB.\n<P>\nC.\n"
        assert parse_europarl_file(raw) == [["A.", "B."], ["C."]]

    def test_empty_input(self):
        assert parse_europarl_file("") == []

    def test_content_before_structure_is_accepted(self):
        raw = "Loose line.\n<P>\nAnchored.\n"
        assert parse_europarl_file(raw) == [["Loose line."], ["Anchored."]]

    # str.splitlines() splits at these too; text mode does not
    NOT_LINE_ENDS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

    @pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=lambda c: f"U+{ord(c):04X}")
    def test_lines_end_where_text_mode_ends_them(self, tmp_path, char):
        """\\n, \\r\\n and \\r end a corpus line, as they end a seed-list line;
        U+0085, say, is a cp1252 ellipsis decoded as Latin-1, and stays whitespace
        inside its sentence."""
        path = tmp_path / "ep-0.txt"
        path.write_bytes(f"<P>\r\nwir sind{char}hier .\rja .\n".encode("utf-8"))
        assert load_document(path, "de").paragraphs == [
            [["wir", "sind", "hier", "."], ["ja", "."]]]

    def test_text_lines_split_as_a_text_mode_read(self, tmp_path):
        text = "a\r\nb\rc\n\n" + "".join(f"{char}x" for char in self.NOT_LINE_ENDS) + "\r\r\n"
        path = tmp_path / "text.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            assert text_lines(text) == fh.read().split("\n")
        assert text_lines(text)[:4] == ["a", "b", "c", ""]

    def test_invalid_utf8_reports_byte_offset(self, tmp_path):
        path = tmp_path / "ep-0.txt"
        path.write_bytes(b"<P>\nok\xff bad\n")
        with pytest.raises(ValueError) as exc:
            load_document(path, "xx")
        assert str(exc.value) == f"byte 6: invalid UTF-8 in {path}"


class TestStripMarkup:
    def test_identity_on_content(self):
        raw = "<P>\n  A. <b>\nB.\n<P>\nC.\n"
        assert parse_europarl_file(raw) == [["  A. <b>", "B."], ["C."]]

    def test_every_marker_closes_a_paragraph(self):
        raw = "<P>\nA.\n<SPEAKER 1>\nB.\n<CHAPTER 2>\nC.\n"
        assert parse_europarl_file(raw) == [["A."], ["B."], ["C."]]

    def test_markup_only_document(self):
        assert parse_europarl_file("<CHAPTER 1>\n<SPEAKER 1>\n<P>\n") == []

    def test_chapter_nesting_flattens(self):
        raw = "<CHAPTER 1>\n<P>\nA.\n<CHAPTER 2>\n<P>\nB.\n"
        assert parse_europarl_file(raw) == [["A."], ["B."]]

    def test_line_count_preserved(self):
        raw = "<CHAPTER 1>\n<P>\nA.\nB.\n<P>\nC.\n<SPEAKER 9>\n<P>\nD.\n"
        paragraphs = parse_europarl_file(raw)
        assert sum(len(p) for p in paragraphs) == 4


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("above all, we agree.") == ["above", "all", ",", "we", "agree", "."]

    def test_single_token(self):
        assert tokenize("word") == ["word"]

    def test_whitespace_collapse(self):
        assert tokenize("a  b") == ["a", "b"]

    def test_intra_word_apostrophe_kept(self):
        assert tokenize("aujourd'hui") == ["aujourd'hui"]

    def test_intra_word_hyphen_kept(self):
        assert tokenize("well-known fact") == ["well-known", "fact"]

    def test_leading_quote_split(self):
        assert tokenize("'quoted'") == ["'", "quoted", "'"]

    def test_whitespace_only_line(self):
        assert tokenize("   ") == []

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
    def test_token_conservation(self, line):
        tokens = tokenize(line)
        assert "".join(tokens) == "".join(line.split())
        assert all(" " not in tok for tok in tokens)


class TestNormalizeCase:
    def test_basic(self):
        assert normalize_case(["Above", "ALL"]) == ["above", "all"]

    def test_already_lowercase(self):
        assert normalize_case(["é"]) == ["é"]

    def test_unicode_mapping(self):
        assert normalize_case(["Straße"]) == ["straße"]

    @given(st.lists(st.text(min_size=1, max_size=10), max_size=8))
    def test_idempotent(self, tokens):
        once = normalize_case(tokens)
        assert normalize_case(once) == once


class TestPairDocuments:
    @staticmethod
    def _doc(paragraphs, lang="en"):
        return Document(file_id="f", language=lang, paragraphs=paragraphs)

    def test_equal_counts_pair_positionally(self):
        src = self._doc([[["a"]], [["b"]], [["c"]]])
        tgt = self._doc([[["x"]], [["y"]], [["z"]]], "pt")
        pairs = pair_documents(src, tgt)
        assert len(pairs) == 3
        assert pairs[1] == ([["b"]], [["y"]])
        assert [s for s, _ in pairs] == src.paragraphs
        assert [t for _, t in pairs] == tgt.paragraphs

    def test_mismatched_counts_collapse(self):
        src = self._doc([[["a"]], [["b"]], [["c"]]])
        tgt = self._doc([[["x"], ["y"]], [["z"]]], "pt")
        pairs = pair_documents(src, tgt)
        assert pairs == [([["a"], ["b"], ["c"]], [["x"], ["y"], ["z"]])]

    def test_empty_side_yields_no_pairs(self):
        src = self._doc([])
        tgt = self._doc([[["x"]], [["y"]]], "pt")
        assert pair_documents(src, tgt) == []


class TestBuildDocument:
    def test_invariants(self):
        raw = parse_europarl_file("<P>\nAbove ALL, we agree.\n<P>\n  \n<P>\nOk.\n")
        doc = build_document(raw, "en", "f1")
        assert doc.file_id == "f1"
        for paragraph in doc.paragraphs:
            assert paragraph
            for sentence in paragraph:
                assert sentence
                for token in sentence:
                    assert not any(ch.isspace() for ch in token)
                    assert token == token.lower()
                    assert not token.startswith("<")
        assert len(doc.paragraphs) == 2  # whitespace-only paragraph dropped


class TestTokenizedRoundTrip:
    def test_paragraph_boundaries_survive(self, tmp_path):
        doc = Document(
            file_id="f",
            language="en",
            paragraphs=[[["a", "b"], ["c"]], [["d", "."]]],
        )
        path = tmp_path / "doc.txt"
        write_tokenized_document(doc, path)
        back = read_tokenized_document(path, "en", "f")
        assert back.paragraphs == doc.paragraphs
