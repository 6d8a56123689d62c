"""Europarl-style corpus ingestion: parsing, tokenization, paragraph pairing."""

import os
from collections import namedtuple

# Punctuation characters split into standalone tokens.
PUNCTUATION = set(".,;:!?\"'()[]-—…«»")

MARKUP_PREFIXES = ("<CHAPTER", "<SPEAKER", "<P>")


# A tokenized, lowercased document keeping paragraph anchors: paragraphs is a
# list of paragraphs, and a paragraph a list of token lists.
Document = namedtuple("Document", "file_id language paragraphs")


def read_text(path) -> str:
    """The text of a UTF-8 file, decoded in one go; a bad byte raises
    ValueError naming its offset and the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"byte {exc.start}: invalid UTF-8 in {path}") from None


def text_lines(text: str) -> list:
    """text split only where text mode ends a line (\\n, \\r\\n, \\r), not also at the
    \\x0b, \\x0c, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029 that str.splitlines() splits at."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_europarl_file(raw: str) -> list:
    """Document-ordered paragraphs, each a list of content lines.

    A <CHAPTER>, <SPEAKER> or <P> line closes the current paragraph; a
    content line opens one when none is open, so content appearing before
    any marker is accepted.
    """
    paragraphs = []
    current = None
    for line in text_lines(raw):
        if not line.strip():
            continue
        if line.startswith(MARKUP_PREFIXES):
            current = None
        else:
            if current is None:
                current = []
                paragraphs.append(current)
            current.append(line)
    return paragraphs


def tokenize(sentence: str) -> list:
    """Split a line into tokens on whitespace and the fixed punctuation set.

    Apostrophes and hyphens flanked by letters stay inside the word
    (aujourd'hui, well-known). No character other than whitespace is lost.
    """
    tokens = []
    current = []

    def flush():
        if current:
            tokens.append("".join(current))
            current.clear()

    n = len(sentence)
    for idx, ch in enumerate(sentence):
        if ch.isspace():
            flush()
        elif ch in PUNCTUATION:
            if ch in "'-" and 0 < idx < n - 1 and sentence[idx - 1].isalpha() and sentence[idx + 1].isalpha():
                current.append(ch)
            else:
                flush()
                tokens.append(ch)
        else:
            current.append(ch)
    flush()
    return tokens


def normalize_case(tokens: list) -> list:
    return [tok.lower() for tok in tokens]


def build_document(raw_paragraphs: list, language: str, file_id: str) -> Document:
    """Tokenize + lowercase parsed paragraphs, dropping empty sentences/paragraphs."""
    paragraphs = []
    for para_lines in raw_paragraphs:
        sentences = []
        for line in para_lines:
            tokens = normalize_case(tokenize(line))
            if tokens:
                sentences.append(tokens)
        if sentences:
            paragraphs.append(sentences)
    return Document(file_id=file_id, language=language, paragraphs=paragraphs)


def pair_documents(src: Document, tgt: Document) -> list:
    """(src_sentences, tgt_sentences) paragraph pairs, paired positionally; on
    count mismatch each document collapses into one paragraph (the corpus
    collapse rule)."""
    if not src.paragraphs or not tgt.paragraphs:
        import logging  # the only use: a CLI start that pairs nothing skips it

        logging.getLogger(__name__).warning(
            "empty document side for %s (%s: %d paragraphs, %s: %d paragraphs)",
            src.file_id, src.language, len(src.paragraphs), tgt.language, len(tgt.paragraphs),
        )
        return []
    if len(src.paragraphs) == len(tgt.paragraphs):
        return list(zip(src.paragraphs, tgt.paragraphs))
    src_all = [sent for para in src.paragraphs for sent in para]
    tgt_all = [sent for para in tgt.paragraphs for sent in para]
    return [(src_all, tgt_all)]


def load_document(path, language: str, file_id: str | None = None) -> Document:
    if file_id is None:
        file_id = os.path.basename(str(path))
    return build_document(parse_europarl_file(read_text(path)), language, file_id)


def write_tokenized_document(doc: Document, path) -> None:
    """One sentence per line, tokens space-separated, blank line between paragraphs."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, paragraph in enumerate(doc.paragraphs):
            if k:
                fh.write("\n")
            for sentence in paragraph:
                fh.write(" ".join(sentence) + "\n")


def read_tokenized_document(path, language: str, file_id: str | None = None) -> Document:
    if file_id is None:
        file_id = os.path.basename(str(path))
    paragraphs = []
    current = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip():
                if current:
                    paragraphs.append(current)
                    current = []
            else:
                current.append(line.split())
    if current:
        paragraphs.append(current)
    return Document(file_id=file_id, language=language, paragraphs=paragraphs)
