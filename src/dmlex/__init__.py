"""dmlex: multilingual discourse-marker lexicon induction from parallel corpora."""

from .galechurch import align_corpus, align_paragraph
from .ingest import Document, pair_documents, parse_europarl_file, tokenize
from .lexicon import FilterPolicy, build_lexicon, export_lexicon, load_seed_markers
from .model1 import TranslationTable, symmetrize, train_model1, viterbi_align
from .phrases import PhraseTable, extract_phrase_pairs, score_phrase_table
from .pipeline import PipelineConfig, run_pipeline, validate_config
from .significance import PruneConfig, fisher_neg_log_p, prune

__all__ = [
    "Document", "FilterPolicy", "PhraseTable", "PipelineConfig", "PruneConfig",
    "TranslationTable", "align_corpus", "align_paragraph", "build_lexicon", "export_lexicon",
    "extract_phrase_pairs", "fisher_neg_log_p", "load_seed_markers", "pair_documents",
    "parse_europarl_file", "prune", "run_pipeline", "score_phrase_table", "symmetrize",
    "tokenize", "train_model1", "validate_config", "viterbi_align",
]

__version__ = "0.1.0"
