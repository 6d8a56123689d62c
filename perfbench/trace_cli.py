"""Run the dmlex CLI with a span recorded around every call into a layer.

    python3 perfbench/trace_cli.py SPANS.json <dmlex arguments...>

The program is not edited: before `dmlex.cli.main` runs, the functions
listed in TRACED are replaced on their modules by timing wrappers, and so
are the `PipelineRunner.stage_*` methods. `pipeline.py` reaches every stage
function through its module attribute, so the wrappers see each call. Spans
stay in memory and are written to SPANS.json when the CLI returns; the exit
code is the CLI's.

A span is [id, parent id, name, start, end, thread CPU seconds, pid, tid,
counts]; start and end are `time.perf_counter()` readings. Counts are work
sizes taken from the call's arguments and result (see COUNTERS).
"""

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

# layer -> {function: metric its time is charged to}. Only the functions the
# pipeline calls, plus align_paragraph for its DP size; per-token helpers
# such as galechurch.length_cost stay unwrapped, since a wrapper there would
# cost more than the call.
TRACED = {
    "ingest": {
        "load_document": "ingest.s",
        "write_tokenized_document": "ingest.s",
        "read_tokenized_document": "ingest.s",
        "pair_documents": "ingest.s",
    },
    "galechurch": {
        "align_corpus": "galechurch.s",
        "align_paragraph": "galechurch.s",
        "write_aligned_corpus": "galechurch.io_s",
        "read_aligned_corpus": "galechurch.io_s",
    },
    "model1": {
        "train_model1": "model1.em_s",
        "viterbi_align": "model1.viterbi_s",
        "symmetrize": "model1.viterbi_s",
        "write_translation_table": "model1.io_s",
        "read_translation_table": "model1.io_s",
    },
    "phrases": {
        "extract_phrase_pairs": "phrases.extract_s",
        "score_phrase_table": "phrases.score_s",
        "write_phrase_table": "phrases.io_s",
        "read_phrase_table": "phrases.io_s",
    },
    "significance": {
        "contingency_counts": "significance.counts_s",
        "prune": "significance.prune_s",
        "write_prune_report": "significance.io_s",
    },
    "lexicon": {
        "load_seed_markers": "lexicon.s",
        "select_candidates": "lexicon.s",
        "strip_punctuation_context": "lexicon.s",
        "filter_candidates": "lexicon.s",
        "export_lexicon": "lexicon.s",
    },
}

STAGE_METHODS = ["stage_ingest", "stage_align", "stage_wordalign", "stage_phrases",
                 "stage_prune", "stage_markers", "stage_lexicon"]


def _model1_counts(bound, table):
    null = 1 if bound["use_null"] else 0
    per_iteration = sum((len(cond) + null) * len(gen) for cond, gen in bound["pairs"])
    return {"model1.link_evals": per_iteration * bound["iterations"],
            "model1.ttable_entries": sum(len(d) for d in table.probs.values())}


def _pair_counts(bound, pairs):
    src, tgt = bound["src"], bound["tgt"]
    collapsed = bool(src.paragraphs and tgt.paragraphs
                     and len(src.paragraphs) != len(tgt.paragraphs))
    return {"galechurch.collapsed_files": int(collapsed)}


def _contingency_counts(bound, counts):
    return {"significance.entries": len(counts),
            "significance.distinct_tables": len({(c.c_s, c.c_t, c.c_st)
                                                 for c in counts.values()})}


# "layer.function" -> f(bound arguments, result) -> {count name: value}; the
# counts of all spans of an op are summed by name.
COUNTERS = {
    "ingest.load_document": lambda b, doc: {
        "ingest.sentences": sum(len(p) for p in doc.paragraphs)},
    "ingest.pair_documents": _pair_counts,
    "galechurch.align_paragraph": lambda b, r: {
        "galechurch.dp_cells": (len(b["src"]) + 1) * (len(b["tgt"]) + 1)},
    "model1.train_model1": _model1_counts,
    "phrases.extract_phrase_pairs": lambda b, r: {"phrases.instances": len(r)},
    "phrases.score_phrase_table": lambda b, table: {"phrases.entries": len(table)},
    "significance.contingency_counts": _contingency_counts,
    "significance.prune": lambda b, r: {"significance.kept": r[1].kept_count},
    "lexicon.select_candidates": lambda b, r: {"lexicon.candidates": len(r)},
    "lexicon.filter_candidates": lambda b, r: {"lexicon.filter_in": len(b["candidates"]),
                                               "lexicon.filter_kept": len(r)},
    "pipeline._sha256_file": lambda b, r: {
        "pipeline.bytes_hashed": os.path.getsize(b["path"])},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [self.root]
        return stack

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1]
            stack.append(span_id)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
            counts = None
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments, result)
            self.spans.append([span_id, parent, name, t0, t1, cpu1 - cpu0, os.getpid(),
                               threading.get_native_id(), counts])
            return result

        return traced

    def install(self):
        from dmlex import galechurch, ingest, lexicon, model1, phrases, pipeline, significance

        modules = {"ingest": ingest, "galechurch": galechurch, "model1": model1,
                   "phrases": phrases, "significance": significance, "lexicon": lexicon}
        for layer, functions in TRACED.items():
            for fn_name in functions:
                module = modules[layer]
                setattr(module, fn_name, self.wrap(f"{layer}.{fn_name}", getattr(module, fn_name)))
        pipeline._sha256_file = self.wrap("pipeline._sha256_file", pipeline._sha256_file)
        for method in STAGE_METHODS:
            setattr(pipeline.PipelineRunner, method,
                    self.wrap(f"pipeline.{method}", getattr(pipeline.PipelineRunner, method)))

    def run_root(self, fn, *args):
        """Call fn inside the root span, which every other span descends from."""
        self.root = next(self._ids)
        self._local.stack = [self.root]
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([self.root, None, "cli.main", t0, time.perf_counter(),
                               time.thread_time() - cpu0, os.getpid(),
                               threading.get_native_id(), None])


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from dmlex import cli

    try:
        code = tracer.run_root(cli.main, cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
