"""Stage-graph orchestration with content-hash caching and run reports."""

import gc
import hashlib
import json
import os
import time
from collections import namedtuple

from . import galechurch, ingest, lexicon as lexmod, model1, phrases, significance

STAGES = ["ingest", "align", "wordalign", "phrases", "prune", "markers", "lexicon"]
PAIR_STAGES = STAGES[1:-1]  # run per foreign language, in order
# The format of each stage's files and record, part of its cache key: bump a
# stage's version with any change to the bytes its writers emit or the stats its
# record holds, so a record left by an older build reruns instead of staying a hit.
FORMAT_VERSIONS = {"ingest": 1, "align": 1, "wordalign": 2, "phrases": 3, "prune": 4,
                   "markers": 1, "lexicon": 1}

_TRUE = {"true", "yes", "1", "on"}
_FALSE = {"false", "no", "0", "off"}


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# prune_config: a significance.PruneConfig; filter_policy: a lexicon.FilterPolicy
PipelineConfig = namedtuple("PipelineConfig", "corpus_root english_code foreign_codes markers_file "
                            "output_dir cache em_iterations symmetrization max_phrase_len "
                            "prune_config filter_policy")


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in _TRUE:
        return True
    if v in _FALSE:
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _parse_prune_mode(value: str) -> significance.PruneConfig:
    v = value.strip()
    if v == "alpha":
        return significance.PruneConfig("alpha")
    if v in ("alpha+e", "alpha_plus_epsilon"):
        return significance.PruneConfig("alpha_plus_epsilon")
    return significance.PruneConfig("custom", float(v))


def _at_least_one(key, n):
    return f"{key} must be at least 1" if n < 1 else None


def _known_heuristic(key, name):
    return (None if name in model1.HEURISTICS else
            f"unknown {key} {name!r}; expected one of {', '.join(model1.HEURISTICS)}")


# key -> (parser, default as a string or None if required, check or None); a
# check returns the error for a parsed value it rejects. The Gale-Church
# parameters, Model 1's NULL word and floor, and the epsilon of alpha+epsilon
# are the method's constants, defined in their modules.
_KNOWN_KEYS = {
    "corpus_root": (str, None, None),
    "english": (str, None, None),
    "foreign": (str, None, None),
    "markers": (str, None, None),
    "output": (str, "out", None),
    "cache": (_parse_bool, "true", None),
    "jobs": (int, "1", _at_least_one),  # checked, then unused: see cli.py's --jobs
    "em.iterations": (int, "5", _at_least_one),
    "wordalign.symmetrization": (str, "grow-diag-final-and", _known_heuristic),
    "phrases.max_len": (int, "7", _at_least_one),
    "prune.mode": (_parse_prune_mode, "alpha_plus_epsilon", None),
    "filter.min_dir_phrase_prob": (float, "0.05", None),
    "filter.min_inv_phrase_prob": (float, "0.05", None),
    "filter.min_joint_count": (int, "2", None),
    "filter.max_length_delta": (int, "3", None),
}


def parse_config_file(path) -> dict:
    """Flat `key = value` lines with dotted keys; `#` starts a comment. A bad
    UTF-8 byte raises ValueError naming its offset and the file."""
    values = {}
    errors = []
    for lineno, line in enumerate(ingest.text_lines(ingest.read_text(path)), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected `key = value`")
            continue
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    if errors:
        raise ConfigError(errors)
    return values


def validate_config(path, overrides: dict | None = None) -> PipelineConfig:
    """Resolve a config file into a PipelineConfig, accumulating every error."""
    values = parse_config_file(path)
    if overrides:
        values.update(overrides)
    errors = []

    for key in values:
        if key not in _KNOWN_KEYS:
            errors.append(f"unknown config key: {key}")

    parsed = {}
    for key, (parser, default, check) in _KNOWN_KEYS.items():
        raw = values.get(key, default)
        if raw is None:
            errors.append(f"missing required config key: {key}")
            continue
        try:
            parsed[key] = parser(raw)
        except ValueError as exc:
            errors.append(f"bad value for {key}: {exc}")
            continue
        if check and (error := check(key, parsed[key])):
            errors.append(error)

    if len(parsed) < len(_KNOWN_KEYS):  # the checks below need every value
        raise ConfigError(errors)

    english = parsed["english"]
    foreign = [c.strip() for c in parsed["foreign"].split(",")]
    codes = [english, *foreign]
    for k, code in enumerate(codes):  # each names its own directories under the output
        if code in ("", ".", "..") or os.path.basename(code) != code:
            errors.append(f"language code {code!r} is not a directory name")
        elif code in codes[:k]:
            errors.append(f"language code {code!r} repeated in english/foreign")

    base = os.path.dirname(os.path.abspath(path))  # os.path.join keeps absolute paths
    corpus_root = os.path.join(base, parsed["corpus_root"])
    markers_file = os.path.join(base, parsed["markers"])

    if not os.path.isdir(corpus_root):
        errors.append(f"corpus_root does not exist: {corpus_root}")
    else:
        english_dir = os.path.join(corpus_root, english)
        if not os.path.isdir(english_dir):
            errors.append(f"missing corpus directory: {english_dir}")
        else:
            english_files = sorted(os.listdir(english_dir))
            if not english_files:
                errors.append(f"no corpus files under {english_dir}")
            for code in foreign:
                lang_dir = os.path.join(corpus_root, code)
                if not os.path.isdir(lang_dir):
                    errors.append(f"missing corpus directory: {lang_dir}")
                    continue
                for name in english_files:
                    if not os.path.isfile(os.path.join(lang_dir, name)):
                        errors.append(f"missing corpus file: {os.path.join(lang_dir, name)}")
    if not os.path.isfile(markers_file):
        errors.append(f"missing seed marker file: {markers_file}")

    try:
        filter_policy = lexmod.FilterPolicy(
            min_dir_phrase_prob=parsed["filter.min_dir_phrase_prob"],
            min_inv_phrase_prob=parsed["filter.min_inv_phrase_prob"],
            min_joint_count=parsed["filter.min_joint_count"],
            max_length_delta=parsed["filter.max_length_delta"],
        )
    except ValueError as exc:
        errors.append(str(exc))

    if errors:
        raise ConfigError(errors)

    return PipelineConfig(
        corpus_root=corpus_root,
        english_code=english,
        foreign_codes=foreign,
        markers_file=markers_file,
        output_dir=parsed["output"],
        cache=parsed["cache"],
        em_iterations=parsed["em.iterations"],
        symmetrization=parsed["wordalign.symmetrization"],
        max_phrase_len=parsed["phrases.max_len"],
        prune_config=parsed["prune.mode"],
        filter_policy=filter_policy,
    )


class StageResult(namedtuple("StageResult", "pair stage cache_hit seconds stats error")):
    """pair: a language code, or "all" for lexicon; stats: a fresh dict by default."""
    __slots__ = ()

    def __new__(cls, pair, stage, cache_hit=False, seconds=0.0, stats=None, error=None):
        return super().__new__(cls, pair, stage, cache_hit, seconds,
                               {} if stats is None else stats, error)


class RunReport:
    def __init__(self, results=None):
        self.results = [] if results is None else results

    @property
    def ok(self) -> bool:
        return all(r.error is None for r in self.results)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest(param_obj, input_hashes) -> str:
    """A stage's cache key: its parameters and the sha256 of every file it reads."""
    h = hashlib.sha256()
    h.update(repr(param_obj).encode("utf-8"))
    # declared order: a sort of the full paths would move with the output dir
    for path, file_hash in input_hashes.items():
        h.update(os.path.basename(path).encode("utf-8"))
        h.update(file_hash.encode("utf-8"))
    return h.hexdigest()


class _Cache:
    def __init__(self, path):
        self.path = path
        self.manifest = {}
        if os.path.isfile(path):
            try:
                with open(path, encoding="utf-8") as fh:
                    manifest = json.load(fh)
            except ValueError:  # truncated or corrupt: every stage misses and reruns
                manifest = {}
            if isinstance(manifest, dict):  # other JSON reads as empty, a bad record as none
                self.manifest = {key: rec for key, rec in manifest.items()
                                 if isinstance(rec, dict) and isinstance(rec.get("digest"), str)
                                 and isinstance(rec.get("stats"), dict)}

    def hit(self, key, digest, outputs) -> dict | None:
        rec = self.manifest.get(key)
        if rec and rec["digest"] == digest and all(os.path.isfile(p) for p in outputs):
            return rec
        return None

    def store(self, key, digest, stats=None) -> None:
        """Record a stage, or forget it when digest is None, and rewrite the
        manifest through a temp file, so an interrupted write leaves the previous
        manifest in place. Forgetting a stage that has no record writes nothing."""
        if digest is not None:
            self.manifest[key] = {"digest": digest, "stats": stats}
        elif self.manifest.pop(key, None) is None:
            return
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.manifest, fh, indent=2, sort_keys=True)
            os.replace(tmp, self.path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


class PipelineRunner:
    def __init__(self, config: PipelineConfig):
        self.cfg = config
        self.out = config.output_dir
        os.makedirs(self.out, exist_ok=True)
        self.cache = _Cache(os.path.join(self.out, ".cache.json"))
        self.file_ids = sorted(
            os.listdir(os.path.join(config.corpus_root, config.english_code))
        )

    # ---- paths ----------------------------------------------------------
    def ingest_dir(self, lang):
        return os.path.join(self.out, "ingest", lang)

    def _pair_paths(self, lang):
        d = os.path.join(self.out, "pairs", lang)
        return {
            "aligned_src": os.path.join(d, "aligned.src"),
            "aligned_tgt": os.path.join(d, "aligned.tgt"),
            "alignments": os.path.join(d, "alignments.txt"),
            "pruned_table": os.path.join(d, "phrase-table.pruned.txt"),
            "prune_report": os.path.join(d, "prune-report.tsv"),
            "candidates": os.path.join(d, "candidates.tsv"),
        }

    # ---- stage bodies ---------------------------------------------------
    def _run_stage(self, pair, stage, params, inputs, outputs, body) -> StageResult:
        """Run a stage, or take its outputs from the cache, and report how it ended.

        It reruns unless the cache is on, its record holds the digest of its format
        version, its parameters and the bytes of its inputs (every file its body reads)
        and every output exists. Whatever digesting or the body raises becomes the
        result's error. Its seconds are the time spent, a cache hit's digesting included."""
        key = f"{stage}:{pair}"
        started = time.monotonic()
        try:
            digest = _digest((FORMAT_VERSIONS[stage], params),
                             {path: _sha256_file(path) for path in inputs})
            cached = self.cache.hit(key, digest, outputs) if self.cfg.cache else None
            if cached is not None:
                result = StageResult(pair, stage, cache_hit=True, stats=cached["stats"])
            else:
                self.cache.store(key, None)  # no record may outlive the outputs it covers
                for path in outputs:
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                stats = body()
                self.cache.store(key, digest, stats)
                result = StageResult(pair, stage, stats=stats)
        except Exception as exc:  # noqa: BLE001 - reported per stage
            # str() of some exceptions, a bare StopIteration among them, is empty
            result = StageResult(pair, stage, error=str(exc) or type(exc).__name__)
        return result._replace(seconds=time.monotonic() - started)

    def stage_ingest(self, lang) -> StageResult:
        src_dir = os.path.join(self.cfg.corpus_root, lang)
        inputs = [os.path.join(src_dir, f) for f in self.file_ids]
        outputs = [os.path.join(self.ingest_dir(lang), f) for f in self.file_ids]

        def body():
            n_paragraphs = n_sentences = 0
            for file_id, out_path in zip(self.file_ids, outputs):
                doc = ingest.load_document(os.path.join(src_dir, file_id), lang, file_id)
                ingest.write_tokenized_document(doc, out_path)
                n_paragraphs += len(doc.paragraphs)
                n_sentences += sum(len(p) for p in doc.paragraphs)
            return {"files": len(self.file_ids), "paragraphs": n_paragraphs,
                    "sentences": n_sentences}

        return self._run_stage(lang, "ingest", (), inputs, outputs, body)

    def stage_align(self, lang) -> StageResult:
        p = self._pair_paths(lang)
        inputs = [os.path.join(self.ingest_dir(code), f)
                  for code in (lang, self.cfg.english_code) for f in self.file_ids]
        outputs = [p["aligned_src"], p["aligned_tgt"]]
        params = (galechurch.MEAN_CHAR_RATIO, galechurch.VARIANCE, galechurch.BEAD_PRIORS)

        def body():
            paragraph_pairs = []
            for file_id in self.file_ids:
                src_doc = ingest.read_tokenized_document(
                    os.path.join(self.ingest_dir(lang), file_id), lang, file_id)
                tgt_doc = ingest.read_tokenized_document(
                    os.path.join(self.ingest_dir(self.cfg.english_code), file_id),
                    self.cfg.english_code, file_id)
                paragraph_pairs.extend(ingest.pair_documents(src_doc, tgt_doc))
            pairs = galechurch.align_corpus(paragraph_pairs)
            galechurch.write_aligned_corpus(pairs, p["aligned_src"], p["aligned_tgt"])
            return {"sentence_pairs": len(pairs)}

        return self._run_stage(lang, "align", params, inputs, outputs, body)

    def stage_wordalign(self, lang) -> StageResult:
        p = self._pair_paths(lang)
        inputs = [p["aligned_src"], p["aligned_tgt"]]
        outputs = [p["alignments"]]
        em = (self.cfg.em_iterations, model1.PROB_FLOOR, model1.USE_NULL,
              self.cfg.symmetrization)

        def body():
            """One t-table at a time: t(f|e), whose english words condition, is trained
            and aligned with, then dropped before t(e|f). Only the links are written."""
            pairs = galechurch.read_aligned_corpus(p["aligned_src"], p["aligned_tgt"])
            table = model1.train_model1([(tgt, src) for src, tgt in pairs],
                                        self.cfg.em_iterations)
            tgt_to_src = [model1.viterbi_align(tgt, src, table) for src, tgt in pairs]
            ll_fe, entries_fe = table.log_likelihoods, sum(len(d) for d in table.probs.values())
            del table
            table = model1.train_model1(pairs, self.cfg.em_iterations)
            model1.write_alignments(
                (model1.symmetrize(model1.viterbi_align(src, tgt, table), links,
                                   self.cfg.symmetrization)
                 for (src, tgt), links in zip(pairs, tgt_to_src)), p["alignments"])
            return {"sentence_pairs": len(pairs), "log_likelihoods_f_given_e": ll_fe,
                    "ttable_entries_f_given_e": entries_fe,
                    "log_likelihoods_e_given_f": table.log_likelihoods,
                    "ttable_entries_e_given_f": sum(len(d) for d in table.probs.values())}

        return self._run_stage(lang, "wordalign", em, inputs, outputs, body)

    def stage_phrases(self, lang) -> StageResult:
        """No work of its own: prune extracts and counts the phrase pairs. The row
        keeps its inputs and key, and so its cache record, while perfbench/run.py
        lists the stage; the change that deletes the row edits that list too."""
        p = self._pair_paths(lang)
        inputs = [p["aligned_src"], p["aligned_tgt"], p["alignments"]]
        return self._run_stage(lang, "phrases", self.cfg.max_phrase_len, inputs, [], dict)

    def stage_prune(self, lang) -> StageResult:
        """Extract and count the phrase pairs by phrase id in one pass over each sentence
        pair, prune on counts alone, then build the phrases and alignments of the
        surviving pairs only, writing each survivor as it is scored."""
        p = self._pair_paths(lang)
        inputs = [p["aligned_src"], p["aligned_tgt"], p["alignments"]]
        outputs = [p["pruned_table"], p["prune_report"]]

        def body():
            pairs = galechurch.read_aligned_corpus(p["aligned_src"], p["aligned_tgt"])
            pair_counts = phrases.count_phrase_pairs(
                pairs, model1.read_alignments(p["alignments"], pairs), self.cfg.max_phrase_len)
            del pairs
            counts = significance.contingency_counts(pair_counts)
            kept, report = significance.prune(pair_counts, counts, self.cfg.prune_config)
            significance.write_prune_report(report, p["prune_report"])
            phrases.write_phrase_table(phrases.score_counts(pair_counts, kept),
                                       pair_counts.corpus_size, p["pruned_table"])
            return {"instances": sum(pair_counts.foreign.instances),
                    "entries_in": len(pair_counts.entries), "entries_kept": report.kept_count,
                    "entries_pruned": report.pruned_count, "threshold": report.threshold,
                    "distinct_tables": len(report.entries),
                    "entries_1_1_1": sum(k for ct, k in report.entries.items()
                                         if ct[:3] == (1, 1, 1))}

        params = (self.cfg.prune_config, significance.EPSILON, self.cfg.max_phrase_len)
        return self._run_stage(lang, "prune", params, inputs, outputs, body)

    def stage_markers(self, lang) -> StageResult:
        p = self._pair_paths(lang)
        inputs = [p["pruned_table"], self.cfg.markers_file]
        outputs = [p["candidates"]]

        def body():
            index = lexmod.english_index(phrases.read_phrase_table(p["pruned_table"]))
            seeds = lexmod.load_seed_markers(self.cfg.markers_file)
            selected, rows = 0, []
            for marker in seeds:
                raw = lexmod.select_candidates(index, marker, language=lang)
                selected += len(raw)
                stripped = [lexmod.strip_punctuation_context(c) for c in raw]
                rows.extend(lexmod.filter_candidates(stripped, self.cfg.filter_policy))
            lexmod.write_candidates(rows, p["candidates"])
            return {"markers": len(seeds), "candidates_selected": selected,
                    "candidates_kept": len(rows)}

        return self._run_stage(lang, "markers", self.cfg.filter_policy, inputs, outputs, body)

    def stage_lexicon(self, languages) -> StageResult:
        if not languages:  # the last good lexicon stays in place
            return StageResult("all", "lexicon", error="skipped: no language pair left")
        inputs = [self._pair_paths(lang)["candidates"] for lang in languages]
        inputs.append(self.cfg.markers_file)
        lex_tsv = os.path.join(self.out, "lexicon.tsv")
        lex_json = os.path.join(self.out, "lexicon.json")
        outputs = [lex_tsv, lex_json]

        def body():
            seeds = lexmod.load_seed_markers(self.cfg.markers_file)
            rows = [row for lang in languages
                    for row in lexmod.read_candidates(self._pair_paths(lang)["candidates"])]
            lex = lexmod.build_lexicon(rows, seeds)
            lexmod.export_lexicon(lex, "tsv", lex_tsv)
            lexmod.export_lexicon(lex, "structured", lex_json)
            covered = sum(1 for langs in lex.values() if langs)
            return {"markers": len(lex), "markers_with_translations": covered,
                    "records": len(rows)}

        return self._run_stage("all", "lexicon", tuple(languages), inputs, outputs, body)


def run_pipeline(config: PipelineConfig, stages=None) -> RunReport:
    """Run the selected stages: ingest for every language, the pair stages of each
    foreign language in config order, then the lexicon of the pairs that did not
    fail. A failure stops only its own pair, and a failed ingest of the pair's
    language or of English skips it. The cyclic garbage collector is paused
    meanwhile: reference counting frees the acyclic stage data."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        selected = [s for s in STAGES if stages is None or s in stages]
        runner = PipelineRunner(config)
        report = RunReport()
        if "ingest" in selected:
            report.results.extend(runner.stage_ingest(lang)
                                  for lang in [config.english_code, *config.foreign_codes])

        failed = {r.pair for r in report.results if r.error is not None}
        for lang in config.foreign_codes:
            for stage in (s for s in selected if s in PAIR_STAGES):
                if lang in failed or config.english_code in failed:
                    report.results.append(StageResult(lang, stage, error="skipped: ingest failed"))
                    break
                report.results.append(getattr(runner, f"stage_{stage}")(lang))
                if report.results[-1].error is not None:
                    break

        if "lexicon" in selected:
            failed = {r.pair for r in report.results if r.error is not None}
            report.results.append(runner.stage_lexicon(
                [lang for lang in config.foreign_codes if lang not in failed
                 and os.path.isfile(runner._pair_paths(lang)["candidates"])]))

        write_report(report, config.output_dir)
        return report
    finally:
        if enabled:
            gc.enable()


def render_report(report: RunReport) -> str:
    lines = []
    for r in report.results:
        status = "FAILED" if r.error is not None else ("cached" if r.cache_hit else "ran")
        stats = " ".join(f"{k}={v}" for k, v in sorted(r.stats.items()))
        line = f"{r.stage:10s} {r.pair:8s} {status:7s} {r.seconds:8.3f}s  {stats}"
        if r.error is not None:
            line += f"  error: {r.error}"
        lines.append(line)
    lines.append(f"overall: {'ok' if report.ok else 'FAILED'}")
    return "\n".join(lines) + "\n"


def write_report(report: RunReport, output_dir) -> None:
    with open(os.path.join(output_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_report(report))
    doc = {
        "ok": report.ok,
        "stages": [
            {"pair": r.pair, "stage": r.stage, "cache_hit": r.cache_hit,
             "seconds": r.seconds, "stats": r.stats, "error": r.error}
            for r in report.results
        ],
    }
    with open(os.path.join(output_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
