import gc
import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest

from dmlex.cli import main as cli_main
from dmlex.pipeline import (
    _KNOWN_KEYS,
    STAGES,
    ConfigError,
    _Cache,
    run_pipeline,
    validate_config,
)

from helpers import PLANTED_MARKERS, write_synthetic_corpus

SMALL = PLANTED_MARKERS[:3]


@pytest.fixture(scope="module")
def corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_synthetic_corpus(str(root), n_pairs=80, markers=SMALL)
    return str(root)


def _config_path(root):
    return os.path.join(root, "pipeline.cfg")


def _two_language_config(corpus_root, tmp_path):
    """A copy of the fixture under tmp_path with a second foreign language, yy, whose
    corpus is xx's; returns its config path."""
    import shutil

    root = tmp_path / "two"
    shutil.copytree(corpus_root, root)
    shutil.copytree(root / "corpus" / "xx", root / "corpus" / "yy")
    cfg_file = root / "pipeline.cfg"
    base = cfg_file.read_text(encoding="utf-8")
    cfg_file.write_text(base.replace("foreign = xx", "foreign = xx,yy"), encoding="utf-8")
    return str(cfg_file)


def _custom_config(corpus_root, tmp_path, extra_line):
    """The fixture config plus one line, written under tmp_path. Relative paths
    in a config resolve against its own directory, so they are pinned to the
    corpus fixture."""
    path = tmp_path / "custom.cfg"
    base = pathlib.Path(_config_path(corpus_root)).read_text(encoding="utf-8")
    base = base.replace(
        "corpus_root = corpus",
        f"corpus_root = {os.path.join(corpus_root, 'corpus')}",
    ).replace(
        "markers = markers.txt",
        f"markers = {os.path.join(corpus_root, 'markers.txt')}",
    )
    path.write_text(base + extra_line + "\n", encoding="utf-8")
    return str(path)


class TestValidateConfig:
    def test_minimal_config_gets_defaults(self, corpus_root):
        cfg = validate_config(_config_path(corpus_root))
        assert cfg.english_code == "en"
        assert cfg.foreign_codes == ["xx"]
        assert cfg.em_iterations == 5
        assert cfg.max_phrase_len == 7
        assert cfg.prune_config.threshold_mode == "alpha_plus_epsilon"
        assert cfg.filter_policy.min_joint_count == 2
        assert cfg.cache is True

    def test_english_repeated_in_foreign(self, corpus_root, tmp_path):
        path = tmp_path / "bad.cfg"
        base = pathlib.Path(_config_path(corpus_root)).read_text(encoding="utf-8")
        path.write_text(base.replace("foreign = xx", "foreign = xx,en"), encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            validate_config(path)
        assert any("repeated" in e for e in exc.value.errors)

    def test_missing_paths_all_reported(self, corpus_root, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "corpus_root = /nonexistent/corpus\n"
            "english = en\nforeign = xx\n"
            "markers = /nonexistent/markers.txt\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError) as exc:
            validate_config(path)
        assert sum("corpus_root" in e for e in exc.value.errors) == 1
        assert sum("marker" in e for e in exc.value.errors) == 1

    def test_unknown_key_rejected(self, corpus_root, tmp_path):
        path = tmp_path / "bad.cfg"
        base = pathlib.Path(_config_path(corpus_root)).read_text(encoding="utf-8")
        path.write_text(base + "prune.modee = alpha\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            validate_config(path)
        assert any("unknown config key" in e for e in exc.value.errors)

    def test_missing_foreign_file_named(self, corpus_root, tmp_path):
        import shutil

        root = tmp_path / "broken"
        shutil.copytree(corpus_root, root)
        os.remove(root / "corpus" / "xx" / "ep-1.txt")
        with pytest.raises(ConfigError) as exc:
            validate_config(root / "pipeline.cfg", {"output": str(root / "out")})
        assert any("ep-1.txt" in e for e in exc.value.errors)

    def test_readme_config_block_uses_known_keys(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        text = pathlib.Path(readme).read_text(encoding="utf-8")
        block = text.split("```ini\n", 1)[1].split("```", 1)[0]
        documented = {}
        for line in block.splitlines():
            # optional keys are shown commented out, with their defaults
            line = line.removeprefix("# ").split("  #", 1)[0]
            if "=" in line:
                key, _, value = line.partition("=")
                documented[key.strip()] = value.strip()
        assert set(documented) == set(_KNOWN_KEYS)
        for key, (parser, default, _) in _KNOWN_KEYS.items():
            parser(documented[key])
            if default is not None:  # required keys show an example value
                assert documented[key] == default, key

    def test_custom_threshold_mode(self, corpus_root, tmp_path):
        path = _custom_config(corpus_root, tmp_path, "prune.mode = 5.0")
        cfg = validate_config(path, {"output": str(tmp_path / "out")})
        assert cfg.prune_config.threshold_mode == "custom"
        assert cfg.prune_config.custom_neg_log_p == 5.0


class TestRunPipeline:
    def test_full_run_and_cache_hits(self, corpus_root, tmp_path):
        out = str(tmp_path / "out")
        cfg = validate_config(_config_path(corpus_root), {"output": out})
        first = run_pipeline(cfg)
        assert first.ok
        assert all(not r.cache_hit for r in first.results)
        snapshot = _read_outputs(out)

        second = run_pipeline(cfg)
        assert second.ok
        assert all(r.cache_hit for r in second.results)
        assert all(r.seconds > 0 for r in second.results)  # a hit's digesting is timed
        assert _read_outputs(out) == snapshot

    def test_every_result_of_a_warm_rerun_is_timed(self, corpus_root, tmp_path):
        """A cache hit still digests its inputs and outputs, and its result says how
        long that took, so report.json shows where a warm rerun spends its time."""
        cfg = validate_config(_config_path(corpus_root), {"output": str(tmp_path / "out")})
        assert run_pipeline(cfg).ok
        warm = run_pipeline(cfg)
        assert warm.ok and all(r.cache_hit for r in warm.results)
        assert all(r.seconds > 0 for r in warm.results)
        with open(tmp_path / "out" / "report.json", encoding="utf-8") as fh:
            assert all(s["seconds"] > 0 for s in json.load(fh)["stages"])

    def test_cache_digests_do_not_depend_on_the_output_path(self, corpus_root, tmp_path):
        """Output directories whose paths sort before and after the markers file's
        give the same digests."""
        import shutil

        markers = tmp_path / "m.txt"
        shutil.copy(os.path.join(corpus_root, "markers.txt"), markers)
        digests = []
        for name in ("a", "z"):
            out = tmp_path / name
            cfg = validate_config(_config_path(corpus_root),
                                  {"output": str(out), "markers": str(markers)})
            assert run_pipeline(cfg).ok
            with open(out / ".cache.json", encoding="utf-8") as fh:
                digests.append({key: rec["digest"] for key, rec in json.load(fh).items()})
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("mode, table_changes", [("alpha", False), ("0", True)],
                             ids=["same-pruned-table", "new-pruned-table"])
    def test_parameter_change_recomputes_downstream_only(self, corpus_root, tmp_path, mode,
                                                         table_changes):
        """A new prune.mode reruns prune; a stage after it reruns only if a file it
        reads changed. On the fixture, alpha keeps the entries that alpha+epsilon
        keeps, and a threshold of 0 keeps more."""
        out = str(tmp_path / "out")
        cfg = validate_config(_config_path(corpus_root), {"output": out})
        assert run_pipeline(cfg).ok
        before = _read_outputs(out)
        changed = validate_config(_config_path(corpus_root), {"output": out, "prune.mode": mode})
        report = run_pipeline(changed)
        assert report.ok
        after = _read_outputs(out)
        pruned, candidates = (os.path.join("pairs", "xx", name)
                              for name in ("phrase-table.pruned.txt", "candidates.tsv"))
        assert (after[pruned] != before[pruned]) is table_changes
        status = {(r.stage, r.pair): r.cache_hit for r in report.results}
        assert status == {("ingest", "en"): True, ("ingest", "xx"): True,
                          ("align", "xx"): True, ("wordalign", "xx"): True,
                          ("phrases", "xx"): True, ("prune", "xx"): False,
                          ("markers", "xx"): not table_changes,
                          ("lexicon", "all"): after[candidates] == before[candidates]}

    def test_every_output_is_read_by_a_later_stage_or_is_an_end_product(
            self, corpus_root, tmp_path, monkeypatch):
        """Each file a stage writes in a cold run is an input of a later stage, or one
        of the end products: the prune report and the two lexicon exports. So no
        stage writes a file that nothing reads."""
        from dmlex.pipeline import PipelineRunner

        calls, real_run_stage = [], PipelineRunner._run_stage

        def run_stage(self, pair, stage, params, inputs, outputs, body):
            calls.append((f"{stage}:{pair}", list(inputs), list(outputs)))
            return real_run_stage(self, pair, stage, params, inputs, outputs, body)

        monkeypatch.setattr(PipelineRunner, "_run_stage", run_stage)
        cfg = validate_config(_config_path(corpus_root), {"output": str(tmp_path / "out")})
        assert run_pipeline(cfg).ok
        assert [key for key, _, _ in calls] == [f"{s}:{p}" for s, p in (
            ("ingest", "en"), ("ingest", "xx"), *((s, "xx") for s in STAGES[1:-1]),
            ("lexicon", "all"))]
        end_products = {"prune-report.tsv", "lexicon.tsv", "lexicon.json"}
        unread = [os.path.basename(path) for k, (_, _, outputs) in enumerate(calls)
                  for path in outputs
                  if os.path.basename(path) not in end_products
                  and not any(path in inputs for _, inputs, _ in calls[k + 1:])]
        assert not unread, f"read by no later stage: {', '.join(unread)}"

    def test_report_holds_the_em_record_of_both_directions(self, corpus_root, tmp_path):
        """wordalign's stats in report.json hold every EM iteration's log-likelihood
        and the entry count of each t-table, equal to those of train_model1 run on
        the same aligned corpus."""
        from dmlex import galechurch, model1

        out = tmp_path / "out"
        cfg = validate_config(_config_path(corpus_root),
                              {"output": str(out), "em.iterations": "3"})
        assert run_pipeline(cfg).ok
        with open(out / "report.json", encoding="utf-8") as fh:
            (stats,) = [s["stats"] for s in json.load(fh)["stages"] if s["stage"] == "wordalign"]
        pairs = galechurch.read_aligned_corpus(out / "pairs" / "xx" / "aligned.src",
                                               out / "pairs" / "xx" / "aligned.tgt")
        for direction, direction_pairs in (("f_given_e", [(tgt, src) for src, tgt in pairs]),
                                           ("e_given_f", pairs)):
            table = model1.train_model1(direction_pairs, 3)
            assert len(stats[f"log_likelihoods_{direction}"]) == 3
            assert stats[f"log_likelihoods_{direction}"] == table.log_likelihoods
            assert stats[f"ttable_entries_{direction}"] == sum(
                len(d) for d in table.probs.values()) > 0

    def test_phrases_writes_no_file(self, corpus_root, tmp_path):
        """phrases does no work of its own: after a cold run no pair directory holds
        phrase-table.txt, and the manifest still records phrases, so a rerun finds it
        a hit."""
        out = tmp_path / "out"
        cfg = validate_config(_config_path(corpus_root), {"output": str(out)})
        assert run_pipeline(cfg).ok
        pair_dirs = list((out / "pairs").iterdir())
        assert [d.name for d in pair_dirs] == ["xx"]
        assert not any((d / "phrase-table.txt").exists() for d in pair_dirs)
        with open(out / ".cache.json", encoding="utf-8") as fh:
            assert "phrases:xx" in json.load(fh)
        report = run_pipeline(cfg)
        assert {r.stage: r.cache_hit for r in report.results}["phrases"] is True

    @pytest.mark.parametrize("stages", [["prune"], ["phrases", "prune"]],
                             ids=["counts-extracted", "after-phrases"])
    def test_prune_scores_only_the_surviving_pairs(self, corpus_root, tmp_path, monkeypatch,
                                                   stages):
        """prune reads no t-table, counts the phrase pairs once and builds a
        PhraseTableEntry for each kept pair alone, whether phrases runs before it
        or not."""
        from dmlex import model1, phrases

        out = str(tmp_path / "out")
        cfg = validate_config(_config_path(corpus_root), {"output": out})
        assert run_pipeline(cfg, stages=["ingest", "align", "wordalign", "phrases"]).ok
        calls = {(model1, "read_translation_table"): 0, (phrases, "PhraseTableEntry"): 0,
                 (phrases, "count_phrase_pairs"): 0}
        _count_calls(monkeypatch, calls)
        report = run_pipeline(validate_config(_config_path(corpus_root),
                                              {"output": out, "cache": "false"}), stages)
        assert report.ok
        stats = report.results[-1].stats
        assert 0 < stats["entries_kept"] < stats["entries_in"]
        assert list(calls.values()) == [0, stats["entries_kept"], 1]

    def test_prune_extracts_the_counts_after_a_phrases_hit(self, corpus_root, tmp_path,
                                                           monkeypatch):
        """A cold run counts the phrase pairs once, in prune. A rerun with another
        prune.mode, where phrases is a hit, extracts and counts them anew in prune
        and writes the bytes of a cold run with that mode."""
        from dmlex import phrases

        counted = []
        real = phrases.count_phrase_pairs
        monkeypatch.setattr(phrases, "count_phrase_pairs",
                            lambda *args: counted.append(args) or real(*args))
        out, cold = str(tmp_path / "out"), str(tmp_path / "cold")
        assert run_pipeline(validate_config(_config_path(corpus_root), {"output": out})).ok
        assert len(counted) == 1
        report = run_pipeline(validate_config(_config_path(corpus_root),
                                              {"output": out, "prune.mode": "alpha"}))
        assert report.ok
        assert [r.stage for r in report.results if not r.cache_hit] == ["prune"]
        assert len(counted) == 2
        assert run_pipeline(validate_config(_config_path(corpus_root),
                                            {"output": cold, "prune.mode": "alpha"})).ok
        assert len(counted) == 3
        assert _read_outputs(out) == _read_outputs(cold)

    def test_cold_run_extracts_once_and_reads_the_aligned_corpus_twice(self, corpus_root,
                                                                        tmp_path, monkeypatch):
        """wordalign and prune each read the aligned corpus; only prune reads the word
        links and counts the phrase pairs, and phrases does no work of its own."""
        from dmlex import galechurch, model1, phrases

        calls = {(galechurch, "read_aligned_corpus"): 0, (model1, "read_alignments"): 0,
                 (phrases, "count_phrase_pairs"): 0}
        _count_calls(monkeypatch, calls)
        cfg = validate_config(_config_path(corpus_root), {"output": str(tmp_path / "out")})
        report = run_pipeline(cfg)
        assert report.ok
        assert list(calls.values()) == [2, 1, 1]
        assert {r.stage: r.stats for r in report.results}["phrases"] == {}

    def test_phrases_max_len_is_in_the_keys_of_phrases_and_prune(self, corpus_root,
                                                                  tmp_path):
        """prune extracts the phrase pairs, so a new phrases.max_len reruns it as well
        as phrases, and the outputs are those of a cold run."""
        out, cold = str(tmp_path / "out"), str(tmp_path / "cold")
        assert run_pipeline(validate_config(_config_path(corpus_root), {"output": out})).ok
        before = _read_outputs(out)
        changed = {"phrases.max_len": "2"}
        report = run_pipeline(validate_config(_config_path(corpus_root),
                                              {"output": out, **changed}))
        assert report.ok
        rerun = {r.stage for r in report.results if not r.cache_hit}
        assert {"phrases", "prune"} <= rerun <= {"phrases", "prune", "markers", "lexicon"}
        assert run_pipeline(validate_config(_config_path(corpus_root),
                                            {"output": cold, **changed})).ok
        after = _read_outputs(out)
        assert after == _read_outputs(cold)
        pruned = os.path.join("pairs", "xx", "phrase-table.pruned.txt")
        assert after[pruned] != before[pruned]

    @pytest.mark.parametrize("name, edit", [
        ("alignments.txt", lambda line: " ".join(line.split()[:-1])),  # one link fewer
        ("aligned.src", lambda line: " ".join(token + "x" for token in line.split())),
        ("aligned.tgt", lambda line: " ".join(token + "x" for token in line.split())),
    ], ids=["alignments", "aligned-src", "aligned-tgt"])
    def test_prune_uses_the_bytes_its_key_hashed(self, corpus_root, tmp_path, name, edit):
        """Any of prune's inputs rewritten between phrases and prune on one runner,
        each line kept valid: prune extracts from the new files, so its outputs and
        its key are those of a new runner that ran prune alone."""
        from dmlex.pipeline import PipelineRunner

        def prune_after(run, edited, new_runner):
            out = tmp_path / run
            runner = PipelineRunner(validate_config(_config_path(corpus_root),
                                                    {"output": str(out)}))
            results = [runner.stage_ingest("en"), runner.stage_ingest("xx")]
            results += [getattr(runner, f"stage_{stage}")("xx")
                        for stage in ("align", "wordalign", "phrases")]
            assert all(r.error is None for r in results)
            if edited:
                path = out / "pairs" / "xx" / name
                lines = path.read_text(encoding="utf-8").splitlines()
                path.write_text("".join(edit(line) + "\n" for line in lines), encoding="utf-8")
            if new_runner:
                runner = PipelineRunner(runner.cfg)
            assert runner.stage_prune("xx").error is None
            return _read_outputs(str(out)), runner.cache.manifest["prune:xx"]["digest"]

        unedited = prune_after("unedited", edited=False, new_runner=False)
        edited = prune_after("edited", edited=True, new_runner=False)
        assert edited == prune_after("fresh", edited=True, new_runner=True)
        pruned = os.path.join("pairs", "xx", "phrase-table.pruned.txt")
        assert edited[0][pruned] != unedited[0][pruned]

    @pytest.mark.parametrize("stage", STAGES)
    def test_output_of_another_format_version_is_rewritten(self, corpus_root, tmp_path,
                                                          monkeypatch, stage):
        """A stage recorded under another format version reruns, and only it, so an
        output directory written by an older writer keeps none of its bytes, such as
        the `# direction=` line that t-tables carried before. phrases writes no file,
        so for it the rerun alone is checked, and that the other outputs stay."""
        from dmlex import pipeline

        victim = {"ingest": "ingest/xx/ep-0.txt", "align": "pairs/xx/aligned.src",
                  "wordalign": "pairs/xx/alignments.txt", "phrases": None,
                  "prune": "pairs/xx/phrase-table.pruned.txt",
                  "markers": "pairs/xx/candidates.tsv", "lexicon": "lexicon.tsv"}[stage]
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert run_pipeline(validate_config(_config_path(corpus_root),
                                            {"output": str(fresh)})).ok
        cfg = validate_config(_config_path(corpus_root), {"output": str(out)})
        monkeypatch.setitem(pipeline.FORMAT_VERSIONS, stage, pipeline.FORMAT_VERSIONS[stage] - 1)
        assert run_pipeline(cfg).ok
        monkeypatch.undo()
        if victim:
            path = out / victim
            path.write_bytes(b"# direction=f_given_e\n" + path.read_bytes())

        report = run_pipeline(cfg)
        assert report.ok
        assert {r.stage for r in report.results if not r.cache_hit} == {stage}
        assert _read_outputs(str(out)) == _read_outputs(str(fresh))

    def test_stats_of_an_older_build_are_not_reported(self, corpus_root, tmp_path,
                                                      monkeypatch):
        """A manifest primed by the build before prune took over phrase extraction
        holds, under that build's format versions, phrases' old counts and a prune
        record without `instances`. Both stages rerun and report fresh stats, not
        the ones the old records hold."""
        from dmlex import pipeline

        out = tmp_path / "out"
        cfg = validate_config(_config_path(corpus_root), {"output": str(out)})
        monkeypatch.setitem(pipeline.FORMAT_VERSIONS, "phrases", 2)
        monkeypatch.setitem(pipeline.FORMAT_VERSIONS, "prune", 3)
        assert run_pipeline(cfg).ok
        monkeypatch.undo()
        manifest_path = out / ".cache.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["phrases:xx"]["stats"] = {"entries": 22136, "instances": 22724}
        del manifest["prune:xx"]["stats"]["instances"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        report = run_pipeline(cfg)
        assert report.ok
        assert {r.stage for r in report.results if not r.cache_hit} == {"phrases", "prune"}
        stats = {r.stage: r.stats for r in report.results}
        assert stats["phrases"] == {} and stats["prune"]["instances"] > 0
        stored = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert stored["phrases:xx"]["stats"] == {} and "instances" in stored["prune:xx"]["stats"]

    def test_prune_counts_instances_as_they_are_extracted(self, corpus_root, tmp_path,
                                                           monkeypatch):
        """stage_prune hands count_phrase_pairs a one-pass iterator, so the list of
        every instance is never built; its `instances` stat is the sum of the joint
        counts, which is the number of instances extracted."""
        from dmlex import phrases

        out = str(tmp_path / "out")
        cfg = validate_config(_config_path(corpus_root), {"output": out})
        assert run_pipeline(cfg, stages=["ingest", "align", "wordalign"]).ok
        seen = {"iterator": None, "extracted": 0}
        real_extract, real_count = phrases.extract_phrase_pairs, phrases.count_phrase_pairs

        def extract(*args, **kwargs):
            found = real_extract(*args, **kwargs)
            seen["extracted"] += len(found)
            return found

        def count(instances, corpus_size):
            seen["iterator"] = iter(instances) is instances  # a list is not its own iterator
            return real_count(instances, corpus_size)

        monkeypatch.setattr(phrases, "extract_phrase_pairs", extract)
        monkeypatch.setattr(phrases, "count_phrase_pairs", count)
        report = run_pipeline(cfg, stages=["prune"])
        assert report.ok
        assert seen["iterator"] is True
        assert report.results[0].stats["instances"] == seen["extracted"] > 0

    def test_wordalign_drops_t_f_given_e_before_training_t_e_given_f(self, corpus_root,
                                                                      tmp_path, monkeypatch):
        """wordalign trains t(f|e), on english-conditioned pairs, first; reference
        counting alone has freed that table before t(e|f) is trained."""
        import weakref

        from dmlex import model1

        cfg = validate_config(_config_path(corpus_root), {"output": str(tmp_path / "out")})
        assert run_pipeline(cfg, stages=["ingest", "align"]).ok
        calls, real_train = [], model1.train_model1

        def train(pairs, *args, **kwargs):
            pairs = list(pairs)
            alive = [ref() is not None for _, ref, _ in calls]  # earlier tables
            table = real_train(pairs, *args, **kwargs)
            calls.append((pairs, weakref.ref(table), alive))
            return table

        monkeypatch.setattr(model1, "train_model1", train)
        assert run_pipeline(cfg, stages=["wordalign"]).ok
        (fe_pairs, _, first_alive), (ef_pairs, _, second_alive) = calls
        assert fe_pairs == [(tgt, src) for src, tgt in ef_pairs]
        assert (first_alive, second_alive) == ([], [False])

    def test_prune_report_has_a_row_per_distinct_table(self, corpus_root, tmp_path):
        """The entries column sums to entries_in, and over the kept rows to
        entries_kept. The test pins the keys of prune's stats, not their values."""
        out = tmp_path / "out"
        cfg = validate_config(_config_path(corpus_root), {"output": str(out)})
        report = run_pipeline(cfg, stages=STAGES[:STAGES.index("prune") + 1])
        stats = report.results[-1].stats
        assert set(stats) == {"instances", "entries_in", "entries_kept", "entries_pruned",
                              "threshold", "distinct_tables", "entries_1_1_1"}
        lines = (out / "pairs" / "xx" / "prune-report.tsv").read_text("utf-8").splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == stats["distinct_tables"] < stats["entries_in"]
        assert sum(int(row[5]) for row in rows) == stats["entries_in"]
        assert sum(int(row[5]) for row in rows if row[4] == "kept") == stats["entries_kept"]
        assert sum(int(row[5]) for row in rows if row[:3] == ["1", "1", "1"]) == \
            stats["entries_1_1_1"]

    def test_stage_subset(self, corpus_root, tmp_path):
        out = str(tmp_path / "out")
        cfg = validate_config(_config_path(corpus_root), {"output": out})
        report = run_pipeline(cfg, stages=["ingest", "align"])
        assert report.ok
        assert {r.stage for r in report.results} == {"ingest", "align"}
        assert os.path.isfile(os.path.join(out, "pairs", "xx", "aligned.src"))
        assert not os.path.exists(os.path.join(out, "pairs", "xx", "alignments.txt"))

    def test_report_files_written(self, corpus_root, tmp_path):
        out = str(tmp_path / "out")
        cfg = validate_config(_config_path(corpus_root), {"output": out})
        run_pipeline(cfg)
        assert os.path.isfile(os.path.join(out, "report.txt"))
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["ok"] is True
        seen = {(s["stage"], s["pair"]) for s in doc["stages"]}
        assert len(seen) == len(doc["stages"])  # every stage exactly once

    def test_stage_failure_is_reported_and_isolated(self, corpus_root, tmp_path):
        import shutil

        root = tmp_path / "twolang"
        shutil.copytree(corpus_root, root)
        # second foreign language with a corrupt (invalid UTF-8) corpus file
        bad_dir = root / "corpus" / "yy"
        shutil.copytree(root / "corpus" / "xx", bad_dir)
        (bad_dir / "ep-0.txt").write_bytes(b"<P>\n\xff\xfe broken\n")
        cfg_file = root / "pipeline.cfg"
        base = cfg_file.read_text(encoding="utf-8")
        cfg_file.write_text(base.replace("foreign = xx", "foreign = xx,yy"), encoding="utf-8")

        cfg = validate_config(cfg_file, {"output": str(root / "out")})
        report = run_pipeline(cfg)
        assert not report.ok
        failures = [r for r in report.results if r.error]
        assert failures and all(r.pair == "yy" for r in failures)
        assert [(r.stage, r.error) for r in failures] == [
            ("ingest", f"byte 4: invalid UTF-8 in {bad_dir / 'ep-0.txt'}"),
            ("align", "skipped: ingest failed")]
        # the healthy pair still completed through markers
        assert any(r.stage == "markers" and r.pair == "xx" and not r.error
                   for r in report.results)
        # and the lexicon was still produced from surviving pairs
        assert any(r.stage == "lexicon" and not r.error for r in report.results)

    @pytest.mark.parametrize("module, function, stage", [
        ("phrases", "count_phrase_pairs", "prune"),
        ("model1", "read_alignments", "prune"),
        ("significance", "contingency_counts", "prune"),
        ("lexicon", "read_candidates", "lexicon"),
    ])
    def test_exception_with_empty_text_fails_its_stage(self, corpus_root, tmp_path,
                                                       monkeypatch, module, function, stage):
        """str(StopIteration()) is empty: the error names the exception's type, the
        stage reads FAILED in both reports, and its pair runs no further stage."""
        import importlib

        def body_step(*args):
            raise StopIteration()

        monkeypatch.setattr(importlib.import_module(f"dmlex.{module}"), function, body_step)
        out = tmp_path / "out"
        assert cli_main(["--config", _config_path(corpus_root), "--output", str(out),
                         "pipeline"]) == 1
        with open(out / "report.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        rows = [(s["stage"], s["error"]) for s in doc["stages"] if s["pair"] in ("xx", "all")]
        k = STAGES.index(stage)
        assert rows[:k + 1] == [(name, None) for name in STAGES[:k]] + [(stage, "StopIteration")]
        assert next(s["seconds"] for s in doc["stages"] if s["error"]) > 0  # timed as it failed
        assert [name for name, _ in rows[k + 1:]] == (["lexicon"] if stage != "lexicon" else [])
        assert doc["ok"] is False
        row = next(line for line in (out / "report.txt").read_text(encoding="utf-8").splitlines()
                   if line.startswith(f"{stage} "))
        assert row.split()[2] == "FAILED"
        assert row.endswith("  error: StopIteration")

    def test_english_ingest_failure_skips_every_pair(self, corpus_root, tmp_path):
        import shutil

        root = tmp_path / "twolang"
        shutil.copytree(corpus_root, root)
        shutil.copytree(root / "corpus" / "xx", root / "corpus" / "yy")
        cfg_file = root / "pipeline.cfg"
        base = cfg_file.read_text(encoding="utf-8")
        cfg_file.write_text(base.replace("foreign = xx", "foreign = xx,yy"), encoding="utf-8")
        args = ["--config", str(cfg_file), "--output", str(root / "out"), "pipeline"]
        assert cli_main(args) == 0  # leaves candidates that the lexicon must not read
        lexicon = {name: (root / "out" / name).read_bytes()
                   for name in ("lexicon.tsv", "lexicon.json")}

        (root / "corpus" / "en" / "ep-0.txt").write_bytes(b"<P>\n\xff\xfe broken\n")
        assert cli_main(args) == 1
        with open(root / "out" / "report.json", encoding="utf-8") as fh:
            stages = json.load(fh)["stages"]
        rows = [(s["pair"], s["stage"], s["error"]) for s in stages]
        assert [row[:2] for row in rows] == [("en", "ingest"), ("xx", "ingest"),
                                             ("yy", "ingest"), ("xx", "align"),
                                             ("yy", "align"), ("all", "lexicon")]
        assert rows[0][2] and rows[1][2] is None and rows[2][2] is None
        assert rows[3][2] == rows[4][2] == "skipped: ingest failed"
        assert rows[5][2] == "skipped: no language pair left"
        assert {name: (root / "out" / name).read_bytes() for name in lexicon} == lexicon

    def test_missing_input_fails_its_stage_without_raising(self, corpus_root, tmp_path):
        import re

        out = tmp_path / "out"
        cfg = validate_config(_config_path(corpus_root), {"output": str(out)})
        for stages in (["prune"], ["prune", "markers"]):
            report = run_pipeline(cfg, stages=stages)
            assert [(r.pair, r.stage) for r in report.results] == [("xx", "prune")]
            missing = re.search(r"No such file or directory: '([^']+)'",
                                report.results[0].error).group(1)
            assert os.path.dirname(missing) == str(out / "pairs" / "xx")
            assert not os.path.exists(missing)
            with open(out / "report.json", encoding="utf-8") as fh:
                assert [s["stage"] for s in json.load(fh)["stages"]] == ["prune"]


    def test_corrupt_cache_manifest_reruns_every_stage(self, corpus_root, tmp_path):
        clean = str(tmp_path / "clean")
        assert cli_main(["--config", _config_path(corpus_root), "--output", clean,
                         "pipeline"]) == 0
        out = str(tmp_path / "out")
        assert cli_main(["--config", _config_path(corpus_root), "--output", out,
                         "pipeline"]) == 0
        manifest = os.path.join(out, ".cache.json")
        with open(manifest, "rb") as fh:
            data = fh.read()
        with open(manifest, "wb") as fh:
            fh.write(data[:len(data) // 2])

        assert cli_main(["--config", _config_path(corpus_root), "--output", out,
                         "pipeline"]) == 0
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            assert not any(s["cache_hit"] for s in json.load(fh)["stages"])
        with open(manifest, encoding="utf-8") as fh:
            assert set(json.load(fh)) == set(json.loads(
                pathlib.Path(clean, ".cache.json").read_text(encoding="utf-8")))
        assert _read_outputs(out) == _read_outputs(clean)

    @pytest.mark.parametrize("damage", ["not-an-object", "record-without-digest",
                                        "record-not-an-object"])
    def test_manifest_of_the_wrong_shape_reads_as_missing(self, corpus_root, tmp_path,
                                                           damage):
        """Valid JSON that is not an object reads as an empty manifest, and a record
        without a string digest as no record: the stages rerun and none fails."""
        out = str(tmp_path / "out")
        args = ["--config", _config_path(corpus_root), "--output", out, "pipeline"]
        assert cli_main(args) == 0
        manifest = os.path.join(out, ".cache.json")
        with open(manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
        if damage == "not-an-object":
            doc = []
        elif damage == "record-without-digest":
            del doc["align:xx"]["digest"]
        else:
            doc["align:xx"] = "stale"
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

        assert cli_main(args) == 0
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            hits = {f"{s['stage']}:{s['pair']}": s["cache_hit"]
                    for s in json.load(fh)["stages"]}
        assert hits["align:xx"] is False
        assert hits["ingest:xx"] is (damage != "not-an-object")
        assert cli_main(args) == 0  # the rewritten manifest is whole again
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            assert all(s["cache_hit"] for s in json.load(fh)["stages"])

    def test_failed_manifest_write_keeps_previous_manifest(self, corpus_root, tmp_path,
                                                           monkeypatch):
        clean = str(tmp_path / "clean")
        assert cli_main(["--config", _config_path(corpus_root), "--output", clean,
                         "pipeline"]) == 0
        out = str(tmp_path / "out")
        real_dump = json.dump
        manifest_dumps = []

        def dump(obj, fh, **kwargs):
            if os.path.basename(fh.name).startswith(".cache.json"):  # a manifest write
                manifest_dumps.append(sorted(obj))
                if len(manifest_dumps) > 3:  # after ingest en, ingest xx, align xx
                    fh.write('{"partial": ')
                    raise OSError("disk full")
            real_dump(obj, fh, **kwargs)

        monkeypatch.setattr(json, "dump", dump)
        assert cli_main(["--config", _config_path(corpus_root), "--output", out,
                         "pipeline"]) == 1
        monkeypatch.undo()
        assert len(manifest_dumps) > 3
        with open(os.path.join(out, ".cache.json"), encoding="utf-8") as fh:
            assert sorted(json.load(fh)) == manifest_dumps[2]
        assert not [n for n in os.listdir(out) if n.endswith(".tmp")]

        assert cli_main(["--config", _config_path(corpus_root), "--output", out,
                         "pipeline"]) == 0
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            hits = {f"{s['stage']}:{s['pair']}": s["cache_hit"]
                    for s in json.load(fh)["stages"]}
        assert {key for key, hit in hits.items() if hit} == set(manifest_dumps[2])
        assert _read_outputs(out) == _read_outputs(clean)

    def test_stage_that_fails_after_writing_keeps_no_record(self, corpus_root, tmp_path,
                                                             monkeypatch):
        """A rerun that overwrites markers' output and then fails leaves no record
        of markers, so going back to the first settings reruns it instead of taking
        the failed run's candidates from the cache."""
        from dmlex import lexicon

        out = str(tmp_path / "out")
        first = validate_config(_config_path(corpus_root), {"output": out})
        assert run_pipeline(first).ok
        snapshot = _read_outputs(out)
        real = lexicon.write_candidates

        def write_then_fail(rows, path):
            real(rows, path)
            raise OSError("disk full")

        monkeypatch.setattr(lexicon, "write_candidates", write_then_fail)
        retuned = validate_config(_config_path(corpus_root),
                                  {"output": out, "filter.min_joint_count": "13"})
        assert not run_pipeline(retuned).ok
        monkeypatch.undo()
        candidates = os.path.join("pairs", "xx", "candidates.tsv")
        assert _read_outputs(out)[candidates] != snapshot[candidates]

        report = run_pipeline(first)
        assert report.ok
        assert {r.stage: r.cache_hit for r in report.results
                if r.stage in ("prune", "markers")} == {"prune": True, "markers": False}
        assert _read_outputs(out) == snapshot

    @pytest.mark.parametrize("runs", [
        [{"english": "EN"}],
        [{"cache": "false", "filter.min_joint_count": "13"}, {}],
        [{"em.iterations": "4"}],
        [{"phrases.max_len": "5"}],
        [{"prune.mode": "0"}],
        [{"filter.min_joint_count": "13"}],
    ], ids=["english-renamed", "no-cache-between", "em.iterations", "phrases.max_len",
            "prune.mode", "filter.min_joint_count"])
    def test_warm_run_leaves_the_bytes_of_a_fresh_run(self, corpus_root, tmp_path, runs):
        """After a run with the defaults and then the given runs, each a set of
        overrides, an output directory holds the stage outputs that a run of the last
        config writes into an empty one. `EN` is a copy of the `en` corpus."""
        import shutil

        root = tmp_path / "root"
        shutil.copytree(corpus_root, root)
        shutil.copytree(root / "corpus" / "en", root / "corpus" / "EN")

        def run(overrides, out):
            cfg = validate_config(root / "pipeline.cfg", {"output": str(out), **overrides})
            assert run_pipeline(cfg).ok

        for overrides in [{}, *runs]:
            run(overrides, tmp_path / "warm")
        run(runs[-1], tmp_path / "fresh")
        fresh = _read_outputs(str(tmp_path / "fresh"))
        warm = _read_outputs(str(tmp_path / "warm"))
        assert {path: warm.get(path) for path in fresh} == fresh

    @pytest.mark.parametrize("stage", STAGES)
    def test_every_stage_reads_only_its_declared_inputs(self, corpus_root, tmp_path,
                                                         monkeypatch, stage):
        """A stage's cache key digests the inputs it declares, so its body may open
        no other file for reading. Each stage runs alone, with the cache off, after
        a full run whose manifest is deleted, since loading it is no stage's read."""
        import builtins

        from dmlex import pipeline

        out = str(tmp_path / "out")
        assert run_pipeline(validate_config(_config_path(corpus_root), {"output": out})).ok
        os.remove(os.path.join(out, ".cache.json"))
        cfg = validate_config(_config_path(corpus_root), {"output": out, "cache": "false"})
        opened, declared = set(), set()
        real_open, real_digest = builtins.open, pipeline._digest

        def recording_open(file, mode="r", *args, **kwargs):
            if not any(flag in mode for flag in "wax+"):
                opened.add(os.path.abspath(file))
            return real_open(file, mode, *args, **kwargs)

        def recording_digest(params, input_files):
            declared.update(os.path.abspath(path) for path in input_files)
            return real_digest(params, input_files)

        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(pipeline, "_digest", recording_digest)
        report = run_pipeline(cfg, stages=[stage])
        monkeypatch.undo()
        assert report.ok
        assert {r.stage for r in report.results} == {stage}
        assert declared and opened - declared == set()

    def test_manifest_stores_lose_nothing(self, tmp_path):
        """200 stores in a row, each rewriting the manifest through a temp file, keep
        every record and leave no temp file behind."""
        path = tmp_path / ".cache.json"
        cache = _Cache(str(path))
        for w in range(8):
            for k in range(25):
                cache.store(f"stage{k}:{w}", "d", {"k": k})
        assert len(json.loads(path.read_text(encoding="utf-8"))) == 8 * 25
        assert len(_Cache(str(path)).manifest) == 8 * 25
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_pair_stages_run_on_the_main_thread_in_config_order(self, corpus_root, tmp_path,
                                                               monkeypatch):
        """With --jobs 2 on two languages, every stage call runs on the calling
        thread, one language pair after the other in config order."""
        from dmlex.pipeline import PAIR_STAGES, PipelineRunner

        calls = []
        for stage in STAGES:
            def recording(self, arg, _stage=stage, _real=getattr(PipelineRunner, f"stage_{stage}")):
                calls.append((_stage, arg, threading.current_thread() is threading.main_thread()))
                return _real(self, arg)
            monkeypatch.setattr(PipelineRunner, f"stage_{stage}", recording)
        assert cli_main(["--config", _two_language_config(corpus_root, tmp_path),
                         "--output", str(tmp_path / "out"), "--jobs", "2", "pipeline"]) == 0
        assert calls == [("ingest", "en", True), ("ingest", "xx", True), ("ingest", "yy", True),
                         *[(stage, "xx", True) for stage in PAIR_STAGES],
                         *[(stage, "yy", True) for stage in PAIR_STAGES],
                         ("lexicon", ["xx", "yy"], True)]

    @pytest.mark.parametrize("stage, victim, pattern", [
        ("wordalign", "aligned.tgt", r"aligned\.src has (\d+) lines but .*aligned\.tgt has (\d+)"),
        ("prune", "alignments.txt", r"alignments\.txt has (\d+) lines for (\d+) sentence pairs"),
    ], ids=["aligned-corpus", "alignments"])
    def test_short_line_file_fails_its_stage(self, corpus_root, tmp_path, stage, victim,
                                             pattern):
        import re

        out = tmp_path / "out"
        args = ["--config", _config_path(corpus_root), "--output", str(out)]
        assert cli_main(args + [stage]) == 0
        path = out / "pairs" / "xx" / victim
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")

        assert cli_main(args + [stage]) == 1
        with open(out / "report.json", encoding="utf-8") as fh:
            errors = {s["stage"]: s["error"] for s in json.load(fh)["stages"] if s["error"]}
        assert list(errors) == [stage]
        counts = re.search(pattern, errors[stage]).groups()
        assert sorted(int(c) for c in counts) == [len(lines) - 1, len(lines)]

    @pytest.mark.parametrize("stages", [STAGES[:STAGES.index("prune") + 1], ["prune"]],
                             ids=["through-prune", "prune-alone"])
    @pytest.mark.parametrize("link", ["0-99", "0-x", "+0-+0", "0-0_0", "\u0660-\u0660"],
                             ids=["alignments-range", "alignments-int", "alignments-sign",
                                  "alignments-underscore", "alignments-arabic-digits"])
    def test_bad_links_in_alignments_fail_the_extracting_stage_with_line_number(
            self, corpus_root, tmp_path, link, stages):
        """A bad link added to a line of alignments.txt fails prune, which extracts
        the phrase pairs, naming the line, whether it runs after phrases or alone;
        phrases, which reads the file only for its key, passes. A link is two ASCII
        decimal integers joined by `-`, as the writers write it."""
        out = tmp_path / "out"
        args = ["--config", _config_path(corpus_root), "--output", str(out)]
        assert cli_main(args + ["prune"]) == 0
        path, lineno = out / "pairs" / "xx" / "alignments.txt", 2
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[lineno - 1] = lines[lineno - 1].rstrip("\n") + f" {link}\n"
        path.write_text("".join(lines), encoding="utf-8")

        report = run_pipeline(validate_config(_config_path(corpus_root), {"output": str(out)}),
                              stages)
        assert not report.ok
        errors = {r.stage: r.error for r in report.results if r.error}
        assert list(errors) == ["prune"]
        assert errors["prune"].startswith(f"line {lineno}: ")
        assert errors["prune"].endswith(f" in {path}")

    @pytest.mark.parametrize("victim, lineno, text, stage", [
        ("phrase-table.pruned.txt", 2, "a ||| b ||| 0.5 nan ||| 0-0 ||| 3\n", "markers"),
        ("phrase-table.pruned.txt", 2, "a ||| b ||| 0.5 0 ||| 0-0 ||| 3\n", "markers"),
        ("phrase-table.pruned.txt", 2, "a ||| b ||| 0.5 1.5 ||| 0-0 ||| 3\n", "markers"),
        ("phrase-table.pruned.txt", 2, "a ||| b ||| -0.5 0.5 ||| 0-0 ||| 3\n", "markers"),
        ("phrase-table.pruned.txt", 2, "a ||| b ||| 0.5 0.5 0.5 0.5 ||| 0-0 ||| 3\n",
         "markers"),
        ("phrase-table.pruned.txt", 2, "a ||| b ||| 0.5 0.5 ||| 0-0 ||| 0\n", "markers"),
        ("phrase-table.pruned.txt", 2, "a ||| b ||| 0.5 0.5 ||| 0-0 ||| -4\n", "markers"),
        ("phrase-table.pruned.txt", 2, "a ||| b ||| 0.5 0.5 ||| 0-0 ||| nan\n", "markers"),
        ("phrase-table.pruned.txt", 2, "a ||| b ||| 0.5 0.5 ||| 0-0 ||| inf\n", "markers"),
        ("candidates.tsv", 2, "since\txx\n", "lexicon"),
        ("candidates.tsv", 3, "since\txx\tdesde\tx\t3\tnone\n", "lexicon"),
        ("candidates.tsv", 1, "", "lexicon"),
        ("candidates.tsv", 2, "since\txx\tdesde\tnan\t3\tnone\n", "lexicon"),
        ("candidates.tsv", 2, "since\txx\tdesde\t0\t3\tnone\n", "lexicon"),
        ("candidates.tsv", 2, "since\txx\tdesde\t1.5\t3\tnone\n", "lexicon"),
        ("candidates.tsv", 2, "since\txx\tdesde\t0.5\t0\tnone\n", "lexicon"),
        ("candidates.tsv", 2, "since\txx\tdesde\t0.5\tnan\tnone\n", "lexicon"),
        ("candidates.tsv", 2, "since\txx\tdesde\t0.5\tinf\tnone\n", "lexicon"),
        ("candidates.tsv", 2, "since\txx\tdesde\t0.5\t3\tafter\n", "lexicon"),
    ], ids=["pruned-nan-score",
            "pruned-zero-score", "pruned-score-above-one", "pruned-negative-score",
            "pruned-four-scores", "pruned-zero-count", "pruned-negative-count", "pruned-nan-count",
            "pruned-infinite-count",
            "candidates-short-line", "candidates-bad-score", "candidates-empty",
            "candidates-nan-score", "candidates-zero-score", "candidates-score-above-one",
            "candidates-zero-count", "candidates-nan-count", "candidates-infinite-count",
            "candidates-bad-context"])
    def test_corrupt_reader_input_fails_its_stage_naming_line_and_file(
            self, corpus_root, tmp_path, victim, lineno, text, stage):
        """A bad line in the pruned table fails markers, and one in candidates.tsv
        fails lexicon, with an error that gives the line number and the file. The
        pruned table holds two scores, and the scores of
        it and of candidates.tsv lie in (0, 1], their counts are integers of at least
        1, and a candidate's context is one of lexicon.CONTEXTS: lexicon.json may
        hold no NaN or Infinity."""
        out = tmp_path / "out"
        args = ["--config", _config_path(corpus_root), "--output", str(out)]
        assert cli_main(args + ["pipeline"]) == 0
        path = out / "pairs" / "xx" / victim
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        if text:
            lines[lineno - 1:lineno] = [text]
        else:
            lines = []
        path.write_text("".join(lines), encoding="utf-8")

        assert cli_main(args + ["pipeline"]) == 1
        with open(out / "report.json", encoding="utf-8") as fh:
            errors = {s["stage"]: s["error"] for s in json.load(fh)["stages"] if s["error"]}
        assert list(errors)[0] == stage  # after markers, lexicon has no pair left
        assert errors[stage].startswith(f"line {lineno}: ")
        assert errors[stage].endswith(f" in {path}")


class TestGarbageCollectorPause:
    """run_pipeline pauses the cyclic collector and always restores the caller's setting."""

    def test_paused_during_stages_and_enabled_after(self, corpus_root, tmp_path, monkeypatch):
        from dmlex import phrases

        seen = []
        real = phrases.count_phrase_pairs

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(phrases, "count_phrase_pairs", spy)
        assert gc.isenabled()
        cfg = validate_config(_config_path(corpus_root), {"output": str(tmp_path / "out")})
        assert run_pipeline(cfg).ok
        assert seen == [False]
        assert gc.isenabled()

    def test_enabled_after_a_stage_raises(self, corpus_root, tmp_path, monkeypatch):
        from dmlex import phrases

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(phrases, "count_phrase_pairs", boom)
        cfg = validate_config(_config_path(corpus_root), {"output": str(tmp_path / "out")})
        report = run_pipeline(cfg)
        assert [r.error for r in report.results if r.error] == [
            "boom", "skipped: no language pair left"]
        assert gc.isenabled()

    def test_enabled_after_the_run_itself_raises(self, corpus_root, tmp_path, monkeypatch):
        from dmlex import pipeline

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "write_report", boom)
        cfg = validate_config(_config_path(corpus_root), {"output": str(tmp_path / "out")})
        with pytest.raises(OSError, match="disk full"):
            run_pipeline(cfg)
        assert gc.isenabled()

    def test_enabled_after_a_two_job_run(self, corpus_root, tmp_path):
        assert cli_main(["--config", _two_language_config(corpus_root, tmp_path),
                         "--output", str(tmp_path / "out"), "--jobs", "2", "pipeline"]) == 0
        assert gc.isenabled()

    def test_caller_who_disabled_it_finds_it_disabled(self, corpus_root, tmp_path):
        cfg = validate_config(_config_path(corpus_root), {"output": str(tmp_path / "out")})
        gc.disable()
        try:
            assert run_pipeline(cfg).ok
            assert not gc.isenabled()
        finally:
            gc.enable()


def _read_outputs(out_dir):
    blobs = {}
    skip = {"report.txt", "report.json", ".cache.json"}
    for dirpath, _, filenames in os.walk(out_dir):
        for name in filenames:
            if name in skip:
                continue
            path = os.path.join(dirpath, name)
            blobs[os.path.relpath(path, out_dir)] = pathlib.Path(path).read_bytes()
    return blobs


class TestCli:
    def test_pipeline_subcommand_exit_zero(self, corpus_root, tmp_path, capsys):
        out = str(tmp_path / "out")
        rc = cli_main(["--config", _config_path(corpus_root), "--output", out, "pipeline"])
        assert rc == 0
        assert "lexicon" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("corpus_root = /nope\nenglish = en\nforeign = xx\nmarkers = /nope\n",
                       encoding="utf-8")
        rc = cli_main(["--config", str(bad), "pipeline"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_stage_failure_exit_one(self, corpus_root, tmp_path):
        import shutil

        root = tmp_path / "failing"
        shutil.copytree(corpus_root, root)
        (root / "corpus" / "xx" / "ep-0.txt").write_bytes(b"<P>\n\xff broken\n")
        rc = cli_main(["--config", str(root / "pipeline.cfg"),
                       "--output", str(root / "out"), "pipeline"])
        assert rc == 1

    def test_no_cache_flag_forces_recompute(self, corpus_root, tmp_path, capsys):
        out = str(tmp_path / "out")
        cli_main(["--config", _config_path(corpus_root), "--output", out, "pipeline"])
        capsys.readouterr()
        cli_main(["--config", _config_path(corpus_root), "--output", out,
                  "--no-cache", "pipeline"])
        assert "cached" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", STAGES + ["pipeline"])
    def test_prefix_subcommand_runs_through_stage(self, corpus_root, tmp_path, command):
        out = str(tmp_path / "out")
        rc = cli_main(["--config", _config_path(corpus_root), "--output", out, command])
        assert rc == 0
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            ran = {s["stage"] for s in json.load(fh)["stages"]}
        assert ran == set(STAGES[:STAGES.index(command) + 1] if command in STAGES else STAGES)
        assert os.path.isfile(os.path.join(out, "pairs", "xx", "prune-report.tsv")) == (
            "prune" in ran)
        assert os.path.exists(os.path.join(out, "lexicon.tsv")) == ("lexicon" in ran)

    def test_report_subcommand(self, corpus_root, tmp_path, capsys):
        out = str(tmp_path / "out")
        cli_main(["--config", _config_path(corpus_root), "--output", out, "pipeline"])
        capsys.readouterr()
        rc = cli_main(["--config", _config_path(corpus_root), "--output", out, "report"])
        assert rc == 0
        assert '"ok": true' in capsys.readouterr().out

    @pytest.mark.parametrize("damage", [lambda text: text[:len(text) // 2], lambda text: "[]\n",
                                        lambda text: '{"stages": []}\n',
                                        lambda text: '{"ok": "no", "stages": []}\n'],
                             ids=["truncated", "not-an-object", "no-ok", "ok-not-a-boolean"])
    def test_report_subcommand_on_a_bad_report(self, corpus_root, tmp_path, capsys, damage):
        out = tmp_path / "out"
        args = ["--config", _config_path(corpus_root), "--output", str(out)]
        assert cli_main(args + ["ingest"]) == 0
        path = out / "report.json"
        path.write_text(damage(path.read_text(encoding="utf-8")), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(args + ["report"]) == 1
        assert capsys.readouterr() == ("", f"no valid report at {path}\n")

    @pytest.mark.parametrize("tail", [b"# caf\xff\n", b"# caf\xc3(\n", b"# caf\xc3"],
                             ids=["bad-start-byte", "bad-continuation-byte", "cut-at-the-end"])
    def test_invalid_utf8_in_config_is_a_config_error(self, corpus_root, tmp_path, capsys,
                                                      tail):
        path = _custom_config(corpus_root, tmp_path, "")
        good = pathlib.Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(good + tail)
        assert cli_main(["--config", path, "pipeline"]) == 2
        assert capsys.readouterr().err == (f"config error: byte {len(good) + 5}: invalid UTF-8 "
                                           f"in {path}\n")

    def test_jobs_flag_changes_nothing(self, corpus_root, tmp_path):
        """--jobs is accepted and checked, and the outputs and the report's rows are
        the same for every value."""
        cfg_file = _two_language_config(corpus_root, tmp_path)
        for jobs in ("2", "1"):
            assert cli_main(["--config", cfg_file, "--output", str(tmp_path / jobs),
                             "--jobs", jobs, "pipeline"]) == 0
        assert os.path.isfile(tmp_path / "2" / "pairs" / "yy" / "candidates.tsv")
        assert _read_outputs(str(tmp_path / "2")) == _read_outputs(str(tmp_path / "1"))
        rows = [[(s["pair"], s["stage"]) for s in json.loads(
                    (tmp_path / jobs / "report.json").read_text(encoding="utf-8"))["stages"]]
                for jobs in ("2", "1")]
        assert rows[0] == rows[1]
        assert [pair for pair, stage in rows[0] if stage == "align"] == ["xx", "yy"]

    @pytest.mark.parametrize("line, flags, message", [
        ("", ["--jobs", "0"], "jobs must be at least 1"),
        ("wordalign.symmetrization = grow", [],
         "unknown wordalign.symmetrization 'grow'; expected one of intersection, union, "
         "grow-diag-final-and"),
        ("em.iterations = 0", [], "em.iterations must be at least 1"),
        ("phrases.max_len = 0", [], "phrases.max_len must be at least 1"),
        ("filter.max_length_delta = -1", [], "max_length_delta must be >= 0"),
        ("prune.mode = nan", [], "bad value for prune.mode: custom_neg_log_p must be finite "
         "and >= 0"),
        ("prune.mode = inf", [], "bad value for prune.mode: custom_neg_log_p must be finite "
         "and >= 0"),
        ("filter.min_joint_count = 0", [], "min_joint_count must be >= 1"),
        ("filter.min_dir_phrase_prob = nan", [], "probability floors must lie in [0, 1]"),
        # the method's constants are not config keys
        ("aligner.mean_char_ratio = -1", [], "unknown config key: aligner.mean_char_ratio"),
        ("aligner.variance = nan", [], "unknown config key: aligner.variance"),
        ("em.prob_floor = 2", [], "unknown config key: em.prob_floor"),
        ("em.null = false", [], "unknown config key: em.null"),
        ("prune.epsilon = nan", [], "unknown config key: prune.epsilon"),
        ("filter.require_full_marker_alignment = false", [],
         "unknown config key: filter.require_full_marker_alignment"),
        # a language code names directories of its own under the output
        ("foreign = xx,xx", [], "language code 'xx' repeated in english/foreign"),
        ("english = xx", [], "language code 'xx' repeated in english/foreign"),
        ("foreign = xx,", [], "language code '' is not a directory name"),
        ("english =", [], "language code '' is not a directory name"),
        ("foreign = .", [], "language code '.' is not a directory name"),
        ("foreign = xx,..", [], "language code '..' is not a directory name"),
        ("foreign = ../xx", [], "language code '../xx' is not a directory name"),
    ], ids=["jobs", "symmetrization", "em.iterations", "phrases.max_len",
            "filter.max_length_delta", "prune.mode-nan", "prune.mode-inf",
            "filter.min_joint_count", "filter.min_dir_phrase_prob",
            "aligner.mean_char_ratio", "aligner.variance", "em.prob_floor", "em.null",
            "prune.epsilon", "filter.require_full_marker_alignment", "foreign-repeated",
            "english-in-foreign", "foreign-empty", "english-empty", "foreign-dot",
            "foreign-dot-dot", "foreign-separator"])
    def test_bad_value_is_a_config_error(self, corpus_root, tmp_path, capsys,
                                         line, flags, message):
        out = tmp_path / "out"
        rc = cli_main(["--config", _custom_config(corpus_root, tmp_path, line),
                       "--output", str(out), *flags, "pipeline"])
        assert rc == 2
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not (out / "ingest").exists()

    def test_uncreatable_output_directory_is_a_config_error(self, corpus_root, tmp_path,
                                                            capsys):
        """An output path through a regular file ends in one line and exit 2, not
        in a traceback."""
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        out = str(afile / "out")
        assert cli_main(["--config", _config_path(corpus_root), "--output", out,
                         "pipeline"]) == 2
        assert capsys.readouterr() == (
            "", f"config error: cannot create output directory {out}: Not a directory\n")

    def test_runtime_imports_neither_numpy_nor_scipy(self, corpus_root, tmp_path):
        lines = _python_lines(
            "import sys\n"
            "from dmlex.cli import main\n"
            f"rc = main(['--config', {_config_path(corpus_root)!r}, "
            f"'--output', {str(tmp_path / 'out')!r}, 'pipeline'])\n"
            "print(rc, sorted(m for m in sys.modules if m.startswith(('numpy', 'scipy'))))\n"
        )
        assert lines[-1] == "0 []"

    def test_cli_start_and_pipeline_run_load_no_thread_pool_or_dataclasses(self, corpus_root,
                                                                          tmp_path):
        """Importing the CLI and validating a config, all that a CLI start which runs
        no stage does, loads none of these modules beyond what `python -c pass` loads.
        A pipeline run never loads the thread pool: the pairs run on one thread."""
        lines = _python_lines(
            "import sys\n"
            "watched = ('dataclasses', 'inspect', 'concurrent.futures', 'logging')\n"
            "at_start = {m for m in watched if m in sys.modules}\n"
            "from dmlex.cli import main\n"
            "from dmlex.pipeline import validate_config\n"
            f"validate_config({_config_path(corpus_root)!r})\n"
            "print(sorted(m for m in watched if m in sys.modules and m not in at_start))\n"
            f"rc = main(['--config', {_config_path(corpus_root)!r}, "
            f"'--output', {str(tmp_path / 'out')!r}, 'pipeline'])\n"
            "print(rc, 'concurrent.futures' in sys.modules)\n"
        )
        assert (lines[0], lines[-1]) == ("[]", "0 False")


def _count_calls(monkeypatch, calls):
    """Wrap each (module, name) key of calls so that a call adds one to its value."""
    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[module, name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module, name in calls:
        monkeypatch.setattr(module, name, counted(module, name))


def _python_lines(code):
    """The stdout lines of `code` run by a fresh interpreter that imports dmlex
    from this checkout."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_default_containers_are_fresh_per_instance():
    """Records built with a default container each get their own, as a shared
    default of a tuple type would not."""
    from dmlex.model1 import TranslationTable
    from dmlex.phrases import PhraseTable
    from dmlex.pipeline import RunReport, StageResult

    a, b = TranslationTable(probs={}), TranslationTable(probs={})
    assert a.generated_vocab is not b.generated_vocab
    assert a.log_likelihoods is not b.log_likelihoods
    assert StageResult("xx", "align").stats is not StageResult("xx", "align").stats
    a, b = PhraseTable(), PhraseTable()
    assert (a.entries is not b.entries) and (a.by_english is not b.by_english)
    assert RunReport().results is not RunReport().results
