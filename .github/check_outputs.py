"""Check that the pipeline writes the committed bytes on this Python.

Builds the 1,984-pair corpus of perfbench/corpus.py (seed 3, foreign language
`pt`, 5 files of 400 sentences, each planted marker repeated 4 times), runs
`dmlex pipeline` on it with the cache off, and compares the sha256 of every
corpus file and every stage output with outputs-1984.json next to this
script, whose digests were taken on Python 3.11. A corpus mismatch means the
generator differs on this Python; an output mismatch on an equal corpus means
the pipeline does.

Then each case of CASES reruns `dmlex pipeline` on that output directory with
the cache on and its config settings: other `prune.mode`s, then
`filter.min_joint_count` 5, 2 (the default) and 5 with `prune.mode` left as it
was. Every selected candidate has a joint count of 4, so 5 drops them all and
2 keeps them. Each stage must read ran exactly when
one of its parameters differs from the run before or a file it reads differs
from that run's bytes (the cache keys on parameters and input bytes: under
`alpha` the pruned table is the default mode's, and the four modes write the
same `candidates.tsv`), and cached otherwise. The digests of every stage output
and the `prune`, `markers` and `lexicon` stats of report.json (less their
seconds) are compared with outputs-1984-cases.json.

    python .github/check_outputs.py            # exit 1 on any mismatch
    python .github/check_outputs.py --write    # rewrite both digest files
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "outputs-1984.json")
CASE_DIGESTS = os.path.join(HERE, "outputs-1984-cases.json")

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from corpus import CorpusSpec, write_corpus  # noqa: E402
from run import SEED_MARKERS, output_digests  # noqa: E402

# case -> its config settings, run in this order on the cold run's output directory
CASES = {"alpha": {"prune.mode": "alpha"}, "custom-1.0": {"prune.mode": "1.0"},
         "custom-3.0": {"prune.mode": "3.0"}, "custom-0": {"prune.mode": "0"},
         "joint-5": {"prune.mode": "0", "filter.min_joint_count": "5"},
         "joint-2": {"prune.mode": "0"},
         "joint-5-again": {"prune.mode": "0", "filter.min_joint_count": "5"}}
CHECKED_STATS = ("prune", "markers", "lexicon")
# stage -> (prefixes of the config keys in its parameters, prefixes of the outputs it reads)
STAGE_DEPENDS = {
    "ingest": ((), ()),
    "align": ((), ("ingest/",)),
    "wordalign": (("em.", "wordalign."), ("pairs/pt/aligned.",)),
    "phrases": (("phrases.",), ("pairs/pt/aligned.", "pairs/pt/alignments.txt")),
    "prune": (("prune.", "phrases."), ("pairs/pt/aligned.", "pairs/pt/alignments.txt")),
    "markers": (("filter.",), ("pairs/pt/phrase-table.pruned.txt",)),
    "lexicon": ((), ("pairs/pt/candidates.tsv",)),
}


def run_cli(work, config_lines, *flags):
    config = os.path.join(work, "pipeline.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{line}\n" for line in config_lines))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "dmlex.cli", "--config", config,
                    "--output", os.path.join(work, "out"), *flags, "pipeline"],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def cold_run(work, config_lines):
    """{"corpus": digests, "outputs": digests} of a cold run under work."""
    reserved = set()  # seed marker words, which the planted translations avoid
    with open(SEED_MARKERS, encoding="utf-8") as fh:
        for line in fh:
            if not line.lstrip().startswith("#"):
                reserved.update(line.lower().split())
    corpus = os.path.join(work, "corpus")
    write_corpus(corpus, CorpusSpec(("pt",), files=5, sentences_per_file=400, marker_reps=4),
                 3, reserved)
    run_cli(work, config_lines, "--no-cache")
    return {"corpus": output_digests(corpus), "outputs": output_digests(os.path.join(work, "out"))}


def case_run(work, config_lines, settings, before):
    """{"outputs": digests, "stats": {stage: stats}} of a cached rerun under
    settings, and the stages whose status is not the expected one, given the
    (settings, output digests) of the run before."""
    run_cli(work, [*config_lines, *(f"{key} = {value}" for key, value in settings.items())])
    outputs = output_digests(os.path.join(work, "out"))
    with open(os.path.join(work, "out", "report.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["stages"]
    last_settings, last_outputs = before
    keys = [key for key in {*settings, *last_settings}
            if settings.get(key) != last_settings.get(key)]
    files = [name for name in outputs if outputs[name] != last_outputs.get(name)]
    reran = {stage: any(key.startswith(params) for key in keys)
             or any(name.startswith(reads) for name in files)
             for stage, (params, reads) in STAGE_DEPENDS.items()}
    wrong = [f"{r['stage']} {'FAILED' if r['error'] else 'cached' if r['cache_hit'] else 'ran'}"
             for r in rows if r["error"] or r["cache_hit"] == reran[r["stage"]]]
    stats = {r["stage"]: r["stats"] for r in rows if r["stage"] in CHECKED_STATS}
    return {"outputs": outputs, "stats": stats}, wrong


def differences(want, got, parts):
    return [f"{part}/{name}" for part in parts
            for name in sorted(set(want[part]) | set(got[part]))
            if want[part].get(name) != got[part].get(name)]


def main(argv):
    config_lines = ["corpus_root = corpus", "english = en", "foreign = pt",
                    f"markers = {SEED_MARKERS}"]
    with tempfile.TemporaryDirectory() as work:
        got = cold_run(work, config_lines)
        cases, wrong, before = {}, [], ({}, got["outputs"])
        for case, settings in CASES.items():
            cases[case], statuses = case_run(work, config_lines, settings, before)
            wrong.extend(f"{case}: {status}" for status in statuses)
            before = settings, cases[case]["outputs"]
    for status in wrong:
        print(f"unexpected stage status: {status}")
    if argv[1:] == ["--write"]:
        for path, doc in ((DIGESTS, got), (CASE_DIGESTS, cases)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
        return 1 if wrong else 0
    with open(DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)
    with open(CASE_DIGESTS, encoding="utf-8") as fh:
        want_cases = json.load(fh)
    bad = differences(want, got, ("corpus", "outputs"))
    bad.extend(f"{case}: {name}" for case in CASES
               for name in differences(want_cases[case], cases[case], ("outputs", "stats")))
    for name in bad:
        print(f"differs from the digests: {name}")
    print(f"Python {sys.version.split()[0]}: {len(bad)} of "
          f"{len(want['corpus']) + len(want['outputs'])} files and "
          f"{sum(len(c['outputs']) + len(c['stats']) for c in want_cases.values())} "
          f"case entries differ; {len(wrong)} stage statuses are wrong")
    return 1 if bad or wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
