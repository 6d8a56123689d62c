"""Check that a cold pipeline run writes the committed bytes on this Python.

Builds the 1,984-pair corpus of perfbench/corpus.py (seed 3, foreign language
`pt`, 5 files of 400 sentences, each planted marker repeated 4 times), runs
`dmlex pipeline` on it with the cache off, and compares the sha256 of every
corpus file and every stage output with outputs-1984.json next to this
script, whose digests were taken on Python 3.11. A corpus mismatch means the
generator differs on this Python; an output mismatch on an equal corpus means
the pipeline does.

    python .github/check_outputs.py            # exit 1 on any mismatch
    python .github/check_outputs.py --write    # rewrite outputs-1984.json
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "outputs-1984.json")

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from corpus import CorpusSpec, write_corpus  # noqa: E402
from run import SEED_MARKERS, output_digests  # noqa: E402


def cold_run(work):
    """{"corpus": digests, "outputs": digests} of a cold run under work."""
    reserved = set()  # seed marker words, which the planted translations avoid
    with open(SEED_MARKERS, encoding="utf-8") as fh:
        for line in fh:
            if not line.lstrip().startswith("#"):
                reserved.update(line.lower().split())
    corpus = os.path.join(work, "corpus")
    write_corpus(corpus, CorpusSpec(("pt",), files=5, sentences_per_file=400, marker_reps=4),
                 3, reserved)
    config = os.path.join(work, "pipeline.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(f"corpus_root = corpus\nenglish = en\nforeign = pt\nmarkers = {SEED_MARKERS}\n")
    out = os.path.join(work, "out")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "dmlex.cli", "--config", config, "--output", out,
                    "--no-cache", "pipeline"], env=env, check=True, stdout=subprocess.DEVNULL)
    return {"corpus": output_digests(corpus), "outputs": output_digests(out)}


def main(argv):
    with tempfile.TemporaryDirectory() as work:
        got = cold_run(work)
    if argv[1:] == ["--write"]:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    with open(DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)
    bad = [f"{part}/{name}" for part in ("corpus", "outputs")
           for name in sorted(set(want[part]) | set(got[part]))
           if want[part].get(name) != got[part].get(name)]
    for name in bad:
        print(f"differs from {os.path.basename(DIGESTS)}: {name}")
    print(f"Python {sys.version.split()[0]}: {len(bad)} of "
          f"{len(want['corpus']) + len(want['outputs'])} files differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
