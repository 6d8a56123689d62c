"""Byte identity of every stage output, pinned by sha256.

The digests were taken from a full pipeline run on an 80-pair synthetic
corpus. A change that is meant to leave every output unchanged must keep
this test green; a change that alters an output on purpose updates the
digest here and says why in CHANGES.md. The run reports and the cache
manifest carry timings and paths, so they are not pinned; the stage digests
in the manifest are, because a cache primed by an earlier build hits only
while they hold. `prune` extracts the phrase pairs itself, so a rerun of
`prune` alone must give the pinned bytes too.
"""

import hashlib
import json
import os

from dmlex.pipeline import run_pipeline, validate_config

from helpers import write_synthetic_corpus

GOLDEN = {
    "ingest/en/ep-0.txt": "21ca9103421244512bfe2c68f563519afefa6e8e5074f71ca6d5911c275e24db",
    "ingest/en/ep-1.txt": "3cf03318b298720f338b3d84e70b5b9a1594821cb3200553b1881d532f98eb3b",
    "ingest/xx/ep-0.txt": "057929875a59e13452f8f0dae8c7a68f9d71471ab2900a92eece4665592ace0d",
    "ingest/xx/ep-1.txt": "fc73c27d1a3db8daab58e2187ac8609a8b639def96450bcbfb2c056dee901be6",
    "pairs/xx/aligned.src": "0bb208e4b81bf612d1aef55c5e3e8d361ed2a7c869bd378e1032fe18cfe01ea3",
    "pairs/xx/aligned.tgt": "b942ea1dc3e01901a035c76148de756377629e87862dc2db3ab93cfd78e81754",
    "pairs/xx/alignments.txt": "5ada3a9e44b6bbcdc0c2045a4b7f4d41faccf0fdcb862968c36f85afcc22d5ae",
    "pairs/xx/phrase-table.pruned.txt":
        "eb94183b4416c54b0111ae0cbb5141d07ebae70180bae9c13dd63e23943a7d37",
    "pairs/xx/prune-report.tsv": "5f0f87ad77d2af052c25347c94a4cf00ab9b7abcc11f4e62baceb537282990a4",
    "pairs/xx/candidates.tsv": "b5eecd6ccd8014b2123638be46ec293c6cfe1cfaa1c0eeb91cec9dce26ed1c92",
    "lexicon.tsv": "f2e3e96559d200eff75f7dec000a3b2aec50dc197892b9d0c1e0cb1ba99ac266",
    "lexicon.json": "e60fd4fddf9a3ccc72ec3c76f02473f677c74af38d9a1377404f80c7be929c91",
}
NOT_PINNED = {"report.txt", "report.json", ".cache.json"}
GOLDEN_CACHE = {
    "ingest:en": "8421dbd4eb6c04a0d62ea834b39a1018c2334c1155db7dc6e22ff83e42f8e55f",
    "ingest:xx": "1b150e382e8e1f3d7f6d5b65f825538100f4408cf8e5cee62356cc20ffb3abf8",
    "align:xx": "0665dccd494813fee1691aac0dec70589197fe7c72734f41d5c781b1773bf8ad",
    "wordalign:xx": "ba74fb2e78eaf92637f1676f2f7a565751888980cfa6ed455a2677f0cdf013f1",
    "phrases:xx": "422f6c20758f620071f80a8e6bb1486c74bac4d88715b773a0eca3aaee63e480",
    "prune:xx": "151058d0c374826b44883632cc9e31eb96723e2375a47e9210a70dc33442d81f",
    "markers:xx": "7ac4dd9afec67e472fa47f36742cd07df46f48cd6ebfe3a37f1d53aab11a1b39",
    "lexicon:all": "d84b73f0a4ff6aa71d6987eb3f0981a08a58ae6fda335f79fd715d150e978563",
}


def _digests(out):
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.rglob("*")
            if path.is_file() and path.relative_to(out).as_posix() not in NOT_PINNED}


def test_stage_outputs_match_pinned_digests(tmp_path):
    config = write_synthetic_corpus(str(tmp_path), n_pairs=80)
    assert run_pipeline(validate_config(config)).ok
    out = tmp_path / "out"
    assert _digests(out) == GOLDEN
    with open(out / ".cache.json", encoding="utf-8") as fh:
        assert {key: rec["digest"] for key, rec in json.load(fh).items()} == GOLDEN_CACHE
    assert os.path.getsize(out / "lexicon.tsv") > 0

    # prune alone, on a new runner with the cache off, extracts anew from its inputs
    rerun = run_pipeline(validate_config(config, {"cache": "false"}), stages=["prune"])
    assert [(r.stage, r.cache_hit, r.error) for r in rerun.results] == [("prune", False, None)]
    assert _digests(out) == GOLDEN
