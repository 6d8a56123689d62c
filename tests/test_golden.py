"""Byte identity of every stage output, pinned by sha256.

The digests were taken from a full pipeline run on an 80-pair synthetic
corpus. A change that is meant to leave every output unchanged must keep
this test green; a change that alters an output on purpose updates the
digest here and says why in CHANGES.md. The run reports and the cache
manifest carry timings and paths, so they are not pinned; the stage digests
in the manifest are, because a cache primed by an earlier build hits only
while they hold.
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
    "pairs/xx/model1.e_given_f.tsv":
        "877f9649b61ea4032574df93198555c8b4e88ec6fce845fd25b76c2ba5d632ca",
    "pairs/xx/model1.f_given_e.tsv":
        "15e32d4c8b13a6cc47738c0aa79dd29cb3be597c07b24182cd213dbad0cc4230",
    "pairs/xx/phrase-table.txt": "d45fd9b18d6c6feb2d691fdb1355fc6cf540603a6270de8ecdc242fec8e63d7c",
    "pairs/xx/phrase-table.pruned.txt":
        "5e54904d978ab1f3252731faff3627a2f709b49ca5ce4d4b1e480148c46f76b1",
    "pairs/xx/prune-report.tsv": "3a04c6b6e3e6ab4a38e83c6cfa6ac02735b9e2f62a0cde5a9527c0868730ea5e",
    "pairs/xx/candidates.tsv": "b5eecd6ccd8014b2123638be46ec293c6cfe1cfaa1c0eeb91cec9dce26ed1c92",
    "lexicon.tsv": "f2e3e96559d200eff75f7dec000a3b2aec50dc197892b9d0c1e0cb1ba99ac266",
    "lexicon.json": "e60fd4fddf9a3ccc72ec3c76f02473f677c74af38d9a1377404f80c7be929c91",
}
NOT_PINNED = {"report.txt", "report.json", ".cache.json"}
GOLDEN_CACHE = {
    "ingest:en": "1abdb9d2f6851628d88771a53ac4f2ac864b4612c7ee68a4366fd18edb924cc0",
    "ingest:xx": "25a17dadc8a24abf071a00640bd0d989bf22a30f5812ddf63d16b517473773fd",
    "align:xx": "4a12552228c0e876a31510a41a525fcc2f65c43aec7fe3fdc6806b69bd8325f6",
    "wordalign:xx": "7ebbdd6d5c00c14e90ea72575a9852b8145fb125e814fafc37c5c62befca7714",
    "phrases:xx": "a4dbfb9eaad6100dc105db0f1c37b25d3a1214e818957524211a923c1b34ca2a",
    "prune:xx": "b4959e75cb5b027488567d89a43e7521d013510a762e739ad34c4120336982d0",
    "markers:xx": "c4561372f21e97d4b11bd73298cbc03198bbbb5c79e3fbef89732ac8e1929a63",
    "lexicon:all": "17e76bf99612b6b7997b62cbac09767dc2e9f907d5f7fa9f26b0c1869fc8d7d9",
}


def test_stage_outputs_match_pinned_digests(tmp_path):
    config = write_synthetic_corpus(str(tmp_path), n_pairs=80)
    assert run_pipeline(validate_config(config)).ok
    out = tmp_path / "out"
    digests = {}
    for path in out.rglob("*"):
        rel = path.relative_to(out).as_posix()
        if path.is_file() and rel not in NOT_PINNED:
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == GOLDEN
    with open(out / ".cache.json", encoding="utf-8") as fh:
        assert {key: rec["digest"] for key, rec in json.load(fh).items()} == GOLDEN_CACHE
    assert os.path.getsize(out / "lexicon.tsv") > 0
