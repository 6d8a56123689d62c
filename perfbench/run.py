"""Benchmark of the dmlex CLI on generated Europarl-format corpora.

    python3 perfbench/run.py --workload ep-2lang --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, one table

It finds the checkout from its own path and runs the `dmlex` package under
`src/` in child processes (`python3 -m dmlex.cli ...`), so nothing needs
installing. Each workload generates its corpus from `--seed`, times
CLI invocations ("ops") for `--seconds`, checks every op's outputs, and
prints its metrics; the last line of standard output is one JSON object.
With `--trace 1` the run alternates plain ops with ops run under
`trace_cli.py` and prints per-layer metrics instead. See README.md.

Scratch files, per-run result files and the record of earlier runs live in
`.perfbench/` at the checkout root.
"""

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median

from corpus import CorpusSpec, write_corpus
from trace_cli import TRACED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SEED_MARKERS = os.path.join(SRC, "dmlex", "data", "seed_markers.txt")
TRACE_CLI = os.path.join(HERE, "trace_cli.py")
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024

# The stage order is written out here rather than imported from dmlex, so the
# stage-list check does not follow a change to the code it checks.
STAGES = ["ingest", "align", "wordalign", "phrases", "prune", "markers", "lexicon"]
SUBCOMMAND_STAGES = {"wordalign": STAGES[:3], "pipeline": STAGES, "lexicon": STAGES}
PER_PAIR = ["align", "wordalign", "phrases", "prune", "markers"]
# Files the CLI rewrites with timings on every run; every other file under
# the output directory is a stage output and must be byte-identical.
NOT_STAGE_OUTPUTS = {"report.json", "report.txt", ".cache.json"}

OP_TIMEOUT_S = 120
SETUP_SPAWNS = 12  # import+validate spawns per run
PRIMING_REPEATS = 3  # priming runs per warm run
RSS_SAMPLE_S = 0.025
TREE_RESCAN = 20  # samples between rescans of the process tree
SETUP_SNIPPET = ("import sys; import dmlex.cli; from dmlex.pipeline import validate_config; "
                 "validate_config(sys.argv[1], {'jobs': sys.argv[2]})")


@dataclass(frozen=True)
class Workload:
    """A corpus and the CLI call timed on it; README.md says why each exists."""

    name: str
    corpus: CorpusSpec
    command: str  # dmlex subcommand of each timed op
    jobs: int
    warm: bool = False  # ops rerun a primed output directory


WORKLOADS = {w.name: w for w in [
    Workload(
        "ep-2lang",
        CorpusSpec(languages=("pt", "fr"), files=2, sentences_per_file=24,
                   marker_reps=4),
        "pipeline", jobs=1),
    Workload(
        "ep-2lang-jobs2",
        CorpusSpec(languages=("pt", "fr"), files=2, sentences_per_file=24,
                   marker_reps=4),
        "pipeline", jobs=2),
    Workload(
        "collapsed-wordalign",
        CorpusSpec(languages=("pt",), files=2, sentences_per_file=400, collapse=True),
        "wordalign", jobs=1),
    Workload(
        "retune-warm",
        CorpusSpec(languages=("pt", "fr"), files=1, sentences_per_file=60,
                   marker_reps=4, alternatives=True),
        "lexicon", jobs=2, warm=True),
]}

# The warm workload alternates these two configs; B drops the alternative
# planted translations (joint count 2), A keeps them, and both keep every
# main one (joint count 4 or more).
RETUNE_SETTINGS = {"A": {}, "B": {"filter.min_joint_count": "3"}}

E2E_UNITS = {"wall_s": "s", "tail_s": "s", "pairs_per_s": "pairs/s", "peak_rss_mb": "MB",
             "setup_s": "s"}
LAYER_TIME_METRICS = sorted({m for fns in TRACED.values() for m in fns.values()})
LAYER_UNITS = {
    **{m: "s" for m in LAYER_TIME_METRICS},
    "ingest.sentences": "count",
    "galechurch.dp_cells": "count", "galechurch.collapsed_files": "count",
    "model1.link_evals": "count", "model1.ttable_entries": "count",
    "phrases.instances": "count", "phrases.entries": "count",
    "significance.entries": "count", "significance.kept_ratio": "ratio",
    "significance.distinct_tables": "count",
    "lexicon.candidates": "count", "lexicon.kept_ratio": "ratio",
    "pipeline.stage_self_s": "s", "pipeline.cache_hit_ratio": "ratio",
    "pipeline.bytes_hashed": "bytes", "pipeline.artifact_mb": "MB", "pipeline.cpu_s": "s",
    "pipeline.wait_s": "s", "pipeline.parallel_eff": "ratio", "trace.overhead_s": "s",
}
# Counts that must repeat exactly for one seed and one source tree.
EXACT_COUNTS = ["galechurch.dp_cells", "model1.link_evals", "phrases.instances",
                "phrases.entries", "significance.entries", "significance.distinct_tables",
                "pipeline.cache_hit_ratio", "pipeline.bytes_hashed"]


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a valid result."""


@dataclass
class Op:
    setting: str  # "cold", or the retune setting the op ran with
    traced: bool
    wall: float
    peak_rss_mb: float
    cpu_s: float
    load_before: list
    load_after: list
    exit_code: int
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    recall: tuple = (0, 0)
    artifact_mb: float = 0.0
    layers: dict = field(default_factory=dict)
    layer_cpu: dict = field(default_factory=dict)
    layer_wall: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.errors


# ---- process measurement ----------------------------------------------------

def _process_tree(root_pid):
    """root_pid and every process below it, from the parent links in /proc."""
    children = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii", errors="replace") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(name))
    tree = []
    todo = [root_pid]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, []))
    return tree


def _rss_kb(pids):
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
                total += int(fh.read().split()[1]) * PAGE_KB
        except (OSError, IndexError, ValueError):
            continue
    return total


def spawn(argv, log_path):
    """Run argv to completion; return (wall s, exit code, peak RSS MiB, CPU s).

    Peak RSS is the larger of the sampled sum over the process tree and the
    child's own ru_maxrss (which covers descendants it waited for, so a
    worker that lives between two tree rescans still counts by itself). CPU is
    user + system time of the child and its waited-for descendants.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        done = threading.Event()
        peak = [0]

        def sample():
            tree = [proc.pid]
            for k in itertools.count():
                if done.wait(RSS_SAMPLE_S):
                    return
                if k % TREE_RESCAN == 0:  # walking all of /proc costs more than the reads
                    tree = _process_tree(proc.pid)
                peak[0] = max(peak[0], _rss_kb(tree))

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
            done.set()
            sampler.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, proc.returncode, max(peak[0], usage.ru_maxrss) / 1024.0,
            usage.ru_utime + usage.ru_stime)


# ---- output checks ----------------------------------------------------------

def output_digests(out_dir):
    digests = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            if name in NOT_STAGE_OUTPUTS:
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def combined_digest(digests):
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def dir_mb(path):
    return sum(os.path.getsize(os.path.join(b, f)) for b, _, fs in os.walk(path)
               for f in fs) / 2 ** 20


def expected_stages(workload, cold):
    """[(pair, stage, cache_hit)] in report order."""
    stages = SUBCOMMAND_STAGES[workload.command]
    langs = workload.corpus.languages
    rows = [(lang, "ingest") for lang in ("en", *langs)]
    rows += [(lang, s) for lang in langs for s in PER_PAIR if s in stages]
    if "lexicon" in stages:
        rows.append(("all", "lexicon"))
    recompute = {"markers", "lexicon"}
    return [(p, s, not cold and s not in recompute) for p, s in rows]


def marker_recall(out_dir, planted):
    """(planted markers whose top lexicon.json translation is one of their
    planted translations, markers planted), summed over languages."""
    with open(os.path.join(out_dir, "lexicon.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    top = {(m["marker"], lang): recs[0]["translation"]
           for m in doc["markers"] for lang, recs in m["languages"].items() if recs}
    pairs = [(marker, lang, variants) for lang, table in planted.items()
             for marker, variants in table.items()]
    hits = sum(1 for marker, lang, variants in pairs if top.get((marker, lang)) in variants)
    return hits, len(pairs)


def check_op(op, workload, out_dir, planted, cold):
    if op.exit_code != 0:
        op.errors.append(f"exit code {op.exit_code}")
    report_path = os.path.join(out_dir, "report.json")
    if not os.path.isfile(report_path):
        op.errors.append("no report.json")
        return
    with open(report_path, encoding="utf-8") as fh:
        op.report = json.load(fh)
    if op.report.get("ok") is not True:
        op.errors.append("report.json ok is not true")
    got = [(r["pair"], r["stage"], r["cache_hit"]) for r in op.report.get("stages", [])]
    want = expected_stages(workload, cold)
    if got != want:
        op.errors.append(f"stage list / cache pattern {got} != expected {want}")
    op.digests = output_digests(out_dir)
    op.artifact_mb = dir_mb(out_dir)
    if "lexicon" in SUBCOMMAND_STAGES[workload.command]:
        op.recall = marker_recall(out_dir, planted)
        if op.recall[0] != op.recall[1]:
            op.errors.append(f"marker recall {op.recall[0]}/{op.recall[1]}")


def aligned_pairs(report):
    return sum(r["stats"]["sentence_pairs"] for r in report["stages"] if r["stage"] == "align")


# ---- per-layer metrics from spans -------------------------------------------

def layer_metrics(spans):
    """Per-layer times and counts of one traced op; CPU and wall s by layer.

    A layer's time is the summed duration of its outermost spans (calls into
    the layer not made from inside the same layer). Stage self time is a
    `PipelineRunner.stage_*` span minus its child spans in other layers;
    stage wait time is a stage span's wall time minus its thread CPU time.
    """
    metric_of = {f"{layer}.{fn}": metric for layer, fns in TRACED.items()
                 for fn, metric in fns.items()}
    layer_of = {s[0]: s[2].split(".")[0] for s in spans}
    nested = {}
    for sid, parent, name, t0, t1, *_ in spans:
        if not name.startswith("pipeline."):
            nested[parent] = nested.get(parent, 0.0) + t1 - t0
    out = dict.fromkeys(LAYER_TIME_METRICS, 0.0)
    counts = {}
    layer_cpu = {}
    layer_wall = {}
    self_s = wait_s = 0.0
    for sid, parent, name, t0, t1, cpu, _pid, _tid, c in spans:
        for key, value in (c or {}).items():
            counts[key] = counts.get(key, 0) + value
        layer = layer_of[sid]
        if name in metric_of and layer_of.get(parent) != layer:
            out[metric_of[name]] += t1 - t0
            layer_cpu[layer] = layer_cpu.get(layer, 0.0) + cpu
            layer_wall[layer] = layer_wall.get(layer, 0.0) + t1 - t0
        if name.startswith("pipeline.stage_"):
            self_s += (t1 - t0) - nested.get(sid, 0.0)
            wait_s += (t1 - t0) - cpu
    for name in ("ingest.sentences", "galechurch.dp_cells", "galechurch.collapsed_files",
                 "model1.link_evals", "model1.ttable_entries", "phrases.instances",
                 "phrases.entries", "significance.entries", "significance.distinct_tables",
                 "lexicon.candidates", "pipeline.bytes_hashed"):
        out[name] = counts.get(name, 0)
    out["significance.kept_ratio"] = _ratio(counts.get("significance.kept", 0),
                                            counts.get("significance.entries", 0))
    out["lexicon.kept_ratio"] = _ratio(counts.get("lexicon.filter_kept", 0),
                                       counts.get("lexicon.filter_in", 0))
    out["pipeline.stage_self_s"] = self_s
    out["pipeline.wait_s"] = wait_s
    return out, layer_cpu, layer_wall


def _ratio(num, den):
    return num / den if den else 0.0


# ---- runs -------------------------------------------------------------------

def tail(values):
    """(value, percentile, sample count): the highest percentile with at least
    ten samples above it, or a quarter of the samples (at least one) when
    there are fewer than 40; a single sample is its own tail. A cold run has
    few ops, and its slowest one would follow the machine's worst moment."""
    ordered = sorted(values)
    n = len(ordered)
    above = min(10, max(1, n // 4), n - 1)
    return ordered[n - 1 - above], 100.0 * (n - above) / n, n


def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "dmlex"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment():
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform(),
            "source_sha256": source_digest(), "git_sha": None, "git_dirty": None}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        def git(*args):
            return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        info["git_sha"] = git("rev-parse", "HEAD") or None
        info["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return info


class Run:
    """One benchmark invocation: a corpus, its configs and the ops run on it."""

    def __init__(self, workload, seed, seconds, trace):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = os.path.join(WORK, "work", workload.name)
        self.log = os.path.join(self.dir, "cli.log")
        self.ops = []
        self.setup_errors = []
        self.import_times = []
        self.prime_times = []

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        reserved = set()
        with open(SEED_MARKERS, encoding="utf-8") as fh:
            for line in fh:
                if not line.lstrip().startswith("#"):
                    reserved.update(line.lower().split())
        self.planted = write_corpus(os.path.join(self.dir, "corpus"), self.w.corpus, self.seed,
                                    reserved)
        self.configs = {}
        for setting, extra in RETUNE_SETTINGS.items() if self.w.warm else [("cold", {})]:
            path = os.path.join(self.dir, f"{setting}.cfg")
            lines = ["corpus_root = corpus", "english = en",
                     f"foreign = {','.join(self.w.corpus.languages)}",
                     f"markers = {SEED_MARKERS}", f"output = {os.path.join(self.dir, 'out')}"]
            lines += [f"{k} = {v}" for k, v in extra.items()]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            self.configs[setting] = path

    def cli_argv(self, setting, out_dir, spans=None):
        prefix = [sys.executable, TRACE_CLI, spans] if spans else [sys.executable, "-m", "dmlex.cli"]
        return prefix + ["--config", self.configs[setting], "--output", out_dir,
                         "--jobs", str(self.w.jobs), self.w.command]

    def op(self, setting, out_dir, cold, traced=False):
        spans_path = os.path.join(self.dir, "spans.json") if traced else None
        load_before = list(os.getloadavg())
        wall, code, rss, cpu = spawn(self.cli_argv(setting, out_dir, spans_path), self.log)
        op = Op(setting, traced, wall, rss, cpu, load_before, list(os.getloadavg()), code)
        check_op(op, self.w, out_dir, self.planted, cold)
        if traced and not os.path.isfile(spans_path):
            op.errors.append("the traced CLI wrote no spans")
        elif traced:
            with open(spans_path, encoding="utf-8") as fh:
                op.layers, op.layer_cpu, op.layer_wall = layer_metrics(json.load(fh))
            os.remove(spans_path)
        return op

    def setup_plan(self):
        """The set-up steps of the run, in order. A timed run takes
        SETUP_SPAWNS import+validate spawns and, on a warm workload,
        PRIMING_REPEATS priming runs, the first of them before any op; a
        traced run only primes."""
        if self.trace:
            return ["prime"] if self.w.warm else []
        plan = ["import"] * SETUP_SPAWNS
        if self.w.warm:
            step = SETUP_SPAWNS // PRIMING_REPEATS
            for k in range(PRIMING_REPEATS):
                plan.insert(k * (step + 1), "prime")
        return plan

    def setup_step(self, step):
        if step == "prime":
            self.prime_times.append(self.prime(len(self.prime_times)))
            return
        argv = [sys.executable, "-c", SETUP_SNIPPET, next(iter(self.configs.values())),
                str(self.w.jobs)]
        wall, code, _, _ = spawn(argv, self.log)
        if code != 0:
            self.setup_errors.append(f"import/validate exited {code}")
        self.import_times.append(wall)

    def setup_s(self):
        """Median import+validate spawn, plus the median priming run."""
        return median(self.import_times) + (median(self.prime_times) if self.w.warm else 0.0)

    def prime(self, k):
        """Cold run with setting A into out-prime-k; out-prime-0 serves the
        warm ops."""
        out = os.path.join(self.dir, f"out-prime-{k}")
        shutil.rmtree(out, ignore_errors=True)
        op = self.op("A", out, cold=True)
        self.setup_errors += [f"priming run {k}: {e}" for e in op.errors]
        if k == 0:
            self.prime_digests = op.digests
        elif op.digests != self.prime_digests:
            self.setup_errors.append(f"priming run {k}: outputs differ from priming run 0")
        return op.wall

    def measure(self):
        """Ops for `seconds`, with the set-up steps spread evenly between
        them, so that set-up and ops see the same drift in the machine's
        speed. Time spent on set-up does not count towards `seconds`."""
        out = os.path.join(self.dir, "out-prime-0" if self.w.warm else "out")
        plan = self.setup_plan()
        start = time.perf_counter()
        setup_time = 0.0
        min_ops = 4 if self.trace else 3
        k = 0
        while True:
            done = len(self.import_times) + len(self.prime_times)
            if done < len(plan) and (time.perf_counter() - start - setup_time
                                     >= done * self.seconds / len(plan)):
                t0 = time.perf_counter()
                self.setup_step(plan[done])
                setup_time += time.perf_counter() - t0
                continue
            # warm ops flip the filter setting every time, so markers and
            # lexicon always recompute; priming used A, so start with B
            setting = ("B" if k % 2 == 0 else "A") if self.w.warm else "cold"
            traced = bool(self.trace) and k % 4 in (1, 2)
            if not self.w.warm:
                shutil.rmtree(out, ignore_errors=True)
            self.ops.append(self.op(setting, out, cold=not self.w.warm, traced=traced))
            k += 1
            walls = [o.wall for o in self.ops]
            spent = time.perf_counter() - start - setup_time
            if len(self.ops) >= min_ops and spent + median(walls) > self.seconds:
                break
        for step in plan[len(self.import_times) + len(self.prime_times):]:
            self.setup_step(step)

    def check_repeats(self):
        """Outputs and counts must repeat exactly across the ops of this run
        and across earlier runs with the same seed and source tree."""
        by_setting = {}
        for op in self.ops:
            if not op.ok:
                continue
            record = by_setting.setdefault(op.setting, {"digests": op.digests, "counts": {}})
            if op.digests != record["digests"]:
                op.errors.append("stage outputs differ from the first op with this setting")
            counts = {"pipeline.cache_hit_ratio": cache_hit_ratio(op.report)}
            if op.traced:
                counts.update({k: op.layers[k] for k in EXACT_COUNTS if k in op.layers})
            for key, value in counts.items():
                if record["counts"].setdefault(key, value) != value:
                    raise BenchmarkError(f"{key} = {value} differs from {record['counts'][key]}"
                                         f" earlier in this run ({op.setting})")
        if self.w.warm:
            for setting, record in by_setting.items():
                stable = {p: d for p, d in record["digests"].items()
                          if not p.endswith("candidates.tsv") and not p.startswith("lexicon.")}
                primed = {p: d for p, d in self.prime_digests.items() if p in stable}
                if stable != primed:
                    raise BenchmarkError(f"warm op ({setting}) changed cached stage outputs")
            if len(by_setting) == 2 and by_setting["A"]["digests"] == by_setting["B"]["digests"]:
                raise BenchmarkError("both retune settings give the same outputs")
        self.repeat_record = by_setting
        self.compare_with_earlier_runs(by_setting)

    def compare_with_earlier_runs(self, by_setting):
        """Runs match when the seed, the program's sources and the benchmark's
        own code (workloads, generated configs, corpus generator) all match."""
        h = hashlib.sha256(source_digest().encode())
        for name in ("run.py", "corpus.py"):
            with open(os.path.join(HERE, name), "rb") as fh:
                h.update(fh.read())
        path = os.path.join(WORK, "state",
                            f"{self.w.name}-seed{self.seed}-{h.hexdigest()[:16]}.json")
        state = {}
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                state = json.load(fh)
        for setting, record in by_setting.items():
            old = state.setdefault(setting, {"digests": record["digests"], "counts": {}})
            if old["digests"] != record["digests"]:
                raise BenchmarkError(f"stage outputs ({setting}) differ from an earlier run "
                                     f"with seed {self.seed} and the same source tree")
            for key, value in record["counts"].items():
                if old["counts"].setdefault(key, value) != value:
                    raise BenchmarkError(f"{key} = {value} differs from {old['counts'][key]} "
                                         f"in an earlier run with seed {self.seed}")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(state, fh, indent=1, sort_keys=True)


def cache_hit_ratio(report):
    stages = report.get("stages", [])
    return sum(1 for r in stages if r["cache_hit"]) / len(stages) if stages else 0.0


def e2e_metrics(run):
    ops = run.ops
    walls = [o.wall for o in ops]
    wall = median(walls)
    tail_value, pct, n = tail(walls)
    good = [o for o in ops if o.ok]
    pairs = aligned_pairs(good[0].report) if good else 0
    values = {"wall_s": wall, "tail_s": tail_value,
              "pairs_per_s": pairs / wall if wall else 0.0,
              "peak_rss_mb": median([o.peak_rss_mb for o in ops]), "setup_s": run.setup_s()}
    notes = {"wall_s": f"median of {len(ops)} ops",
             "tail_s": f"p{pct:.1f} of {n} ops",
             "pairs_per_s": f"{pairs} aligned sentence pairs over all languages / wall_s",
             "peak_rss_mb": "median over ops of the peak summed RSS of the CLI process tree",
             "setup_s": (f"median of {len(run.import_times)} import+validate spawns"
                         + (f" + median of {len(run.prime_times)} priming runs" if run.w.warm
                            else "") + ", spread over the run")}
    return values, notes


def layer_summary(run):
    traced = [o for o in run.ops if o.traced and o.ok]
    plain = [o for o in run.ops if not o.traced and o.ok]
    if not traced or not plain:
        raise BenchmarkError("the trace run needs at least one good traced and one plain op")
    values = {m: median([o.layers[m] for o in traced]) for m in traced[0].layers}
    wall = median([o.wall for o in plain])
    cpu = median([o.cpu_s for o in plain])
    values["pipeline.cache_hit_ratio"] = median([cache_hit_ratio(o.report) for o in traced])
    values["pipeline.artifact_mb"] = median([o.artifact_mb for o in plain])
    values["pipeline.cpu_s"] = cpu
    values["pipeline.parallel_eff"] = cpu / (wall * min(run.w.jobs, os.cpu_count()))
    values["trace.overhead_s"] = median([o.wall for o in traced]) - wall
    shares = {}
    for layer in sorted({layer for o in traced for layer in o.layer_cpu}):
        shares[layer] = (
            median([o.layer_cpu.get(layer, 0.0) / o.cpu_s for o in traced]),
            median([o.layer_wall.get(layer, 0.0) / o.wall for o in traced]))
    return values, shares, len(traced), len(plain)


def write_record(run, fields):
    """Keep everything about the run in .perfbench/results/ for later comparison."""
    record = {"workload": run.w.name, "seed": run.seed, "seconds": run.seconds,
              "trace": run.trace, "environment": environment(), **fields,
              "load_end": list(os.getloadavg()), "setup_errors": run.setup_errors,
              "stage_outputs": {s: r["digests"]
                                for s, r in getattr(run, "repeat_record", {}).items()},
              "ops": [{"setting": o.setting, "traced": o.traced, "wall_s": o.wall,
                       "peak_rss_mb": o.peak_rss_mb, "cpu_s": o.cpu_s,
                       "load_before": o.load_before, "load_after": o.load_after,
                       "exit_code": o.exit_code, "errors": o.errors,
                       "recall": list(o.recall), "layers": o.layers or None}
                      for o in run.ops]}
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(results_dir, f"{run.w.name}-seed{run.seed}-trace{run.trace}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def run_workload(name, seed, seconds, trace):
    """Returns (result line dict, human-readable lines, extra fields)."""
    run = Run(WORKLOADS[name], seed, seconds, trace)
    load_start = list(os.getloadavg())
    run.prepare()
    run.measure()
    try:
        run.check_repeats()
    except BenchmarkError as exc:  # keep run.dir (corpus, outputs, CLI log) to inspect
        write_record(run, {"benchmark_error": str(exc), "load_start": load_start})
        raise
    failed = sum(1 for o in run.ops if not o.ok)
    correct = failed == 0 and not run.setup_errors
    lines = [f"workload {name}  seed {seed}  trace {trace}: {len(run.ops)} ops, {failed} failed"]
    lines += [f"  setup error: {e}" for e in run.setup_errors]
    lines += [f"  op {k} failed: {'; '.join(o.errors)}" for k, o in enumerate(run.ops) if o.errors]
    extra = {"fail_ratio": failed / len(run.ops)}
    if trace:
        values, shares, n_traced, n_plain = layer_summary(run)
        units = LAYER_UNITS
        lines.append(f"  per-layer metrics: medians of {n_traced} traced ops; cpu_s, "
                     f"parallel_eff and overhead against {n_plain} plain ops")
        lines += [f"  {m:32s} {values[m]:.6g} {units[m]}" for m in sorted(units)]
        lines.append("  layer share of a traced op, by CPU (process tree) / by wall (span wall"
                     " over op wall; threads can overlap):")
        lines += [f"    {k:14s} {c:6.1%} {w:6.1%}" for k, (c, w) in shares.items()]
        extra["layer_cpu_share"] = shares
    else:
        values, notes = e2e_metrics(run)
        units = E2E_UNITS
        lines += [f"  {m:12s} {values[m]:.6g} {units[m]}  ({notes[m]})" for m in units]
        extra["notes"] = notes
    recalls = [o.recall for o in run.ops if o.recall[1]]
    lines.append(f"  fail_ratio   {failed}/{len(run.ops)} = {extra['fail_ratio']:.3g}")
    if recalls:
        hits, planted = min(recalls)
        extra["marker_recall"] = hits / planted
        lines.append(f"  marker_recall {hits}/{planted} = {hits / planted:.3g} (lowest over ops)")
    for setting, record in run.repeat_record.items():
        lines.append(f"  stage outputs ({setting}) sha256 {combined_digest(record['digests'])}")
    result = {"correct": correct, "attempted": len(run.ops), "failed": failed,
              "metrics": {m: {"value": values[m], "unit": units[m]} for m in units}}
    write_record(run, {"load_start": load_start, "result": result, "extra": extra})
    shutil.rmtree(run.dir, ignore_errors=True)
    return result, lines, extra


def main(argv=None):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so spawn() stops its child
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dmlex", "cli.py")):
        print(f"error: no dmlex sources under {SRC}; run from a dmlex checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    table = []
    for name in names:
        try:
            result, lines, extra = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        table.append((name, result, extra))
    if args.workload == "all":
        print(f"\n{'workload':22s} {'metric':32s} value")
        for name, result, extra in table:
            for metric, m in result["metrics"].items():
                print(f"{name:22s} {metric:32s} {m['value']:.6g} {m['unit']}")
            print(f"{name:22s} {'fail_ratio':32s} {extra['fail_ratio']:.3g}")
            if "marker_recall" in extra:
                print(f"{name:22s} {'marker_recall':32s} {extra['marker_recall']:.3g}")
        return 0 if all(r["correct"] for _, r, _ in table) else 1
    print(json.dumps(table[0][1]))
    return 0 if table[0][1]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
