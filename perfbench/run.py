#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of gcs-cli.

Run from the root of a gcs checkout:

    python3 perfbench/run.py --workload run-grid --seed 42 --seconds 38 --trace 0

The harness builds gcs-cli and its own two executables (the reference
kernel and the traced mirror) with dune, then:

  --trace 0  runs the workload's gcs-cli commands back to back for about
             --seconds seconds, each full pass followed by set-up passes
             (the same commands at --horizon 0.001), with the reference
             kernel timed between passes. It checks every output and prints
             the end-to-end metrics.
  --trace 1  runs the commands once more, untraced, then replays them
             in-process through perfbench/mirror.exe with a span around
             every call into a layer. It checks that the mirror's outputs
             equal the CLI's and prints the per-layer metrics.

--workload all runs every workload in turn and ends with one table.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads, metrics and measurements.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

CLI = "_build/default/bin/gcs_cli.exe"
MIRROR = "_build/default/perfbench/mirror.exe"
REFKERNEL = "_build/default/perfbench/refkernel.exe"

DEFAULT_SEED = 42
SETUP_HORIZON = "0.001"

# Reference-kernel time that normalised seconds are expressed at: a
# normalised time is what the invocation would have taken on a host where
# the kernel runs in REF_NOMINAL_S seconds (about its median on the 2-vCPU
# Xeon KVM guest the benchmark was defined on).
REF_NOMINAL_S = 0.4
REF_CHECKSUM = "300874254675"

MB = 1024.0 * 1024.0
WORD_BYTES = 8

# ---------------------------------------------------------------------------
# Workloads
#
# Each workload is a closed loop: one client runs one gcs-cli command at a
# time, and the next starts when the previous one has exited.

GRID = "grid:50x50"
GRID_HORIZON = "40"
SWEEP_TOPOLOGIES = "ring:32,grid:8x8,torus:12x12"
SWEEP_SEEDS = "2"
SWEEP_HORIZON = "200"
SWEEP_CELLS = 42  # 3 topologies x 7 registered algorithms x 2 seeds
CHURN_ALGO = "dynamic-gradient"
CHURN_TOPOLOGY = "torus:20x20"
CHURN_HORIZON = "60"
CHURN_PLAN = "flap@20..60:up=15:down=3:all"


class Workload:
    """One benchmark workload: the gcs-cli commands of a pass, how to check
    their outputs, and how the mirror replays them."""

    name = ""
    horizon = ""
    setup_passes = 1  # set-up passes after every full pass
    # How far this workload's passes slow down when the reference kernel
    # does: the slope of log(mean pass time) on log(mean kernel time) over
    # runs made at different host speeds (README, "Elasticity"). A time is
    # normalised with this exponent, so a faster or slower host does not
    # bias it. (full passes, set-up passes)
    elasticity = (1.0, 1.0)

    def commands(self, seed, horizon, work):
        """[(label, argv)] of one pass, run in order."""
        raise NotImplementedError

    def verify(self, seed, procs, work):
        """Check one pass. Returns (outputs, events, errors): the named
        deterministic output bytes, the engine events the pass dispatched
        (None when unknown), and a list of problems."""
        raise NotImplementedError

    def engine_events(self, seed, work):
        """Engine events of one full pass, for workloads whose commands do
        not print them (verify() returns None for those)."""
        return None

    def mirror_events(self, counts):
        """The mirror's engine events that gcs-cli's count (from verify()
        or engine_events()) must equal exactly."""
        return counts["sim.events"]

    def mirror_args(self, seed, work):
        raise NotImplementedError

    def mirror_outputs(self, mirror_dir):
        """The mirror's copy of the outputs verify() returns."""
        raise NotImplementedError


def run_summary(stdout):
    """Parse the summary gcs-cli run prints: node/edge/diameter header and
    the messages/events line."""
    text = stdout.decode("utf-8", "replace")
    head = re.search(r"^nodes (\d+), edges (\d+), diameter (\d+),", text, re.M)
    counts = re.search(r"^messages / events : (\d+) / (\d+)$", text, re.M)
    if not head or not counts:
        return None
    return {
        "nodes": int(head.group(1)),
        "edges": int(head.group(2)),
        "diameter": int(head.group(3)),
        "messages": int(counts.group(1)),
        "events": int(counts.group(2)),
    }


def store_line(stderr):
    """(hits, misses, fresh dispatches) from gcs-cli sweep --store."""
    m = re.search(
        r"^store: (\d+) hits, (\d+) misses \((\d+) fresh dispatches\)$",
        stderr.decode("utf-8", "replace"),
        re.M,
    )
    return tuple(int(g) for g in m.groups()) if m else None


def check_lines(stdout):
    """(events monitored, verdict) from gcs-cli check run."""
    text = stdout.decode("utf-8", "replace")
    checked = re.search(r"^checked \S+ on \S+: (\d+) events monitored$", text, re.M)
    verdict = re.search(r"^verdict: (\S+)", text, re.M)
    if not checked or not verdict:
        return None
    return int(checked.group(1)), verdict.group(1)


def trace_lines(stderr):
    """(lines written, lines schema-checked) from gcs-cli trace."""
    text = stderr.decode("utf-8", "replace")
    wrote = re.search(r"^wrote (\d+) event lines to ", text, re.M)
    schema = re.search(r"^schema: (\d+) lines OK$", text, re.M)
    if not wrote or not schema:
        return None
    return int(wrote.group(1)), int(schema.group(1))


def csv_events(csv_bytes):
    """Sum of the events column of a sweep CSV."""
    lines = csv_bytes.decode("utf-8").splitlines()
    if not lines:
        return None
    col = lines[0].split(",").index("events")
    return sum(int(line.split(",")[col]) for line in lines[1:])


class RunGrid(Workload):
    name = "run-grid"
    horizon = GRID_HORIZON
    elasticity = (1.07, 0.96)

    def commands(self, seed, horizon, work):
        return [("run", [CLI, "run", "-t", GRID, "--horizon", horizon, "--seed", str(seed)])]

    def verify(self, seed, procs, work):
        (p,) = procs
        summary = run_summary(p.out)
        if summary is None:
            return {"stdout": p.out}, None, ["run: no summary in stdout"]
        return {"stdout": p.out}, summary["events"], []

    def mirror_args(self, seed, work):
        return ["run", "--topology", GRID, "--horizon", self.horizon, "--seed", str(seed)]

    def mirror_outputs(self, mirror_dir):
        return {"stdout": read(os.path.join(mirror_dir, "stdout.txt"))}


class SweepStore(Workload):
    name = "sweep-store"
    horizon = SWEEP_HORIZON
    setup_passes = 3
    elasticity = (0.86, 0.81)

    def sweep(self, seed, horizon, store, csv):
        return [CLI, "sweep", "--topologies", SWEEP_TOPOLOGIES, "--seeds",
                SWEEP_SEEDS, "--horizon", horizon, "--seed-base", str(seed),
                "--store", store, "-o", csv]

    def commands(self, seed, horizon, work):
        store = os.path.join(work, "store")
        shutil.rmtree(store, ignore_errors=True)
        return [
            ("cold", self.sweep(seed, horizon, store, os.path.join(work, "cold.csv"))),
            ("warm", self.sweep(seed, horizon, store, os.path.join(work, "warm.csv"))),
        ]

    def verify(self, seed, procs, work):
        cold, warm = procs
        errors = []
        cold_csv = read(os.path.join(work, "cold.csv"))
        warm_csv = read(os.path.join(work, "warm.csv"))
        cold_stats, warm_stats = store_line(cold.err), store_line(warm.err)
        if cold_stats is None or cold_stats[:2] != (0, SWEEP_CELLS) or cold_stats[2] <= 0:
            errors.append("cold pass: expected 0 hits, %d misses, got %r"
                          % (SWEEP_CELLS, cold_stats))
        if warm_stats != (SWEEP_CELLS, 0, 0):
            errors.append("warm pass: expected %d hits, 0 misses, 0 fresh "
                          "dispatches, got %r" % (SWEEP_CELLS, warm_stats))
        if warm_csv != cold_csv:
            errors.append("warm CSV differs from cold CSV")
        events = csv_events(cold_csv) if cold_csv else None
        store = b"".join(line + b"\n" for p in (cold, warm)
                         for line in p.err.splitlines() if line.startswith(b"store: "))
        return {"csv": cold_csv, "store": store}, events, errors

    def mirror_args(self, seed, work):
        store = os.path.join(work, "mirror_store")
        shutil.rmtree(store, ignore_errors=True)
        return ["sweep", "--topologies", SWEEP_TOPOLOGIES, "--seeds",
                SWEEP_SEEDS, "--horizon", self.horizon, "--seed", str(seed),
                "--store", store]

    def mirror_outputs(self, mirror_dir):
        cold = read(os.path.join(mirror_dir, "cold.csv"))
        if read(os.path.join(mirror_dir, "warm.csv")) != cold:
            cold = b"mirror: warm CSV differs from cold CSV"
        return {"csv": cold, "store": read(os.path.join(mirror_dir, "store.txt"))}


class ChurnObserved(Workload):
    name = "churn-observed"
    horizon = CHURN_HORIZON
    setup_passes = 2
    elasticity = (0.80, 0.71)

    def instance(self, seed, horizon):
        return ["-a", CHURN_ALGO, "-t", CHURN_TOPOLOGY, "--horizon", horizon,
                "--churn", CHURN_PLAN, "--seed", str(seed)]

    def commands(self, seed, horizon, work):
        events = os.path.join(work, "events.jsonl")
        return [
            ("check", [CLI, "check", "run"] + self.instance(seed, horizon) + ["--skew"]),
            ("trace", [CLI, "trace"] + self.instance(seed, horizon)
             + ["--events", events, "--check-schema"]),
        ]

    def verify(self, seed, procs, work):
        check, trace = procs
        errors = []
        events_bytes = read(os.path.join(work, "events.jsonl"))
        checked = check_lines(check.out)
        if checked is None or checked[1] != "CONFORMS":
            errors.append("check: verdict is not CONFORMS: %r" % (checked,))
        traced = trace_lines(trace.err)
        lines = events_bytes.count(b"\n")
        if traced is None or traced != (lines, lines):
            errors.append("trace: %d lines in the log, stderr says %r" % (lines, traced))
        return {"check": check.out, "events": events_bytes}, None, errors

    def engine_events(self, seed, work):
        """Engine events of one pass, counted as twice what gcs-cli run
        prints for the same instance. The trace command simulates the
        compiled churn plan as run does, so its count is exact. check run
        simulates the plan as its store key canonicalises it, which can
        order controls that share a time differently and dispatch a few
        events more or fewer (one more at seed 777), so the traced run
        gates the trace command's count alone."""
        p = spawn([CLI, "run"] + self.instance(seed, self.horizon), work)
        summary = run_summary(p.out) if p.rc == 0 else None
        return None if summary is None else 2 * summary["events"]

    def mirror_events(self, counts):
        return 2 * counts["cmd.trace.events"]

    def mirror_args(self, seed, work):
        return ["churn", "--algo", CHURN_ALGO, "--topology", CHURN_TOPOLOGY,
                "--horizon", self.horizon, "--churn", CHURN_PLAN,
                "--seed", str(seed)]

    def mirror_outputs(self, mirror_dir):
        return {"check": read(os.path.join(mirror_dir, "check.txt")),
                "events": read(os.path.join(mirror_dir, "events.jsonl"))}


WORKLOADS = {w.name: w for w in (RunGrid(), SweepStore(), ChurnObserved())}


# ---------------------------------------------------------------------------
# Processes, GC statistics, host probes

class Proc:
    def __init__(self, argv, rc, wall, cpu, maxrss_kb, out, err):
        self.argv, self.rc, self.wall, self.cpu = argv, rc, wall, cpu
        self.maxrss_kb, self.out, self.err = maxrss_kb, out, err
        self.gc = parse_gc(err)


def read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return b""


def spawn(argv, work, gc=False):
    """Run one process to completion, timed from spawn to exit, with its
    own rusage (wait4) so peak RSS and CPU time are per process."""
    env = dict(os.environ)
    env.pop("OCAMLRUNPARAM", None)
    if gc:
        env["OCAMLRUNPARAM"] = "v=0x400"  # GC statistics on stderr at exit
    out_path, err_path = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(argv, p.returncode, wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss, read(out_path), read(err_path))


GC_FIELDS = ("allocated_words", "minor_words", "promoted_words", "major_words",
             "minor_collections", "major_collections", "forced_major_collections",
             "heap_words", "top_heap_words", "mean_space_overhead")


def parse_gc(stderr):
    """The OCaml runtime's exit statistics (OCAMLRUNPARAM=v=0x400), one
    'name: value' line each, from a process's stderr."""
    stats = {}
    for line in stderr.decode("utf-8", "replace").splitlines():
        m = re.fullmatch(r"([a-z_]+): (-?[0-9]+(?:\.[0-9]+)?)", line.strip())
        if m and m.group(1) in GC_FIELDS:
            stats[m.group(1)] = float(m.group(2))
    return stats


def ref_kernel(work):
    """Run the reference kernel once; its own timing of its work, in s."""
    p = spawn([REFKERNEL], work)
    fields = p.out.decode().split()
    if p.rc != 0 or len(fields) != 4 or fields[3] != REF_CHECKSUM:
        raise SystemExit("perfbench: reference kernel failed: %r" % (p.out,))
    return float(fields[1])


def cpu_ticks():
    """(steal, total) jiffies over all CPUs from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return (0, 0)
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user/nice.
    return (fields[7] if len(fields) > 7 else 0, sum(fields[:8]))


def steal_pct(before, after):
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                               capture_output=True, text=True).stdout.strip()
    except OSError:
        ocaml = "unknown"
    return {"nproc": os.cpu_count(), "cpu": model, "ocaml": ocaml or "unknown"}


# ---------------------------------------------------------------------------
# Statistics

def median(xs):
    return statistics.median(xs)


def normalise(raw_s, ref_s, elasticity=1.0):
    """A raw time re-expressed at the nominal host speed: raw * (nominal /
    measured reference-kernel time) ** elasticity."""
    return raw_s * (REF_NOMINAL_S / ref_s) ** elasticity


def bracket_ref(before, after):
    """The host speed an invocation saw: the mean of the reference-kernel
    times right before and right after it."""
    return (before + after) / 2.0


def normalised_total(passes, elasticity):
    """wall_s or setup_s from a run's passes [(raw s, bracketing ref s)]:
    the mean pass time normalised by the mean kernel time, so fast jitter
    averages out in both means and slow drift cancels between them. At
    elasticity 1 this is the ratio of the two sums."""
    n = len(passes)
    return normalise(sum(raw for raw, _ in passes) / n, sum(ref for _, ref in passes) / n,
                     elasticity)


def tail_percentile(xs, beyond=10):
    """The highest percentile with at least `beyond` samples above it:
    (percent, value), or None with too few samples."""
    if len(xs) < beyond + 1:
        return None
    s = sorted(xs)
    i = len(s) - beyond - 1
    return (100.0 * (i + 1) / len(s), s[i])


def digest(outputs):
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(b"%s\0%d\0" % (name.encode(), len(outputs[name])))
        h.update(outputs[name])
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Spans from the mirror

def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def span_totals(spans):
    """Inclusive seconds per span name."""
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
    return totals


def self_times(spans):
    """Seconds per span name spent in the span itself: its duration minus
    the part of it its child spans cover. Children of one span never
    overlap (the mirror is single-threaded), so the covered part is the sum
    of their durations, clipped to the parent's interval."""
    by_id = {s["id"]: s for s in spans}
    covered = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        lo = max(s["start"], parent["start"])
        hi = min(s["end"], parent["end"])
        covered[parent["id"]] = covered.get(parent["id"], 0.0) + max(0.0, hi - lo)
    out = {}
    for s in spans:
        own = (s["end"] - s["start"]) - covered.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def twin_cost(spans, name):
    """What a sink adds to a run: the fastest of the mirror's "sink.<name>"
    runs minus the fastest of its "bare.<name>" runs of the same config
    (0 when the workload has no such twins)."""
    def fastest(label):
        return min((s["end"] - s["start"] for s in spans if s["name"] == label), default=None)
    sink, bare = fastest("sink." + name), fastest("bare." + name)
    return 0.0 if sink is None or bare is None else sink - bare


# ---------------------------------------------------------------------------
# Metric declarations

def declared_metrics():
    """{name: unit} for the end_to_end and per_layer lists of
    BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return e2e, layer


def end_to_end_metrics(wall_s, setup_s, events, peak_rss_kb):
    return {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "events_per_s": (events / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def layer_metrics(spans, counts, cli, host, events_bytes, gc_stats):
    """Per-layer metrics of one traced run.

    spans, counts: the mirror's spans and engine/store/monitor counters.
    cli: {"wall": s, "cpu": s} of the untraced CLI pass.
    host: {"ref_s", "steal_pct"} around that pass.
    events_bytes: size of the exported event log (0 when none).
    gc_stats: summed exit statistics of the untraced pass.
    Every value is a float; a layer a workload does not exercise reads 0.
    """
    tot = span_totals(spans)
    t = lambda name: tot.get(name, 0.0)
    c = lambda name: float(counts.get(name, 0.0))
    cells = [s["end"] - s["start"] for s in spans if s["name"] == "core.cell"]
    tail = tail_percentile(cells)
    trace_wall = sum(s["end"] - s["start"] for s in spans
                     if s["parent"] == -1 and s["name"].startswith("cmd."))
    sim_run = t("sim.run")
    m = {
        "graph.build_s": (t("graph.build"), "s"),
        "graph.diameter_s": (t("graph.diameter"), "s"),
        "core.prepare_s": (t("core.prepare"), "s"),
        "core.complete_s": (t("core.complete"), "s"),
        "core.outcome_s": (t("core.outcome"), "s"),
        "core.report_s": (t("core.report"), "s"),
        "core.cells": (float(len(cells)), "count"),
        "core.cell_p50_s": (median(cells) if cells else 0.0, "s"),
        "core.cell_tail_s": (tail[1] if tail else 0.0, "s"),
        "core.cell_tail_pct": (tail[0] if tail else 0.0, "%"),
        "sim.run_s": (sim_run, "s"),
        "sim.events": (c("sim.events"), "count"),
        "sim.events_per_busy_s": (c("sim.events") / sim_run if sim_run > 0 else 0.0, "1/s"),
        "sim.deliver": (c("sim.deliver"), "count"),
        "sim.timer": (c("sim.timer"), "count"),
        "sim.control": (c("sim.control"), "count"),
        "sim.messages": (c("sim.messages"), "count"),
        "sim.queue_high_water": (c("sim.queue_high_water"), "count"),
        "sim.churn_compile_s": (t("sim.churn_compile"), "s"),
        "sim.fault_drops": (c("sim.fault_drops"), "count"),
        "sim.cpu_per_wall": (cli["cpu"] / cli["wall"], "ratio"),
        "obs.entries": (c("obs.entries"), "count"),
        "obs.capture_s": (twin_cost(spans, "trace"), "s"),
        "obs.encode_s": (t("obs.encode"), "s"),
        "obs.validate_s": (t("obs.validate"), "s"),
        "obs.write_s": (t("obs.write"), "s"),
        "obs.bytes": (float(events_bytes), "B"),
        "check.events_checked": (c("check.events_checked"), "count"),
        "check.monitor_s": (twin_cost(spans, "check"), "s"),
        "check.bounds_s": (t("check.bounds"), "s"),
        "store.open_s": (t("store.open"), "s"),
        "store.find_s": (t("store.find"), "s"),
        "store.put_s": (t("store.put"), "s"),
        "store.close_s": (t("store.close"), "s"),
        "store.hits": (c("store.hits"), "count"),
        "store.misses": (c("store.misses"), "count"),
        "store.log_bytes": (c("store.log_bytes"), "B"),
        "gc.allocated_mb": (gc_stats.get("allocated_words", 0.0) * WORD_BYTES / MB, "MB"),
        "gc.promoted_mb": (gc_stats.get("promoted_words", 0.0) * WORD_BYTES / MB, "MB"),
        "gc.minor_collections": (gc_stats.get("minor_collections", 0.0), "count"),
        "gc.major_collections": (gc_stats.get("major_collections", 0.0), "count"),
        "gc.top_heap_mb": (gc_stats.get("top_heap_words", 0.0) * WORD_BYTES / MB, "MB"),
        "host.ref_s": (host["ref_s"], "s"),
        "host.raw_wall_s": (cli["wall"], "s"),
        "host.steal_pct": (host["steal_pct"], "%"),
        "trace.wall_s": (trace_wall, "s"),
        "trace.overhead_s": (trace_wall - cli["wall"], "s"),
    }
    return m


def sum_gc(procs):
    """Exit statistics summed over a pass's processes (top heap: the
    largest)."""
    out = {}
    for p in procs:
        for k, v in p.gc.items():
            out[k] = max(out.get(k, 0.0), v) if k == "top_heap_words" else out.get(k, 0.0) + v
    return out


# ---------------------------------------------------------------------------
# Running

def build():
    missing = [p for p in ("dune-project", "bin", "lib", "BENCHMARK.json")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: %s missing under %s; run from the root of a gcs "
              "checkout" % (", ".join(missing), ROOT), file=sys.stderr)
        sys.exit(2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./bin/gcs_cli.exe", "./perfbench/mirror.exe", "./perfbench/refkernel.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode("utf-8", "replace"))
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)


class Gate:
    """Counts invocations and failures. Any non-zero exit, output mismatch
    or broken determinism is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("FAILED: " + what, file=sys.stderr)


def run_pass(w, seed, horizon, work, gate, seen):
    """One pass of the workload's commands, checked. `seen` keeps the first
    pass's digest and allocated words per horizon: later passes must repeat
    them exactly."""
    commands = w.commands(seed, horizon, work)
    procs = [spawn(argv, work, gc=True) for _, argv in commands]
    outputs, events, errors = w.verify(seed, procs, work)
    for (label, _), p in zip(commands, procs):
        if p.rc != 0:
            errors.append("%s exited %d" % (label, p.rc))
    d = digest(outputs)
    words = [p.gc.get("allocated_words") for p in procs]
    first = seen.setdefault(horizon, (d, words))
    if d != first[0]:
        errors.append("outputs differ between repetitions")
    if words != first[1]:
        errors.append("allocated words differ between repetitions: %r vs %r"
                      % (words, first[1]))
    if None in words:
        errors.append("no GC statistics on stderr")
    for _ in procs:
        gate.record(not errors, "%s %s: %s" % (w.name, horizon, "; ".join(errors)))
    return procs, outputs, events, d


def pinned_digest(name):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(name)


def check_pinned(w, seed, d, gate):
    """At the default seed the full pass's outputs must match the digest
    pinned in perfbench/digests.json."""
    print("digest %s seed %d: %s" % (w.name, seed, d))
    if seed == DEFAULT_SEED:
        pinned = pinned_digest(w.name)
        gate.record(pinned == d, "%s: digest %s, pinned %s" % (w.name, d, pinned))


def measure(w, seed, seconds, work, gate):
    """--trace 0: full and set-up passes, bracketed by the reference kernel,
    for about `seconds` seconds. Returns the printed end-to-end metrics."""
    seen = {}
    steal0 = cpu_ticks()
    start = time.perf_counter()
    deadline = start + seconds
    refs = [ref_kernel(work)]
    full, setup, rss = [], [], []
    while True:
        rep_start = time.perf_counter()
        procs, outputs, pass_events, d = run_pass(w, seed, w.horizon, work, gate, seen)
        refs.append(ref_kernel(work))
        rss.extend(p.maxrss_kb for p in procs)
        if not full:
            first = (outputs, pass_events, d)
        full.append((sum(p.wall for p in procs), bracket_ref(refs[-2], refs[-1])))
        walls = [sum(p.wall for p in run_pass(w, seed, SETUP_HORIZON, work, gate, seen)[0])
                 for _ in range(w.setup_passes)]
        refs.append(ref_kernel(work))
        setup.extend((wall, bracket_ref(refs[-2], refs[-1])) for wall in walls)
        now = time.perf_counter()
        if len(full) >= 3 and now + (now - rep_start) > deadline:
            break
    elapsed = time.perf_counter() - start
    steal = steal_pct(steal0, cpu_ticks())
    outputs, pass_events, d = first
    check_pinned(w, seed, d, gate)
    events = pass_events or w.engine_events(seed, work)
    if not events:
        gate.record(False, "%s: no engine event count" % w.name)
        events = 0

    raw_wall = median([r for r, _ in full])
    raw_setup = median([r for r, _ in setup])
    norm_wall = normalised_total(full, w.elasticity[0])
    norm_setup = normalised_total(setup, w.elasticity[1])
    metrics = end_to_end_metrics(norm_wall, norm_setup, events, max(rss))
    print("passes " + json.dumps({"full": full, "setup": setup, "refs": refs}))
    print("perfbench: %s seed %d: %d full + %d set-up passes in %.1f s"
          % (w.name, seed, len(full), len(setup), elapsed))
    print("  wall_s   raw %.4f s, normalised %.4f s" % (raw_wall, norm_wall))
    print("  setup_s  raw %.4f s, normalised %.4f s" % (raw_setup, norm_setup))
    host = {"ref_s": median(refs), "raw_wall_s": raw_wall, "raw_setup_s": raw_setup,
            "steal_pct": steal}
    host.update(fingerprint())
    print("host " + json.dumps(host, sort_keys=True))
    return metrics


def traced(w, seed, work, gate):
    """--trace 1: one untraced pass of the CLI, then the mirror."""
    steal0 = cpu_ticks()
    ref0 = ref_kernel(work)
    procs, outputs, pass_events, d = run_pass(w, seed, w.horizon, work, gate, {})
    ref1 = ref_kernel(work)
    steal = steal_pct(steal0, cpu_ticks())
    check_pinned(w, seed, d, gate)
    events_bytes = len(outputs.get("events", b""))

    mirror_dir = os.path.join(work, "mirror")
    shutil.rmtree(mirror_dir, ignore_errors=True)
    os.makedirs(mirror_dir)
    mp = spawn([MIRROR] + w.mirror_args(seed, work) + ["--out", mirror_dir], work)
    gate.record(mp.rc == 0, "mirror exited %d: %s" % (mp.rc, mp.err[-500:]))
    if mp.rc != 0:
        return None
    same = w.mirror_outputs(mirror_dir) == outputs
    gate.record(same, "%s: mirror outputs differ from the CLI's" % w.name)
    spans = load_spans(os.path.join(mirror_dir, "spans.jsonl"))
    with open(os.path.join(mirror_dir, "counts.json")) as f:
        counts = json.load(f)
    expected = pass_events or w.engine_events(seed, work)
    gate.record(expected == w.mirror_events(counts),
                "%s: gcs-cli counts %r engine events, the mirror %r"
                % (w.name, expected, w.mirror_events(counts)))

    host = {"ref_s": bracket_ref(ref0, ref1), "steal_pct": steal}
    cli = {"wall": sum(p.wall for p in procs), "cpu": sum(p.cpu for p in procs)}
    metrics = layer_metrics(spans, counts, cli, host, events_bytes, sum_gc(procs))
    print("perfbench: %s seed %d traced; tracing overhead %.4f s (mirror %.4f s, "
          "CLI %.4f s)" % (w.name, seed, metrics["trace.overhead_s"][0],
                           metrics["trace.wall_s"][0], cli["wall"]))
    print("  self time per span (s):")
    for name, v in sorted(self_times(spans).items(), key=lambda kv: -kv[1]):
        print("    %-22s %.4f" % (name, v))
    info = dict(host, raw_wall_s=cli["wall"])
    info.update(fingerprint())
    print("host " + json.dumps(info, sort_keys=True))
    return metrics


def run_workload(name, seed, seconds, trace):
    """Run one workload, traced or not. Returns its Gate and its metrics,
    which must be exactly the ones BENCHMARK.json declares for the mode."""
    e2e_declared, layer_declared = declared_metrics()
    declared = layer_declared if trace else e2e_declared
    w = WORKLOADS[name]
    work = os.path.join(WORK, w.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    gate = Gate()
    if trace:
        metrics = traced(w, seed, work, gate)
    else:
        metrics = measure(w, seed, seconds, work, gate)
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    if metrics is None:
        metrics = {name: (0.0, unit) for name, unit in declared.items()}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        raise SystemExit("perfbench: emitted metrics %r do not match BENCHMARK.json %r"
                         % (emitted, declared))
    for name, (value, unit) in metrics.items():
        print("  %-24s %.6g %s" % (name, value, unit))
    return gate, metrics


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    build()
    if args.workload != "all":
        gate, metrics = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(result_line(gate.attempted, gate.failed, metrics))
        return
    # Every workload in turn, then one table of all their metrics. The
    # last line has the usual keys, with each metric named
    # <workload>.<metric>.
    rows = {}
    attempted = failed = 0
    for name in WORKLOADS:
        print("== %s" % name)
        gate, metrics = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += gate.attempted
        failed += gate.failed
        rows[name] = (gate, metrics)
    print("%-16s %-24s %14s  %s" % ("workload", "metric", "value", "unit"))
    combined = {}
    for name, (gate, metrics) in rows.items():
        for metric, (value, unit) in metrics.items():
            print("%-16s %-24s %14.6g  %s" % (name, metric, value, unit))
            combined[name + "." + metric] = (value, unit)
        print("%-16s %-24s %14.6g  %s" % (name, "fail_ratio",
                                          gate.failed / gate.attempted, "1"))
    print(result_line(attempted, failed, combined))


if __name__ == "__main__":
    main()
