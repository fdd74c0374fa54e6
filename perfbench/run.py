#!/usr/bin/env python3
"""End-to-end benchmark of the hsbp CLI, with a traced layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload detect --seed 1 --seconds 30 --trace 0

The script builds the program from source (perfbench/CMakeLists.txt, into
$CARGO_TARGET_DIR or .bench_build), makes every input from --seed, runs
the workload for --seconds, checks every output, and prints one JSON
object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
with the plain CLI. --trace 1 reports the per-layer metrics, measured
with hsbp_traced: the same CLI relinked with spans around its library
calls (layer_trace.cpp). In a traced run every input is run by both
binaries, in alternating order; their outputs must be identical, and the
ratio of their times is the tracing overhead. Layer times are self times
per op, so layers plus `unattributed_ms` add up to `wall_ms`.

Workloads. Each op gets a fresh input drawn from the seed, because the
chain's path through the golden-section search makes one input's time
vary by tens of percent; an average over many inputs is steady.

  detect   one `hsbp detect --algorithm hsbp --runs 1` per op (H-SBP,
           the paper's hybrid: serial hub sweep, then the asynchronous
           pass) on a heavy-tailed degree-corrected graph
  fit_ooc  one `hsbp fit` per op on a binary CSR file (mapped), with a
           memory budget below the graph's CSR size so the out-of-core
           driver refits two pieces
  serve    one streaming update per op against a running `hsbp serve`
           daemon refitting with A-SBP (no serial sweep): INGEST a batch
           of edges that brings new vertices, wait for the refit to
           publish the next epoch, read the new vertices' communities

Set-up (median of three, reported as setup_s) is what a user pays before
the first op: writing the first input, `hsbp convert` for fit_ooc, the
daemon's start-up fit for serve, and one warm-up op for detect. The
three set-ups must agree exactly (a determinism check).

Everything runs single-threaded (OMP_NUM_THREADS=1, --threads 1): the
chains are then deterministic, and timings do not depend on how many
cores the host lends the run.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 3
OP_TIMEOUT_S = 60.0
THREADS_ENV = {"OMP_NUM_THREADS": "1"}

# Inputs per workload: gen_graph parameters and the NMI an output must
# reach against the planted communities to count as correct.
DETECT = dict(vertices=1000, communities=16, edges=8000, p_in=0.55,
              alpha=1.8)
FIT_OOC = dict(vertices=5000, communities=16, edges=125000, p_in=0.5,
               alpha=2.5)
FIT_OOC_BUDGET_MB = 1
FIT_OOC_SKELETON = 0.2
SERVE = dict(vertices=1200, communities=16, p_in=0.55, alpha=0.0)
SERVE_ALGORITHM = "asbp"
SERVE_BASE_VERTICES = 1000
SERVE_BATCHES = 8  # ops per daemon lifetime
SERVE_OUT_DEGREE = 8
NMI_FLOOR = 0.6

LAYERS = ["graph", "search", "build", "merge", "pass", "propose",
          "delta_mdl", "hastings", "apply", "rebuild", "sample", "ooc",
          "warm_start", "report"]


class BenchError(Exception):
    """A failure that makes the whole run meaningless (build, set-up)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def instance_seed(workload, seed, index):
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


# ---------------------------------------------------------------- build

def check_checkout(root):
    needed = ["CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
              os.path.join("tools", "CMakeLists.txt")]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        raise BenchError("not the root of an hsbp checkout (missing "
                         + ", ".join(missing) + ")")


def build(root):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(root, build_root)
    cmake_dir = os.path.join(build_root, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", cmake_dir, "-j", jobs, "--target",
              "hsbp_cli", "hsbp_traced", "gen_graph", "spawn"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(step))
    return build_root, os.path.join(cmake_dir, "bin")


# ------------------------------------------------------------ processes

def child_env(trace_path=None):
    env = dict(os.environ, **THREADS_ENV)
    env.pop("HSBP_LAYER_TRACE", None)
    if trace_path:
        env["HSBP_LAYER_TRACE"] = trace_path
    return env


def run_program(bins, argv, cwd, trace_path=None, stdout_path=None):
    """Runs one program to completion through bin/spawn. Returns (wall_s,
    exit code, peak RSS in KiB, stderr text); past OP_TIMEOUT_S the
    launcher and the program are killed."""
    err_path = os.path.join(cwd, "stderr.txt")
    report = os.path.join(cwd, "spawn.txt")
    if os.path.exists(report):
        os.unlink(report)
    with open(err_path, "w") as err, \
            open(stdout_path or os.devnull, "w") as out:
        proc = subprocess.Popen([os.path.join(bins, "spawn"), report] + argv,
                                cwd=cwd, env=child_env(trace_path),
                                stdout=out, stderr=err, start_new_session=True)
        killer = threading.Timer(OP_TIMEOUT_S, kill_group, (proc.pid,))
        killer.start()
        try:
            status = proc.wait()
        finally:
            killer.cancel()
    with open(err_path) as err:
        text = err.read()
    try:
        with open(report) as f:
            wall_ns, rss_kb = (int(x) for x in f.read().split())
    except (OSError, ValueError):
        return 0.0, status or 70, 0, text + "\n(no report from spawn)"
    return wall_ns / 1e9, status, rss_kb, text


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -------------------------------------------------------------- scoring

def trimmed_mean(values, share=0.1):
    """Mean of the values left after dropping `share` of them at each end.

    Op times spread by input, and a run's median rests on the few inputs
    that land in the middle; the mean uses them all and measured steadier
    from run to run. Trimming keeps an op stalled by the host from
    dragging it."""
    values = sorted(values)
    cut = int(len(values) * share)
    return statistics.mean(values[cut:len(values) - cut])


def nmi(truth, found):
    """Normalized mutual information, arithmetic-mean normalization."""
    n = len(truth)
    joint = Counter(zip(truth, found))
    a = Counter(truth)
    b = Counter(found)

    def entropy(counts):
        return -sum(c / n * math.log(c / n) for c in counts.values())

    mutual = sum(c / n * math.log(c * n / (a[x] * b[y]))
                 for (x, y), c in joint.items())
    denominator = entropy(a) + entropy(b)
    return 1.0 if denominator == 0 else 2.0 * mutual / denominator


def read_assignment(path, vertices):
    """Reads a `vertex<TAB>community` file; None if it is not a complete,
    valid partition of `vertices` vertices."""
    labels = [-1] * vertices
    try:
        with open(path) as f:
            for line in f:
                if line.startswith("#") or not line.strip():
                    continue
                v, c = (int(x) for x in line.split())
                if not 0 <= v < vertices or labels[v] != -1 or c < 0:
                    return None
                labels[v] = c
    except (OSError, ValueError):
        return None
    return None if -1 in labels else labels


def read_trace(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


class Unit:
    """What one input yields: the wall time of each op on it, the
    program's peak RSS, the quality of its result, a fingerprint of that
    result (for the determinism checks), its layer trace, and the reason
    for each failed check."""

    def __init__(self):
        self.walls = []
        self.rss_kb = 0
        self.nmi = None
        self.output = None
        self.trace = None
        self.errors = []

    def judge(self, truth, labels):
        """Scores a final partition against the planted communities."""
        if labels is None:
            self.errors.append("output is not a valid partition")
            return
        self.nmi = nmi(truth[:len(labels)], labels)
        self.output = hashlib.sha256(repr(labels).encode()).hexdigest()
        if self.nmi < NMI_FLOOR:
            self.errors.append("NMI %.3f below %.2f" % (self.nmi, NMI_FLOOR))


class Workload:
    """Makes inputs (prepare), runs ops on them (unit), and times set-up.
    Subclasses name themselves after their workload."""

    name = None

    def __init__(self, bins, work):
        self.bins = bins
        self.work = work

    def generate(self, stem, params, seed, suffix):
        graph = os.path.join(self.work, stem + suffix)
        truth = os.path.join(self.work, stem + ".truth")
        argv = [os.path.join(self.bins, "gen_graph"), "--seed", str(seed),
                "--graph", graph, "--truth", truth, "--p-in",
                str(params["p_in"])]
        for key in ("vertices", "communities", "edges", "alpha"):
            argv += ["--" + key, str(params[key])]
        self.checked(argv, "gen_graph")
        with open(truth) as f:
            return graph, [int(line) for line in f]

    def checked(self, argv, what):
        _, status, _, err = run_program(self.bins, argv, self.work)
        if status != 0:
            raise BenchError("%s failed: %s" % (what, err.strip()[-300:]))

    def setup(self, seed):
        """One set-up: first input plus a warm-up op. Returns (seconds,
        result fingerprint, errors)."""
        start = time.perf_counter()
        unit = self.unit("hsbp", self.prepare(seed))
        return time.perf_counter() - start, unit.output, unit.errors


class CliWorkload(Workload):
    """One CLI run per op, each on a fresh graph."""

    def run_cli(self, binary, inst, out, trace_path, argv, stdout_path=None):
        for stale in (out, trace_path):
            if stale and os.path.exists(stale):
                os.unlink(stale)
        unit = Unit()
        wall, status, unit.rss_kb, err = run_program(
            self.bins, [os.path.join(self.bins, binary)] + argv, self.work,
            trace_path, stdout_path)
        unit.walls.append(wall)
        if status != 0:
            unit.errors.append("exit %d: %s" % (status, err.strip()[-300:]))
            return unit
        unit.trace = read_trace(trace_path) if trace_path else None
        unit.judge(inst["truth"], read_assignment(out, len(inst["truth"])))
        return unit


class Detect(CliWorkload):
    """`hsbp detect` with H-SBP, one chain per op."""

    name = "detect"

    def prepare(self, seed):
        graph, truth = self.generate("g", DETECT, seed, ".mtx")
        return dict(graph=graph, truth=truth, seed=seed)

    def unit(self, binary, inst, trace_path=None):
        out = os.path.join(self.work, "p.tsv")
        return self.run_cli(binary, inst, out, trace_path, [
            "detect", inst["graph"], "--algorithm", "hsbp", "--runs", "1",
            "--threads", "1", "--seed", str(inst["seed"]), "--out", out])


class FitOoc(CliWorkload):
    """`hsbp fit` of a mapped binary CSR under a memory budget below its
    size."""

    name = "fit_ooc"

    def prepare(self, seed):
        edges, truth = self.generate("g", FIT_OOC, seed, ".el")
        csr = os.path.join(self.work, "g.csr")
        self.checked([os.path.join(self.bins, "hsbp"), "convert", edges, csr],
                     "hsbp convert")
        return dict(graph=csr, truth=truth, seed=seed)

    def unit(self, binary, inst, trace_path=None):
        out = os.path.join(self.work, "p.tsv")
        report = os.path.join(self.work, "fit.json")
        unit = self.run_cli(binary, inst, out, trace_path, [
            "fit", inst["graph"], "--memory-budget-mb", str(FIT_OOC_BUDGET_MB),
            "--skeleton-frac", str(FIT_OOC_SKELETON), "--threads", "1",
            "--seed", str(inst["seed"]), "--json", "--out", out], report)
        try:
            with open(report) as f:
                pieces = json.load(f)["pieces_refit"]
        except (OSError, ValueError, KeyError):
            pieces = 0
        if pieces < 2:
            unit.errors.append("fit refit %d pieces, not >= 2" % pieces)
        return unit


# ---------------------------------------------------------------- serve

class Daemon:
    """A running `hsbp serve` and one client connection to it."""

    SOCKET = "d.sock"

    def __init__(self, binary, work, graph, seed, trace_path=None):
        sock_path = os.path.join(work, self.SOCKET)
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        self.sock = None
        self.err = open(os.path.join(work, "daemon.err"), "w")
        self.proc = subprocess.Popen(
            [binary, "serve", graph, "--socket", self.SOCKET, "--algorithm",
             SERVE_ALGORITHM, "--threads", "1", "--seed", str(seed)],
            cwd=work, env=child_env(trace_path), stdout=subprocess.PIPE,
            stderr=self.err, text=True)
        self.killer = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        self.killer.start()
        if not self.proc.stdout.readline().startswith("hsbpd: serving"):
            self.close()
            with open(self.err.name) as f:
                raise BenchError("hsbp serve did not start: "
                                 + f.read().strip()[-300:])
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        # Relative: a socket path is limited to ~100 bytes.
        self.sock.connect(os.path.relpath(sock_path))

    def request(self, payload):
        data = payload.encode()
        self.sock.sendall(struct.pack("<I", len(data)) + data)
        (length,) = struct.unpack("<I", self._read(4))
        return self._read(length).decode()

    def _read(self, n):
        chunks = []
        while n > 0:
            chunk = self.sock.recv(n)
            if not chunk:
                raise BenchError("daemon closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def ok(self, payload):
        reply = self.request(payload)
        if not reply.startswith("OK"):
            raise BenchError("%s -> %s" % (payload.split()[0], reply))
        return reply.split()[1:]

    def info(self, graph):
        return {k: int(v) for k, v in (t.split("=", 1) for t in
                                       self.ok("INFO " + graph)[:4])}

    def partition(self, graph):
        info = self.info(graph)
        labels = [-1] * info["vertices"]
        for block in range(info["blocks"]):
            for v in self.ok("COMMUNITY %s %d" % (graph, block))[1:]:
                if labels[int(v)] != -1:
                    return None
                labels[int(v)] = block
        return None if -1 in labels else labels

    def peak_rss_kb(self):
        """VmHWM counts only the daemon's own image, not the script's it
        was forked from (unlike the ru_maxrss of a wait)."""
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def close(self):
        """SHUTDOWN (drains, exit 0), or kill; True on a clean exit."""
        try:
            if self.sock is not None:
                self.request("SHUTDOWN")
                self.sock.close()
        except (OSError, BenchError):
            self.proc.kill()
        self.proc.wait()
        self.killer.cancel()
        self.proc.stdout.close()
        self.err.close()
        return self.proc.returncode == 0


class Serve(Workload):
    """Streaming updates against `hsbp serve`. One input is one daemon
    lifetime: start-up fit on the base graph, then SERVE_BATCHES ops."""

    name = "serve"
    GRAPH = "g"

    def prepare(self, seed):
        total = dict(SERVE, edges=SERVE_OUT_DEGREE * SERVE["vertices"])
        edges_path, truth = self.generate("full", total, seed, ".el")
        with open(edges_path) as f:
            edges = [tuple(int(x) for x in line.split()) for line in f]
        base_n = SERVE_BASE_VERTICES
        step = (SERVE["vertices"] - base_n) // SERVE_BATCHES
        batches = [[] for _ in range(SERVE_BATCHES)]
        base = []
        for e in edges:
            if max(e) < base_n:
                base.append(e)
            else:
                batches[min((max(e) - base_n) // step, SERVE_BATCHES - 1)].append(e)
        graph = os.path.join(self.work, self.GRAPH + ".mtx")
        with open(graph, "w") as f:
            f.write("%%MatrixMarket matrix coordinate pattern general\n")
            f.write("%d %d %d\n" % (base_n, base_n, len(base)))
            f.write("".join("%d %d\n" % (u + 1, v + 1) for u, v in base))
        return dict(graph=graph, truth=truth, seed=seed, batches=batches)

    def start(self, binary, inst, trace_path=None):
        return Daemon(os.path.join(self.bins, binary), self.work,
                      inst["graph"], inst["seed"], trace_path)

    def setup(self, seed):
        start = time.perf_counter()
        daemon = self.start("hsbp", self.prepare(seed))
        seconds = time.perf_counter() - start
        try:
            labels = daemon.partition(self.GRAPH)
        finally:
            clean = daemon.close()
        errors = [] if clean else ["daemon did not drain cleanly"]
        if labels is None:
            errors.append("start-up partition is not a partition")
        return seconds, labels and hashlib.sha256(repr(labels).encode()).hexdigest(), errors

    def unit(self, binary, inst, trace_path=None):
        unit = Unit()
        if trace_path and os.path.exists(trace_path):
            os.unlink(trace_path)
        daemon = self.start(binary, inst, trace_path)
        labels = None
        try:
            self.update(daemon, inst, unit)
            unit.rss_kb = daemon.peak_rss_kb()
            labels = daemon.partition(self.GRAPH)
        except (BenchError, OSError) as e:
            unit.errors.append("request failed: %s" % e)
        finally:
            if not daemon.close():
                unit.errors.append("daemon did not drain cleanly")
        unit.trace = read_trace(trace_path) if trace_path else None
        unit.judge(inst["truth"], labels)
        return unit

    def update(self, daemon, inst, unit):
        """The measured ops: INGEST a batch, wait for the refit to publish
        the next epoch, read the batch's new vertices back."""
        graph = self.GRAPH
        epoch = int(daemon.ok("EPOCH " + graph)[0])
        vertices = daemon.info(graph)["vertices"]
        for batch in inst["batches"]:
            payload = "INGEST %s %d %s" % (
                graph, len(batch), " ".join("%d %d" % e for e in batch))
            fresh = range(vertices, max(vertices, 1 + max(map(max, batch))))
            start = time.perf_counter()
            daemon.ok(payload)
            while int(daemon.ok("EPOCH " + graph)[0]) == epoch:
                time.sleep(0.0005)
            blocks = [int(daemon.ok("MEMBER %s %d" % (graph, v))[0])
                      for v in fresh]
            unit.walls.append(time.perf_counter() - start)
            epoch, vertices = epoch + 1, fresh.stop
            info = daemon.info(graph)
            if info["epoch"] != epoch:
                unit.errors.append("epoch %d after a refit, expected %d"
                                   % (info["epoch"], epoch))
            elif info["vertices"] != vertices:
                unit.errors.append("%d vertices served, expected %d"
                                   % (info["vertices"], vertices))
            elif not all(0 <= b < info["blocks"] for b in blocks):
                unit.errors.append("MEMBER gave a block outside [0, blocks)")


# ---------------------------------------------------------------- runs

def layer_totals(traces):
    """Sums the measured bucket of several traces: {layer: [ns, calls]}
    plus the symbols any of them could not wrap."""
    totals = {layer: [0.0, 0] for layer in LAYERS}
    missing = set()
    for trace in traces:
        missing.update(trace.get("missing", []))
        for layer, (ns, calls) in trace["buckets"]["measured"].items():
            if layer in totals:
                totals[layer][0] += ns
                totals[layer][1] += calls
    return totals, missing


def layer_metrics(traced, plain):
    """Per-layer metrics from paired traced and plain units."""
    traced_walls = [w for u in traced for w in u.walls]
    plain_walls = [w for u in plain for w in u.walls]
    ops = len(traced_walls)
    totals, missing = layer_totals(u.trace for u in traced)
    for symbol in sorted(missing):
        log("warning: no span for %s, the library no longer defines it" % symbol)
    wall_ms = 1000.0 * sum(traced_walls) / ops
    metrics = {"wall_ms": (wall_ms, "ms")}
    attributed = 0.0
    for layer in LAYERS:
        ms = totals[layer][0] / 1e6 / ops
        attributed += ms
        metrics[layer + "_ms"] = (ms, "ms")
    calls = {layer: totals[layer][1] / ops for layer in LAYERS}
    metrics["unattributed_ms"] = (wall_ms - attributed, "ms")
    metrics["unattributed_pct"] = (100.0 * (wall_ms - attributed) / wall_ms, "%")
    metrics["trace_overhead_pct"] = (
        100.0 * (statistics.median(traced_walls)
                 / statistics.median(plain_walls) - 1.0), "%")
    metrics["proposals"] = (calls["propose"], "count")
    metrics["evaluations"] = (calls["delta_mdl"], "count")
    metrics["proposal_yield"] = (
        calls["delta_mdl"] / calls["propose"] if calls["propose"] else 0.0,
        "ratio")
    metrics["moves_applied"] = (calls["apply"], "count")
    metrics["rebuilds"] = (calls["rebuild"], "count")
    metrics["merge_phases"] = (calls["merge"], "count")
    metrics["mcmc_phases"] = (calls["pass"], "count")
    metrics["spans_missing"] = (float(len(missing)), "count")
    return metrics


class Tally:
    """Counts every checked op (attempted) and every failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ops, errors, what):
        self.attempted += max(ops, len(errors))
        self.failed += len(errors)
        for error in errors:
            log("FAILED %s: %s" % (what, error))


def run(workload, args):
    tally = Tally()

    setup_times, reference = [], None
    first = instance_seed(workload.name, args.seed, 0)
    for rep in range(SETUP_REPS):
        seconds, output, errors = workload.setup(first)
        setup_times.append(seconds)
        reference = reference or output
        if output != reference:
            errors.append("set-up %d gave a different result than set-up 0" % rep)
        tally.add(1, errors, "set-up %d" % rep)

    plain, traced, index = [], [], 0
    deadline = time.monotonic() + args.seconds
    while index == 0 or time.monotonic() < deadline:
        index += 1
        inst = workload.prepare(instance_seed(workload.name, args.seed, index))
        if not args.trace:
            unit = workload.unit("hsbp", inst)
            tally.add(len(unit.walls), unit.errors, "input %d" % index)
            plain.append(unit)
            continue
        # Both binaries on the same input, alternating which goes first.
        trace_path = os.path.join(workload.work, "trace.json")
        sides = [("hsbp", None), ("hsbp_traced", trace_path)]
        if index % 2 == 0:
            sides.reverse()
        pair = {binary: workload.unit(binary, inst, path) for binary, path in sides}
        errors = pair["hsbp"].errors + pair["hsbp_traced"].errors
        if not errors and pair["hsbp_traced"].trace is None:
            errors.append("the traced run wrote no trace")
        if not errors and pair["hsbp_traced"].output != pair["hsbp"].output:
            errors.append("the traced run changed the result")
        tally.add(2 * len(pair["hsbp"].walls), errors, "input %d" % index)
        if not errors:
            plain.append(pair["hsbp"])
            traced.append(pair["hsbp_traced"])

    if args.trace:
        if not traced:
            raise BenchError("no traced op succeeded")
        return tally, layer_metrics(traced, plain)
    good = [u for u in plain if not u.errors] or plain
    return tally, {
        "op_ms": (1000.0 * trimmed_mean([w for u in good for w in u.walls]), "ms"),
        "peak_rss_mb": (statistics.median(u.rss_kb for u in good) / 1024.0, "MiB"),
        "nmi": (statistics.median(u.nmi or 0.0 for u in good), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


WORKLOADS = {w.name: w for w in (Detect, FitOoc, Serve)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        check_checkout(root)
        build_root, bins = build(root)
        work = os.path.join(build_root, "work", "%s-%d-%d" % (
            args.workload, args.seed, os.getpid()))
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            tally, metrics = run(WORKLOADS[args.workload](bins, work), args)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log("error: %s" % e)
        return 1

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
