#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds `nmlc` and the benchmark's
helper (`perfbench/pb.ml`) from source with dune, generates the
workload's programs from the seed (`pb gen`), and then

  --trace 0  times the built `nmlc` executable as a user runs it and
             prints the end-to-end metrics;
  --trace 1  calls each layer's public function in process (`pb chain`),
             replays the daemon's request sequence through the cache in
             process (`pb replay`), and prints the per-layer metrics.

`--workload all` runs every workload in turn and prints one table.
Every operation's output is checked against a reference the compiler
under test did not produce: `Nml.Eval` values, the committed golden
reports, and storeless analyses.  A human-readable table goes to
stdout first; the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  README.md in this directory
describes the workloads and the metrics.
"""

import argparse
import atexit
import hashlib
import json
import os
import random
import re
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

WORKLOADS = ("compile-corpus", "execute")
WORK = ".bench_work"
NMLC = "_build/default/bin/nmlc.exe"
PB = "_build/default/perfbench/pb.exe"
SETUPS = 3  # set-up is repeated and its median reported
CLI_TIMEOUT = 30  # seconds; a command that takes longer counts as failed
STARTUP_RUNS = 15
CLI_REPS = 3  # per (program, command) in the traced run
REQUESTS_PER_PASS = 300  # daemon requests per pass over the programs, roughly (see Requests)

COMMANDS = {
    "analyze": ["analyze"],
    "vet": ["vet"],
    "run": ["run", "-O", "--backend", "vm", "--policy", "generational"],
    "run_base": ["run", "--backend", "vm"],
    "interp": ["run", "-O", "--policy", "generational"],
}

# On execute, analyze and vet are ~10% of a pass; each runs three times
# per program, so each program's median rests on three times the samples.
REPEAT = {"execute": {"analyze": 3, "vet": 3}}

# the layer spans each command needs exactly once (see cli.redundant_ms)
SINGLE_PASS = {
    "analyze": ["nml.parse", "nml.infer", "escape.solve"],
    "vet": ["nml.parse", "nml.mono", "nml.infer", "escape.solve", "spinelive.solve",
            "optimize", "vet.audit"],
    "run": ["nml.parse", "nml.mono", "nml.infer", "escape.solve", "spinelive.solve",
            "optimize", "backend.compile", "vm.exec"],
}

END_TO_END = [
    ("setup_s", "s"), ("analyze_ms.p50", "ms"), ("analyze_ms.p90", "ms"),
    ("vet_ms.p50", "ms"), ("vet_ms.p90", "ms"), ("run_ms.p50", "ms"), ("run_ms.p90", "ms"),
    ("run_base_ms.p50", "ms"), ("interp_ms.p50", "ms"), ("heap_allocs", "cells"), ("gc_work", "cells"),
    ("request_ms.p50", "ms"), ("requests_per_s", "1/s"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def pct(xs, q):
    """Percentile q in [0, 100], linear between closest ranks."""
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    k = (len(xs) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def children_cpu():
    """CPU seconds (user + system) of every child reaped so far."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


CAL_LOOPS = 50000
CAL_REF_S = 0.005


def speed():
    """How fast the machine runs right now against a reference machine:
    CAL_REF_S over this process's CPU time for a fixed pure-Python loop.
    On a shared machine other load can slow the CPUs by ~1.5x for
    seconds at a time, in CPU time as much as in wall time; timings are
    multiplied by the speed measured around them, which takes most of
    that out.  The loop does not depend on the code under test, so a change
    to it shows in full."""
    t0 = time.process_time()
    x = 0
    for i in range(CAL_LOOPS):
        x += i * i % 7
    return CAL_REF_S / (time.process_time() - t0)


def build():
    for need in ("dune-project", "bin/nmlc.ml", "lib", "examples/programs", "test/golden"):
        if not os.path.exists(need):
            die("%s is missing: run from the root of a full checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "-j", "2", "./bin/nmlc.exe", "./perfbench/pb.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        die("build failed")


def pb(*args):
    r = subprocess.run([PB] + list(args), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace"))
        die("pb %s failed" % args[0])
    if r.stderr:
        sys.stderr.write(r.stderr.decode(errors="replace"))
    return json.loads(r.stdout) if r.stdout.strip() else None


class Failures:
    """An operation is one command on one program, one slot of the
    daemon's request sequence (the same request on every pass), or one
    check of the traced run.  It is repeated on every pass, and it fails
    when any of its executions exits non-zero, answers with an error, or
    gives output that differs from its reference; the last kind is also a
    wrong output, which makes the run incorrect.  `attempted` and `failed`
    count operations, not executions, so they do not depend on how many
    passes fit in the run."""

    def __init__(self):
        self.ops = {}  # operation -> failed on some execution
        self.wrong = 0

    def record(self, op, ok, what, wrong=False):
        if not ok:
            self.wrong += wrong
            if not self.ops.get(op):
                log("perfbench: FAILED %s" % what)
        self.ops[op] = self.ops.get(op, False) or not ok

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(self.ops.values())


# ---- the daemon and its one client connection ----------------------------------

LIVE = []  # daemons not yet stopped; none may outlive the benchmark


@atexit.register
def _reap():
    for proc in LIVE:
        proc.kill()
        proc.wait()


signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


class Daemon:
    def __init__(self, wdir):
        self.sock_path = os.path.join(wdir, "s.sock")
        self.proc = subprocess.Popen(
            [NMLC, "serve", "--socket", self.sock_path, "--cache", os.path.join(wdir, "cache"),
             "--jobs", "1", "--quiet"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=open(os.path.join(wdir, "daemon.log"), "wb"))
        LIVE.append(self.proc)
        self.conn = None
        deadline = time.monotonic() + 30
        while True:
            try:
                conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                conn.connect(self.sock_path)
                self.conn = conn
                break
            except OSError:  # not bound, or bound but not yet listening
                conn.close()
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    die("the daemon did not start")
                time.sleep(0.002)
        self.buf = b""
        self.next_id = 0

    def _read_exactly(self, n):
        while len(self.buf) < n:
            chunk = self.conn.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk
        out, self.buf = self.buf[:n], self.buf[n:]
        return out

    def call(self, method, path=None):
        """One framed JSON-RPC round trip: (seconds, parsed response)."""
        self.next_id += 1
        req = {"id": self.next_id, "method": method}
        if path is not None:
            req["params"] = {"path": path}
        payload = json.dumps(req).encode()
        t0 = time.perf_counter()
        self.conn.sendall(b"%d\n" % len(payload) + payload)
        while b"\n" not in self.buf:
            chunk = self.conn.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        body = self._read_exactly(int(line))
        dt = time.perf_counter() - t0
        return dt, json.loads(body)

    def cpu(self):
        """CPU seconds the daemon's threads have run so far, from the
        scheduler's per-thread accounting (nanoseconds, unlike the 10 ms
        ticks of rusage).  The daemon keeps its threads for its lifetime."""
        total = 0
        task = "/proc/%d/task" % self.proc.pid
        for tid in os.listdir(task):
            with open(os.path.join(task, tid, "schedstat")) as f:
                total += int(f.read().split()[0])
        return total / 1e9

    def stop(self):
        try:
            if self.proc.poll() is None and self.conn is not None:
                self.call("shutdown")
        except (OSError, ValueError):
            pass
        try:
            if self.conn is not None:
                self.conn.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        LIVE.remove(self.proc)


# ---- set-up ------------------------------------------------------------------------


def setup(workload, seed, wdir):
    """Generate the inputs and their references, start the daemon and
    let it analyze and lint every file once, so the loops read a warm
    cache; the returned daemon has done nothing else.  The daemon serves
    copies of the programs (`served`): the edits of the request mix must
    never reach the files the CLI runs."""
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(os.path.join(wdir, "serve"))
    pb("gen", workload, str(seed), wdir)
    with open(os.path.join(wdir, "manifest.json")) as f:
        programs = json.load(f)["programs"]
    for p in programs:
        p["served"] = os.path.join(wdir, "serve", os.path.basename(p["file"]))
        shutil.copyfile(p["file"], p["served"])
    daemon = Daemon(wdir)
    for p in programs:
        for method in ("analyze", "lint"):
            _, resp = daemon.call(method, p["served"])
            if "result" not in resp:
                die("warm-up %s of %s: %s" % (method, p["served"], resp))
    return programs, daemon


def timed_setups(workload, seed, wdir):
    """Set-up's CPU seconds (the benchmark's own, `pb gen`'s and the
    daemon's), median of SETUPS set-ups; the last set-up's daemon is
    stopped and a fresh one serves the timed loop from the store the
    set-up filled, so its CPU time is the loop's alone."""
    times = []
    for _ in range(SETUPS):
        c0, s0 = children_cpu(), time.process_time()
        programs, daemon = setup(workload, seed, wdir)
        daemon.stop()
        times.append(children_cpu() - c0 + time.process_time() - s0)
    return statistics.median(times), programs, Daemon(wdir)


# ---- CLI operations and their references ------------------------------------------

RESULT_RE = re.compile(r"result: (.*?)\nheap_allocs\s+(\d+)\n.*\nmarked\s+(\d+)\nswept\s+(\d+)\n", re.S)
VET_RE = re.compile(r"vet: \d+ annotation\(s\) audited, 0 finding\(s\)\n\Z")


def golden_or_ref(p):
    if p["golden"]:
        with open(p["golden"]) as f:
            return f.read()
    return p["analyze"]


def cli(cmd, p, fails, expected_report):
    """Runs one command on one program; returns (CPU ms of the process,
    (heap_allocs, gc_work) or None)."""
    argv = [NMLC] + COMMANDS[cmd][:1] + [p["file"]] + COMMANDS[cmd][1:]
    c0 = children_cpu()
    try:
        r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=CLI_TIMEOUT)
    except subprocess.TimeoutExpired:
        fails.record((cmd, p["name"]), False, "%s %s (timed out)" % (cmd, p["file"]))
        return CLI_TIMEOUT * 1e3, None
    ms = (children_cpu() - c0) * 1e3
    out = r.stdout.decode(errors="replace")
    allocs = None
    if r.returncode != 0:
        ok = False
    elif cmd == "analyze":
        ok = out == expected_report
    elif cmd == "vet":
        ok = VET_RE.search(out) is not None
    else:
        m = RESULT_RE.search(out)
        ok = m is not None and re.sub(r"\s", "", m.group(1)) == p["value"]
        allocs = (int(m.group(2)), int(m.group(3)) + int(m.group(4))) if m else None
    fails.record((cmd, p["name"]), ok, "%s %s (exit %d)" % (cmd, p["file"], r.returncode),
                 wrong=r.returncode == 0)
    return ms, allocs


# ---- daemon requests ----------------------------------------------------------------

LITERAL_RE = re.compile(r"(?<![\w'])\d+(?![\w'])")


def edit_points(text):
    """Offsets of the integer literals inside definition bodies: before
    the top-level `in`, outside `--` comments."""
    masked = re.sub(r"--[^\n]*", lambda m: " " * len(m.group(0)), text)
    end = masked.rfind("\nin ")
    if not masked.lstrip().startswith("letrec") or end < 0:
        return []
    return [(m.start(), m.end()) for m in LITERAL_RE.finditer(masked[:end])]


class Requests:
    """The daemon traffic: one client, one connection, closed loop.
    70% analyze of an unchanged file, 20% change one integer literal in
    one definition body and then analyze, 10% lint.  Every pass sends the
    same sequence (`plan`): slot i is the same kind of request on the
    same file, and an edit changes the same literal to a value not used
    before, so it re-solves on every pass.  The sequence is balanced:
    every editable file is edited the same number of times and the other
    requests cycle through the files, so what a pass costs does not hang
    on which files the seed happens to edit more often (an edit of a
    program with partition sort re-solves ~100 ms, most others a few).
    The seed orders the requests."""

    def __init__(self, programs, seed, wdir):
        rng = random.Random(seed * 7919 + 1)
        self.files = [p["served"] for p in programs]
        self.text = {}
        for f in self.files:
            with open(f) as fh:
                self.text[f] = fh.read()
        self.original = dict(self.text)
        editable = [f for f in self.files if edit_points(self.text[f])]
        rounds = max(1, round(REQUESTS_PER_PASS / (5 * len(editable))))
        # an edit's cost follows the definition it changes (the first
        # wrapper of a wide chain re-solves the whole chain, the last only
        # itself), so the literals a file's edits change are spread evenly
        # over its definitions, the same ones for every seed
        edits = [(f, (2 * j + 1) * len(edit_points(self.text[f])) // (2 * rounds))
                 for f in editable for j in range(rounds)]
        kinds = ["edit"] * len(edits) + ["analyze"] * round(3.5 * len(edits)) + ["lint"] * round(0.5 * len(edits))
        rng.shuffle(kinds)
        rng.shuffle(edits)
        edits = iter(edits)
        cycle = {"analyze": 0, "lint": 0}
        order = {k: rng.sample(self.files, len(self.files)) for k in cycle}
        self.plan = []  # (kind, file, index of the literal an edit changes)
        for kind in kinds:
            if kind == "edit":
                self.plan.append(("analyze",) + next(edits))
            else:
                self.plan.append((kind, order[kind][cycle[kind] % len(self.files)], None))
                cycle[kind] += 1
        self.fresh = 100
        self.slot = 0
        self.snapdir = os.path.join(wdir, "snap")
        os.makedirs(self.snapdir, exist_ok=True)
        self.sent = []  # (kind, path, snapshot file, edit, seconds, response, slot)

    def snapshot(self, text):
        name = os.path.join(self.snapdir, hashlib.sha1(text.encode()).hexdigest() + ".nml")
        if not os.path.exists(name):
            with open(name, "w") as f:
                f.write(text)
        return name

    def one(self, daemon):
        kind, path, literal = self.plan[self.slot]
        if literal is not None:
            lo, hi = edit_points(self.text[path])[literal]
            self.fresh += 1
            self.text[path] = self.text[path][:lo] + str(self.fresh) + self.text[path][hi:]
            with open(path, "w") as fh:
                fh.write(self.text[path])
        dt, resp = daemon.call(kind, path)
        self.sent.append((kind, path, self.snapshot(self.text[path]), literal is not None, dt, resp, self.slot))
        self.slot = (self.slot + 1) % len(self.plan)

    def verify(self, wdir, fails):
        """Every answer must equal a storeless analysis (or lint) of the
        same source text, so a stale cache counts as a failure."""
        keys = sorted({(k, p, s) for k, p, s, _, _, _, _ in self.sent})
        listing = os.path.join(wdir, "refs.json")
        with open(listing, "w") as f:
            json.dump([{"kind": k, "path": p, "file": s} for k, p, s in keys], f)
        refs = dict(zip(keys, pb("refs", listing)))
        for kind, path, snap, _, _, resp, slot in self.sent:
            ref = refs[(kind, path, snap)]
            res = resp.get("result")
            ok = res is not None and res["output"] == ref["output"] and res["code"] == ref["code"]
            fails.record(("daemon", slot), ok, "%s %s via the daemon: %s" % (kind, path, resp.get("error", "stale answer")),
                         wrong=res is not None)


# ---- the untraced run: end-to-end metrics ------------------------------------------


def cli_ops(p, repeat, fails, samples, allocs, speeds):
    """One program's commands back to back; each sample is scaled by the
    mean of the speeds measured right before and right after it."""
    report = golden_or_ref(p)
    f = speed()
    for cmd in COMMANDS:
        for _ in range(repeat.get(cmd, 1)):
            ms, a = cli(cmd, p, fails, report)
            f2 = speed()
            speeds.append(f2)
            samples[cmd].setdefault(p["name"], []).append(ms * (f + f2) / 2)
            f = f2
            if cmd == "run" and a is not None:
                allocs.setdefault(p["name"], a)


def end_to_end(workload, seed, seconds):
    """The timed loop: passes over the programs until `seconds` have
    gone, each program's commands followed by its share of the pass's
    daemon requests, so both kinds of sample are spread over the run."""
    wdir = os.path.join(WORK, workload)
    setup_s, programs, daemon = timed_setups(workload, seed, wdir)
    fails = Failures()
    samples = {cmd: {} for cmd in COMMANDS}  # command -> program -> samples
    allocs = {}
    speeds = []
    reqs = Requests(programs, seed, wdir)
    repeat = REPEAT.get(workload, {})
    batch_cpu = []  # daemon CPU seconds per batch of requests, scaled like a CLI sample
    n, r = len(programs), len(reqs.plan)
    try:
        # the first pass always completes, so every program has samples;
        # a later one stops at the deadline
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            for i, p in enumerate(programs):
                cli_ops(p, repeat, fails, samples, allocs, speeds)
                c0 = daemon.cpu()
                # the pass's slots are spread evenly over the programs
                for _ in range((i + 1) * r // n - i * r // n):
                    reqs.one(daemon)
                c1 = daemon.cpu()
                f = speed()
                batch_cpu.append((c1 - c0) * (speeds[-1] + f) / 2)
                if passes > 0 and time.perf_counter() >= deadline:
                    break
            passes += 1
    finally:
        daemon.stop()
    reqs.verify(wdir, fails)
    req_ms = [s[4] * 1e3 for s in reqs.sent]
    # Percentiles are taken over the programs, of each program's median:
    # the programs differ in cost far more than one program's samples do,
    # so a percentile over the raw samples would fall in the gap between
    # two programs and jump with the noise at the edges of both.
    medians = {cmd: [statistics.median(xs) for xs in by_prog.values()] for cmd, by_prog in samples.items()}
    n = {cmd: sum(map(len, by_prog.values())) for cmd, by_prog in samples.items()}
    # set-up spans seconds, over which the speed changes many times: it
    # is scaled by the median speed of the run
    run_speed = statistics.median(speeds)
    values = {
        "setup_s": (setup_s * run_speed, SETUPS),
        "analyze_ms.p50": (statistics.median(medians["analyze"]), n["analyze"]),
        "analyze_ms.p90": (pct(medians["analyze"], 90), n["analyze"]),
        "vet_ms.p50": (statistics.median(medians["vet"]), n["vet"]),
        "vet_ms.p90": (pct(medians["vet"], 90), n["vet"]),
        "run_ms.p50": (statistics.median(medians["run"]), n["run"]),
        "run_ms.p90": (pct(medians["run"], 90), n["run"]),
        "run_base_ms.p50": (statistics.median(medians["run_base"]), n["run_base"]),
        "interp_ms.p50": (statistics.median(medians["interp"]), n["interp"]),
        "heap_allocs": (sum(a for a, _ in allocs.values()), len(allocs)),
        "gc_work": (sum(g for _, g in allocs.values()), len(allocs)),
        "request_ms.p50": (statistics.median(req_ms), len(req_ms)),
        "requests_per_s": (len(req_ms) / sum(batch_cpu), len(req_ms)),
    }
    rows = [(p["name"], cmd, statistics.median(samples[cmd][p["name"]]), len(samples[cmd][p["name"]]))
            for p in programs for cmd in COMMANDS]
    return values, fails, rows


# ---- the traced run: per-layer metrics -----------------------------------------------

LAYER_MS = ["nml.parse", "nml.infer", "nml.mono", "escape.solve", "sharing.solve",
            "spinelive.solve", "optimize", "backend.lower", "backend.compile", "vm.exec",
            "machine.exec", "vet.audit"]
COUNTERS = ["nml.mono.defs", "escape.evaluations", "escape.applications", "escape.alloc_words",
            "sharing.evaluations", "optimize.escape_applications", "optimize.reuse_sites",
            "optimize.stack_sites", "optimize.block_sites", "optimize.pretenure_sites",
            "vm.steps", "machine.steps", "heap.dcons_reuses", "heap.arena_allocs",
            "heap.minor_gcs", "heap.major_gcs", "heap.promoted", "heap.pause_cells.max",
            "heap.peak_live", "heap.gc_work"]
COUNTER_UNITS = {"escape.alloc_words": "words", "heap.pause_cells.max": "cells",
                 "heap.peak_live": "cells", "heap.gc_work": "cells"}


def traced(workload, seed):
    wdir = os.path.join(WORK, workload)
    programs, daemon = setup(workload, seed, wdir)
    fails = Failures()
    m = {}
    try:
        startup = []
        for _ in range(STARTUP_RUNS):
            c0 = children_cpu()
            r = subprocess.run([NMLC, "eval", "-e", "0"], stdout=subprocess.PIPE)
            startup.append((children_cpu() - c0) * 1e3)
            fails.record("startup", r.returncode == 0 and r.stdout == b"0\n", "nmlc eval -e 0",
                         wrong=r.returncode == 0)
        m["cli.startup_ms"] = (statistics.median(startup), "ms")

        trace_file = os.path.join(wdir, "trace.json")
        chain = pb("chain", os.path.join(wdir, "manifest.json"), trace_file)
        for p in programs:
            fails.record(("chain results", p["name"]), p["name"] not in chain["wrong"],
                         "in-process results of %s" % p["name"], wrong=True)
            fails.record(("chain audit", p["name"]), p["name"] not in chain["findings"],
                         "in-process audit of %s" % p["name"])
        layers = {k: v / 1e6 for k, v in chain["layers"].items()}
        for name in LAYER_MS:
            m[name + ".ms"] = (layers.get(name, 0.0), "ms")
        c = chain["counters"]
        for name in COUNTERS:
            m[name] = (c.get(name, 0), COUNTER_UNITS.get(name, "count"))
        m["escape.memo_hit_ratio"] = (c.get("escape.memo_hits", 0) / max(1, c.get("escape.applications", 0)), "ratio")
        m["trace.chain_ms"] = (chain["untraced_ns"] / 1e6, "ms")
        m["trace.gap_ms"] = (chain["gap_ns"] / 1e6, "ms")
        m["trace.overhead_ms"] = (chain["overhead_ns"] / 1e6, "ms")

        # cli.redundant_ms: what the commands spend beyond start-up and one
        # pass of the layers they need, summed over programs and commands.
        # The chain compiles and runs each program twice on the VM
        # (optimized, then unoptimized); a command needs the first span of
        # each name only.
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        first = {}
        for e in events:
            first.setdefault((e["args"]["program"], e["name"]), e["dur"] / 1e3)
        redundant = []
        for p in programs:
            report = golden_or_ref(p)
            for cmd, needs in SINGLE_PASS.items():
                med = statistics.median([cli(cmd, p, fails, report)[0] for _ in range(CLI_REPS)])
                single = sum(first.get((p["name"], layer), 0.0) for layer in needs)
                redundant.append(med - m["cli.startup_ms"][0] - single)
        m["cli.redundant_ms"] = (sum(redundant), "ms")

        # the daemon answers a request sequence; the same sequence is then
        # replayed in process through the cache with a store
        reqs = Requests(programs, seed, wdir)
        for _ in reqs.plan:
            reqs.one(daemon)
    finally:
        daemon.stop()
    reqs.verify(wdir, fails)
    replay = {"cache": os.path.join(wdir, "replay-cache"),
              "warm": [{"path": f, "file": reqs.snapshot(reqs.original[f])} for f in reqs.files],
              "requests": [{"kind": k, "path": pth, "file": s} for k, pth, s, _, _, _, _ in reqs.sent]}
    with open(os.path.join(wdir, "replay.json"), "w") as f:
        json.dump(replay, f)
    out = pb("replay", os.path.join(wdir, "replay.json"))
    analyze = [(s, o) for s, o in zip(reqs.sent, out) if s[0] == "analyze"]
    m["cache.analyze.ms"] = (statistics.median(o["ns"] / 1e6 for _, o in analyze), "ms")
    hits = sum(o["scc_hits"] for _, o in analyze)
    misses = sum(o["scc_misses"] for _, o in analyze)
    m["cache.scc_hits"] = (hits, "count")
    m["cache.scc_misses"] = (misses, "count")
    m["cache.hit_ratio"] = (hits / max(1, hits + misses), "ratio")
    m["cache.evaluations"] = (sum(o["evaluations"] for s, o in analyze if not s[3]), "count")
    m["cache.edit_evaluations"] = (sum(o["evaluations"] for s, o in analyze if s[3]), "count")
    m["serve.overhead_ms"] = (statistics.median(s[4] * 1e3 - o["ns"] / 1e6 for s, o in zip(reqs.sent, out)), "ms")
    m["serve.request_ms.p90"] = (pct([s[4] * 1e3 for s in reqs.sent], 90), "ms")
    return m, fails, chain


# ---- reporting -------------------------------------------------------------------------


def fmt(v):
    return "%.4f" % v if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in workloads:
        if args.trace:
            metrics, fails, chain = traced(w, args.seed)
            rows = [(layer, "self", v / 1e6, 1) for layer, v in sorted(chain["self"].items())]
            results[w] = ({k: (v, u, 1) for k, (v, u) in metrics.items()}, fails, rows)
        else:
            values, fails, rows = end_to_end(w, args.seed, args.seconds)
            units = dict(END_TO_END)
            results[w] = ({k: (v, units[k], n) for k, (v, n) in values.items()}, fails, rows)
    names = list(results[workloads[0]][0])
    print("%-30s %-6s %-15s %14s %7s" % ("metric", "unit", "workload", "value", "n"))
    for name in names:
        for w in workloads:
            v, unit, n = results[w][0][name]
            print("%-30s %-6s %-15s %14s %7d" % (name, unit, w, fmt(v), n))
    for w in workloads:
        metrics, fails, rows = results[w]
        print("\n%s: %d operation(s), %d failed" % (w, fails.attempted, fails.failed))
        what = "layer self time (ms, traced pass)" if args.trace else "per program (median ms)"
        print("  %s" % what)
        for prog, cmd, v, n in rows:
            print("  %-26s %-9s %12.3f %5d" % (prog, cmd, v, n))
    if len(workloads) == 1:
        metrics, fails, _ = results[workloads[0]]
        print(json.dumps({
            "correct": fails.wrong == 0,
            "attempted": fails.attempted,
            "failed": fails.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        }))


if __name__ == "__main__":
    main()
