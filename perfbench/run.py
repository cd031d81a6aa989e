#!/usr/bin/env python3
"""End-to-end benchmark of the `deadmember` command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload static-suite --seed 7 --seconds 20 --trace 0

It builds `deadmember` and `perfbench-tool` from ../src into .bench_build/
(perfbench/CMakeLists.txt), generates the workload's programs from the
seed, and then:

  --trace 0  runs the built binary as a user would, one process per
             program, and reports the end-to-end metrics (END_TO_END);
  --trace 1  does the same for half the time and spends the other half
             in a traced in-process run (perfbench-tool trace) that
             times each layer's public call; reports the per-layer
             metrics (per_layer_names()).

`--workload all` runs every workload and prints every metric by name.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A full record with the machine context is written to
.bench_build/results/. See perfbench/README.md for why each workload and
metric exists.
"""

import argparse
import difflib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import benchstats

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
DEADMEMBER = BUILD / "dmm" / "driver" / "deadmember"
TOOL = BUILD / "perfbench-tool"

DEFAULT_SEED = 7
HELDOUT_SEED = 1998  # For verifying a claim on a seed it was not tuned on.

# Driver flags per workload (every invocation also gets --jobs=J).
WORKLOADS = {
    "static-suite": ["--stats"],
    "dynamic-suite": ["--measure", "--profile"],
    "exec-kernels": ["--run"],
}
SETUPS = 3        # setup_s is the median of this many set-ups.
MIN_PASSES = 11   # So that a tail percentile with ten passes beyond exists.
MB = 2.0 ** 20

END_TO_END = [
    ("pass_ms_p50", "ms"),
    ("pass_ms_tail", "ms"),
    ("prog_ms_geomean", "ms"),
    ("cpu_ms_per_pass", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

LAYERS = [
    ("frontend.ms", "ms"), ("frontend.mb_per_s", "MB/s"),
    ("frontend.peak_mb", "MB"),
    ("lexer.ms", "ms"), ("lexer.tokens", "count"),
    ("lexer.ns_per_token", "ns"),
    ("parser.ms", "ms"),
    ("sema.ms", "ms"), ("sema.functions", "count"),
    ("callgraph.ms", "ms"), ("callgraph.reachable_fns", "count"),
    ("callgraph.edges", "count"),
    ("analysis.ms", "ms"), ("analysis.exprs", "count"),
    ("analysis.dead_used", "count"),
    ("report.ms", "ms"), ("report.bytes", "bytes"),
    ("vm.compile_ms", "ms"), ("vm.compiled_fns", "count"),
    ("vm.compile_useful_ratio", "ratio"),
    ("vm.exec_ms", "ms"), ("vm.steps", "count"), ("vm.calls", "count"),
    ("vm.ns_per_step", "ns"), ("vm.hook_ms", "ms"),
    ("interp.exec_ms", "ms"), ("vm.speedup_vs_tree", "ratio"),
    ("trace.ms", "ms"), ("trace.events", "count"),
    ("profiler.finalize_ms", "ms"), ("profiler.allocs", "count"),
    ("bench.pass_ms", "ms"), ("bench.unattributed_pct", "%"),
    ("driver.outside_layers_ms", "ms"),
]

# Every program of any workload, for the prog.<name>.ms rows; a program
# outside the measured workload reports 0.
PROGRAMS = ["jikes", "idl", "npic", "lcom", "taldict", "ixx", "simulate",
            "sched", "hotwire", "deltablue", "richards",
            "kmember", "kvirtual", "kalloc"]

# The benchmark's layer spans, in deadmember's order (perfbench/tool.cpp).
LAYER_SPANS = ["bench.frontend", "bench.callgraph", "bench.analysis",
               "bench.report", "bench.vm.compile", "bench.vm.exec",
               "bench.trace", "bench.profiler.finalize"]


def per_layer_names():
    return LAYERS + [("prog.%s.ms" % p, "ms") for p in PROGRAMS]


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and context
# --------------------------------------------------------------------------

def build(jobs):
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    steps = []
    if not ((BUILD / "build.ninja").exists() or (BUILD / "Makefile").exists()):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(jobs), "--target",
                  "deadmember", "perfbench-tool"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(logfile, "wb") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode:
                tail = logfile.read_text(errors="replace").splitlines()[-20:]
                raise BenchError("build failed (%s):\n%s" % (logfile, "\n".join(tail)))


def source_identity():
    """The commit, or a hash of src/ when the checkout is not a git repo."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def context(workload, seed, jobs, seconds, trace, manifest):
    info = json.loads(subprocess.run([str(TOOL), "info"], check=True,
                                     capture_output=True, text=True).stdout)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "jobs": jobs,
        "build_type": info["build_type"], "compiler": info["compiler"],
        "commit": source_identity(),
        "programs": [{k: p[k] for k in ("name", "kind", "bytes", "loc", "tokens")}
                     for p in manifest["programs"]],
    }


# --------------------------------------------------------------------------
# Invocations
# --------------------------------------------------------------------------

class Invocation:
    __slots__ = ("returncode", "stdout", "wall_ms", "cpu_ms", "rss_kb")


def invoke(argv, cwd):
    """Runs argv to completion; wall time, child CPU and peak RSS."""
    inv = Invocation()
    with open(BUILD / "last_stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                                stderr=err)
        inv.stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        inv.wall_ms = (time.perf_counter() - t0) * 1e3
    proc.stdout.close()
    proc.returncode = inv.returncode = os.waitstatus_to_exitcode(status)
    inv.cpu_ms = (usage.ru_utime + usage.ru_stime) * 1e3
    inv.rss_kb = usage.ru_maxrss
    return inv


def deadmember_argv(workload, program, jobs, engine=None):
    argv = [str(DEADMEMBER), "--jobs=%d" % jobs]
    if engine:
        argv.append("--engine=" + engine)
    return argv + WORKLOADS[workload] + program["files"]


class Setup:
    """Generated sources and references for one workload and seed."""

    def __init__(self, workload, seed, jobs):
        self.workload, self.jobs = workload, jobs
        self.dir = BUILD / "work" / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        subprocess.run([str(TOOL), "gen", workload, str(seed), str(self.dir)],
                       check=True, stdout=subprocess.DEVNULL)
        with open(self.dir / "manifest.json") as f:
            self.manifest = json.load(f)
        self.programs = self.manifest["programs"]
        for p in self.programs:
            if p["name"] not in PROGRAMS:
                raise BenchError("program %s has no prog.*.ms row" % p["name"])
        self.refs = [self.reference(p) for p in self.programs]

    def reference(self, p):
        if self.workload == "static-suite":
            # From the generating spec, not from the measured binary.
            return {"exit": 0, "members": p["expect_members"],
                    "dead": p["expect_dead"]}
        # The tree-walking engine is the VM's oracle.
        ref = invoke(deadmember_argv(self.workload, p, self.jobs, "tree"), self.dir)
        if ref.returncode != 0:
            raise BenchError("reference run of %s failed with status %d"
                             % (p["name"], ref.returncode))
        return {"exit": 0, "stdout": ref.stdout}


def machine_ticks():
    """(steal, busy) CPU ticks of the whole machine since boot, from
    /proc/stat; (0, 0) where it is unavailable."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
        user, nice, system, _idle, _iowait, irq, softirq, steal = v
    except (OSError, ValueError):
        return 0, 0
    return steal, user + nice + system + irq + softirq


class Tally:
    """Per-program invocation times and failures across passes."""

    def __init__(self, setup):
        self.setup = setup
        self.passes = []        # (wall_ms, cpu_ms, steal_share) per pass
        self.prog_ms = {p["name"]: [] for p in setup.programs}  # per pass
        self.attempted = self.failed = 0
        self.peak_rss_kb = 0
        self.first_failure = None

    def run_pass(self):
        s = self.setup
        wall = cpu = 0.0
        steal0, busy0 = machine_ticks()
        for p, ref in zip(s.programs, s.refs):
            inv = invoke(deadmember_argv(s.workload, p, s.jobs), s.dir)
            self.attempted += 1
            why = benchstats.check_output(inv.returncode, inv.stdout, ref)
            if why:
                self.failed += 1
                if self.first_failure is None:
                    self.first_failure = save_failure(s.workload, p, ref, inv, why)
            wall += inv.wall_ms
            cpu += inv.cpu_ms
            self.prog_ms[p["name"]].append(inv.wall_ms)
            self.peak_rss_kb = max(self.peak_rss_kb, inv.rss_kb)
        steal1, busy1 = machine_ticks()
        stolen, busy = steal1 - steal0, busy1 - busy0
        self.passes.append((wall, cpu, stolen / (stolen + busy) if stolen else 0.0))

    def calm(self):
        """Indices of the passes that the timing metrics use."""
        return benchstats.calm_passes([share for _, _, share in self.passes])

    def prog_medians(self):
        kept = self.calm()
        return {name: benchstats.median([v[i] for i in kept])
                for name, v in self.prog_ms.items()}

    def check_dead_total(self, dead_used):
        """The traced pipeline must find the spec's dead members too."""
        want = [p["expect_dead"] for p in self.setup.programs]
        if min(want) < 0:
            return
        self.attempted += 1
        if dead_used != sum(want):
            self.failed += 1
            log("FAILED traced run: %d dead members, expected %d"
                % (dead_used, sum(want)))

    def run_for(self, seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or len(self.passes) < MIN_PASSES:
            self.run_pass()


def save_failure(workload, program, ref, inv, why):
    path = BUILD / "results" / ("first-failure-%s.diff" % workload)
    path.parent.mkdir(exist_ok=True)
    expected = ref.get("stdout", b"").decode(errors="replace")
    diff = difflib.unified_diff(expected.splitlines(True),
                                inv.stdout.decode(errors="replace").splitlines(True),
                                "reference", "measured")
    path.write_text("%s: %s (exit %d)\n%s" % (program["name"], why,
                                              inv.returncode, "".join(diff)))
    log("FAILED %s: %s; diff in %s" % (program["name"], why, path))
    return {"program": program["name"], "why": why, "diff": str(path)}


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def end_to_end_metrics(tally, setup_times):
    kept = tally.calm()
    walls = [tally.passes[i][0] for i in kept]
    tail_ms, tail_pct, n = benchstats.tail(walls)
    metrics = {
        "pass_ms_p50": benchstats.median(walls),
        "pass_ms_tail": tail_ms,
        "prog_ms_geomean": benchstats.geomean(list(tally.prog_medians().values())),
        "cpu_ms_per_pass": benchstats.median([tally.passes[i][1] for i in kept]),
        "peak_rss_mb": tally.peak_rss_kb * 1024 / MB,
        "setup_s": benchstats.median(setup_times),
    }
    extra = {"passes": len(tally.passes), "passes_timed": n,
             "pass_ms": [w for w, _, _ in tally.passes],
             "steal_share": [share for _, _, share in tally.passes],
             "pass_ms_tail_percentile": tail_pct,
             "fail_ratio": benchstats.fail_ratio(tally.attempted, tally.failed)}
    return metrics, extra


def per_layer_metrics(trace, tally, setup):
    """Layer totals per pass (summed over the programs of one repetition),
    as the median over repetitions."""
    progs = trace["programs"]
    reps = range(trace["reps"])

    def med(per_rep):
        return benchstats.median([per_rep(r) for r in reps])

    def total(key):
        return med(lambda r: sum(p["samples"][r][key] for p in progs))

    def ms(key):
        return total(key) / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "frontend.ms": ms("bench.frontend"),
        "frontend.mb_per_s": ratio(sum(p["bytes"] for p in setup.programs) / MB,
                                   total("bench.frontend") / 1e9),
        "frontend.peak_mb": med(lambda r: max(
            p["samples"][r]["frontend.peak_bytes"] for p in progs)) / MB,
        "lexer.ms": ms("lex"),
        "lexer.tokens": total("lex.tokens"),
        "lexer.ns_per_token": ratio(total("lex"), total("lex.tokens")),
        "parser.ms": ms("parse"),
        "sema.ms": ms("sema"),
        "sema.functions": total("sema.functions"),
        "callgraph.ms": ms("bench.callgraph"),
        "callgraph.reachable_fns": total("callgraph.reachable_fns"),
        "callgraph.edges": total("callgraph.edges"),
        "analysis.ms": ms("bench.analysis"),
        "analysis.exprs": total("analysis.exprs_visited"),
        "analysis.dead_used": total("analysis.dead_used"),
        "report.ms": ms("bench.report"),
        "report.bytes": total("report.bytes"),
        "vm.compile_ms": ms("bench.vm.compile"),
        "vm.compiled_fns": total("vm.compiled_fns"),
        "vm.exec_ms": ms("bench.vm.exec"),
        "vm.steps": total("interp.steps"),
        "vm.calls": total("interp.calls"),
        "vm.ns_per_step": ratio(total("bench.vm.exec"), total("interp.steps")),
        "interp.exec_ms": ms("interp.exec"),
        "trace.ms": ms("bench.trace"),
        "trace.events": total("trace.events"),
        "profiler.finalize_ms": ms("bench.profiler.finalize"),
        "profiler.allocs": total("profiler.allocs"),
        "bench.pass_ms": ms("pass"),
    }
    m["vm.compile_useful_ratio"] = ratio(m["callgraph.reachable_fns"],
                                         m["vm.compiled_fns"])
    m["vm.hook_ms"] = m["vm.exec_ms"] - ms("vm.exec_nohooks")
    m["vm.speedup_vs_tree"] = ratio(m["interp.exec_ms"],
                                    m["vm.compile_ms"] + m["vm.exec_ms"])
    m["bench.unattributed_pct"] = med(lambda r: benchstats.unattributed_pct(
        sum(p["samples"][r]["pass"] for p in progs),
        [p["samples"][r][s] for p in progs for s in LAYER_SPANS]))
    e2e = tally.prog_medians()
    m["driver.outside_layers_ms"] = sum(
        e2e[p["name"]] - benchstats.median(
            [sum(smp[s] for s in LAYER_SPANS) for smp in p["samples"]]) / 1e6
        for p in progs) / len(progs)
    for name in PROGRAMS:
        m["prog.%s.ms" % name] = e2e.get(name, 0.0)
    return {name: m[name] for name, _ in per_layer_names()}


def traced_run(setup, seconds):
    out = subprocess.run([str(TOOL), "trace", setup.workload, str(setup.dir),
                          str(setup.jobs), "%.3f" % seconds],
                         capture_output=True, text=True)
    if out.returncode:
        raise BenchError("traced run failed:\n" + out.stderr[-2000:])
    return json.loads(out.stdout)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, jobs):
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        setup = Setup(workload, seed, jobs)
        Tally(setup).run_pass()  # Warm-up: page cache, binary, allocator.
        setup_times.append(time.perf_counter() - t0)

    tally = Tally(setup)
    tally.run_for(seconds / 2 if trace else seconds)
    if trace:
        traced = traced_run(setup, seconds / 2)
        layers = per_layer_metrics(traced, tally, setup)
        tally.check_dead_total(layers["analysis.dead_used"])
    e2e, extra = end_to_end_metrics(tally, setup_times)
    record = {"context": context(workload, seed, jobs, seconds, trace,
                                 setup.manifest),
              "end_to_end": e2e, **extra,
              "attempted": tally.attempted, "failed": tally.failed,
              "first_failure": tally.first_failure}
    metrics = e2e
    if trace:
        metrics = record["per_layer"] = layers
        record["trace_reps"] = traced["reps"]

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    with open(results / ("%s-seed%d-trace%d.json" % (workload, seed, trace)), "w") as f:
        json.dump(record, f, indent=1)
    return record, metrics, tally


def print_table(workload, record, metrics, units):
    ctx = record["context"]
    print("== %s  seed=%d  jobs=%d/%d cpus  %s %s  %s" % (
        workload, ctx["seed"], ctx["jobs"], ctx["nproc"], ctx["build_type"],
        ctx["compiler"], ctx["commit"]))
    print("   passes=%d (timed %d)  tail=p%.1f  attempted=%d  failed=%d  "
          "fail_ratio=%g" % (
        record["passes"], record["passes_timed"], record["pass_ms_tail_percentile"],
        record["attempted"], record["failed"], record["fail_ratio"]))
    for name, value in metrics.items():
        print("   %-28s %14.4f %s" % (name, value, units[name]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input seed (default %d; keep %d for verifying a "
                         "claim)" % (DEFAULT_SEED, HELDOUT_SEED))
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    jobs = min(len(os.sched_getaffinity(0)), 4)
    units = dict(END_TO_END + per_layer_names())
    try:
        build(jobs)
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        attempted = failed = 0
        combined = {}
        for w in workloads:
            record, metrics, tally = run_workload(w, args.seed, args.seconds,
                                                  args.trace, jobs)
            print_table(w, record, metrics, units)
            attempted += tally.attempted
            failed += tally.failed
            for name, value in metrics.items():
                key = name if len(workloads) == 1 else "%s.%s" % (w, name)
                combined[key] = {"value": value, "unit": units[name]}
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error: %s" % e)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
