#!/usr/bin/env python3
"""perfbench: the simulator's host-time benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Builds perfbench/CMakeLists.txt (the
simulator's sources plus the runner) into .bench_build/release and, with
-pg, into .bench_build/pg, then runs one workload for S seconds on one
thread, one simulation at a time.

--trace 0 prints the end-to-end metrics, medians over the run's
repetitions.  --trace 1 prints the per-layer metrics from two passes that
both read the program from outside: a trace pass (repetitions alternating
between untraced and traced with an in-memory obs::TraceSession) and a
profile pass (the -pg build, its gprof flat profile bucketed by namespace,
perfbench/layers.py).

Every run checks the simulator's output (perfbench/workloads.json has the
bands) and prints a digest of every simulated statistic; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  The exit code is non-zero when the output check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import layers  # noqa: E402

CONFIG = json.load(open(os.path.join(HERE, "workloads.json")))
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(tree, flags):
    """Configures (once) and builds one tree; returns the runner's path."""
    out = os.path.join(BUILD, tree)
    log_path = os.path.join(BUILD, tree + ".log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen + flags)
    steps.append(["cmake", "--build", out, "-j", "4"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build of the %s tree failed (log: %s)" % (tree, log_path))
    return os.path.join(out, "perfbench_runner")


def run_binary(binary, args, cwd=ROOT):
    try:
        p = subprocess.run([binary] + args, cwd=cwd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("runner timed out: %s" % " ".join(args))
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("runner exited with %d" % p.returncode)
    return json.loads(p.stdout)


def median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def sim_value(sim, name, field="value"):
    m = sim.get(name)
    return float(m.get(field, 0.0)) if m else 0.0


def fields_done(sim):
    return sim_value(sim, "io.write.operations") + sim_value(sim, "io.read.operations")


def output_check(workload, run):
    """Problems that make the run incorrect: the runner's own verdict plus
    the simulated-bandwidth band of workloads.json."""
    problems = []
    if not run["correct"]:
        problems = ["runner: " + p for p in run["problems"]] or ["runner: run incorrect"]
    write = sim_value(run["sim"], "perfbench.write_gib_s")
    read = sim_value(run["sim"], "perfbench.read_gib_s")
    for name, spec in CONFIG["workloads"][workload]["band"].items():
        got = (write + read) / spec["engines"] if name == "aggregate_per_engine" else \
            {"write": write, "read": read}[name]
        lo, hi = spec["reference"] * (1 - spec["tolerance"]), spec["reference"] * (1 + spec["tolerance"])
        if not lo <= got <= hi:
            problems.append("simulated %s %.6g GiB/s outside [%.6g, %.6g]" % (name, got, lo, hi))
    return problems


def print_digest(run):
    sim = run["sim"]
    canon = json.dumps(sim, sort_keys=True, separators=(",", ":"))
    print("simulated statistics (%d), sha256 %s" % (len(sim), hashlib.sha256(canon.encode()).hexdigest()))
    for name in sorted(sim):
        print("  %-36s %s" % (name, json.dumps(sim[name], sort_keys=True)))


def end_to_end(run):
    u = run["untraced"]
    fields = fields_done(run["sim"])
    per_rep_rate = [fields / (s + w) for s, w in zip(u["setup_s"], u["wall_s"])]
    return {
        "fields_per_s": (median(per_rep_rate), "1/s"),
        "wall_s": (median(u["wall_s"]), "s"),
        "setup_s": (median(u["setup_s"]), "s"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
    }


def profile_pass(binary, workload, seed, seconds):
    """Runs the -pg runner in a scratch directory and buckets its profile."""
    work = os.path.join(BUILD, "profile", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                  "--seconds", repr(seconds)], cwd=work)
        p = subprocess.run(["gprof", "-b", "-p", binary, os.path.join(work, "gmon.out")],
                           capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            fail("gprof failed")
        rows = layers.parse_flat_profile(p.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run, rows


def per_layer(traced_run, prof_run, rows):
    """Per-layer metrics and each layer's share of the profiled self time.

    A layer's host self time is its gprof self time (perfbench/layers.py)
    per repetition of the profile pass.  -pg adds a call to libc's mcount to
    every function but leaves the functions' own code as it is, so self time
    stays comparable with the untraced build.  host.unattributed_s is the
    untraced run's median wall time minus the layers' self times: libc, the
    kernel and standard-library code; it can dip below zero when the host
    runs the profile pass slower than the trace pass."""
    sim = traced_run["sim"]
    u, t, spans = traced_run["untraced"], traced_run["traced"], traced_run["span_sim_s"]
    wall = median(u["wall_s"])
    reps = prof_run["reps"]
    buckets = layers.bucket(rows)
    profiled = sum(v for k, v in buckets.items() if k != "md5")
    shares = {k: v / profiled for k, v in buckets.items()} if profiled > 0 else {}

    def host(layer):
        return (buckets.get(layer, 0.0) / reps, "s")

    recompute = layers.self_seconds(rows, "nws::net::FlowScheduler::recompute_rates") / reps
    attributed = sum(v for k, v in buckets.items() if k not in ("md5", "unattributed")) / reps
    m = {
        "sim.events": (sim_value(sim, "sim.events_executed"), "count"),
        "sim.run_s": (median(u["run_s"]), "s"),
        "sim.host_self_s": host("sim"),
        "sim.makespan_s": (sim_value(sim, "perfbench.makespan_seconds"), "sim_s"),
        "net.flows": (sim_value(sim, "net.flows_completed"), "count"),
        "net.rate_recomputations": (sim_value(sim, "net.rate_recomputations"), "count"),
        "net.peak_flows": (sim_value(sim, "net.peak_concurrent_flows"), "count"),
        "net.host_self_s": host("net"),
        "net.recompute_host_s": (recompute, "s"),
        "net.flow_sim_s": (median(spans["flow"]), "sim_s"),
        "scm.host_self_s": host("scm"),
        "daos.cluster_build_s": (median(u["cluster_build_s"]), "s"),
        "daos.kv_ops": (sim_value(sim, "daos.kv_puts") + sim_value(sim, "daos.kv_gets"), "count"),
        "daos.array_ops": (
            sim_value(sim, "daos.array_writes") + sim_value(sim, "daos.array_reads"), "count"),
        "daos.op_retries": (sim_value(sim, "daos.op_retries"), "count"),
        "daos.transient_errors": (sim_value(sim, "daos.transient_errors"), "count"),
        "daos.host_self_s": host("daos"),
        "daos.kv_sim_s": (median(spans["kv"]), "sim_s"),
        "daos.array_sim_s": (median(spans["array"]), "sim_s"),
        "fdb.write_sim_p50_ms": (1e3 * sim_value(sim, "io.write.latency_seconds", "p50"), "sim_ms"),
        "fdb.write_sim_p99_ms": (1e3 * sim_value(sim, "io.write.latency_seconds", "p99"), "sim_ms"),
        "fdb.read_sim_p50_ms": (1e3 * sim_value(sim, "io.read.latency_seconds", "p50"), "sim_ms"),
        "fdb.read_sim_p99_ms": (1e3 * sim_value(sim, "io.read.latency_seconds", "p99"), "sim_ms"),
        "fdb.write_gib_s": (sim_value(sim, "perfbench.write_gib_s"), "sim_GiB/s"),
        "fdb.read_gib_s": (sim_value(sim, "perfbench.read_gib_s"), "sim_GiB/s"),
        "fdb.retries": (sim_value(sim, "io.write.retries") + sim_value(sim, "io.read.retries"), "count"),
        "fdb.host_self_s": host("fdb"),
        "dfs.meta_ops": (sim_value(sim, "dfs.posix.meta_ops"), "count"),
        "dfs.mount_failures": (sim_value(sim, "dfs.mount_failures"), "count"),
        "dfs.posix.meta_wait_sim_p99_ms": (
            1e3 * sim_value(sim, "dfs.posix.meta_wait_seconds", "p99"), "sim_ms"),
        "dfs.posix.rmw_reads": (sim_value(sim, "dfs.posix.rmw_reads"), "count"),
        "dfs.op_sim_s": (median(spans["dfs"]), "sim_s"),
        "dfs.host_self_s": host("dfs"),
        "harness.spawn_s": (median(u["spawn_s"]), "s"),
        "harness.collect_s": (median(u["collect_s"]), "s"),
        "harness.payload_host_s": host("payload"),
        "harness.host_self_s": host("harness"),
        "common.md5_host_s": host("md5"),
        "common.host_self_s": host("common"),
        "codec.host_self_s": host("codec"),
        "fault.retry_backoff_sim_s": (median(spans["retry_backoff"]), "sim_s"),
        "fault.host_self_s": host("fault"),
        "obs.fold_s": (median(u["fold_s"]), "s"),
        "obs.trace_overhead_pct": (100.0 * (median(t["wall_s"]) / wall - 1.0), "%"),
        "obs.host_self_s": host("obs"),
        "host.user_s": (median(u["user_s"]), "cpu_s"),
        "host.sys_s": (median(u["sys_s"]), "cpu_s"),
        "host.minor_faults": (median(u["minor_faults"]), "count"),
        "host.unattributed_s": (wall - attributed, "s"),
    }
    return m, shares


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    ap.add_argument("--seed", type=int, default=CONFIG["seeds"]["default"])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("simulator sources not found at %s/src; run from a repository checkout" % ROOT)

    release = build("release", [])
    profiled = build("pg", ["-DCMAKE_CXX_FLAGS=-pg", "-DCMAKE_EXE_LINKER_FLAGS=-pg"])
    seed_args = ["--workload", args.workload, "--seed", str(args.seed)]
    started = time.monotonic()
    if args.trace:
        # Half the time to the trace pass, half to the profile pass.
        half = args.seconds / 2
        run = run_binary(release, seed_args + ["--seconds", repr(half), "--trace"])
        prof_run, rows = profile_pass(profiled, args.workload, args.seed, half)
        if prof_run["sim"] != run["sim"]:
            run["correct"] = False
            run["problems"].append("the -pg build simulated different results")
        metrics, shares = per_layer(run, prof_run, rows)
        print("profile pass: %d repetitions; share of profiled self time by layer:"
              % prof_run["reps"])
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if layer == "md5":  # a subset of common
                continue
            print("  %-14s %6.2f%%" % (layer, 100.0 * share))
        print("  top functions by self time:")
        for seconds, _calls, name in sorted(rows, key=lambda r: -r[0])[:12]:
            print("  %7.2f s  %-12s %s" % (seconds, layers.layer_of(name), name[:110]))
    else:
        run = run_binary(release, seed_args + ["--seconds", repr(args.seconds)])
        metrics = end_to_end(run)

    print("workload %s, seed %d, %d repetitions (%s), %.1f s"
          % (args.workload, args.seed, run["reps"],
             "half untraced, half traced" if args.trace else "untraced",
             time.monotonic() - started))
    print_digest(run)
    problems = output_check(args.workload, run)
    print("output check: %s" % ("ok" if not problems else "FAILED"))
    for p in problems:
        print("  " + p)
    if run["correct"]:
        for p in run["problems"]:  # failed operations the check does not reject
            print("  note: " + p)
    print("operations: %d attempted, %d failed" % (run["attempted"], run["failed"]))
    samples = len(run["untraced"]["wall_s"])
    if args.trace:
        print("host timings: medians of %d untraced repetitions; host self times: per "
              "repetition of the profile pass" % samples)
    for name, (value, unit) in metrics.items():
        note = " (median of %d)" % samples if unit == "s" and not args.trace else ""
        print("  %-32s %.6g %s%s" % (name, value, unit, note))

    result = {
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
