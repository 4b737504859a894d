#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark (CMake, Release) into .bench_build/; later calls rebuild only what
changed. The benchmark's last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the traced run
also writes its spans and ledger to .bench_build/ledger/.

Exit status: the benchmark's (0 = correct, 1 = a correctness check failed),
2 for bad arguments, 3 if the build failed, 4 on a timeout.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
LEDGER_DIR = os.path.join(BUILD_ROOT, "ledger")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_binary(args, capture):
    """Runs the benchmark binary; returns (exit status, stdout or None)."""
    try:
        proc = subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4, None
    out = proc.stdout.decode() if capture else None
    return proc.returncode, out


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    """Smoke of every workload, traced and untraced, on two seeds, checking
    the result lines, the ledger's counts against the metrics registry,
    the wall shares, and the spans."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    shares = ["sim.wall_share", "net.wall_share", "gcs.wall_share",
              "core.wall_share", "obs.wall_share"]
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)
        return cond

    os.makedirs(LEDGER_DIR, exist_ok=True)
    ledgers = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            metric_sets = []
            for seed in (1, 2):
                label = "%s trace=%d seed=%d" % (name, trace, seed)
                status, out = run_binary(
                    ["--workload", name, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--smoke", "--out-dir", LEDGER_DIR],
                    capture=True)
                result = last_json(out) if out else None
                if not check(status == 0 and result is not None,
                             label + ": exit status %d" % status):
                    continue
                check(result["correct"] and result["failed"] == 0,
                      label + ": correct=%s failed=%s" % (result["correct"], result["failed"]))
                check(result["attempted"] >= 1, label + ": nothing attempted")
                metrics = result["metrics"]
                metric_sets.append(sorted(metrics))
                got = {k: v["unit"] for k, v in metrics.items()}
                check(got == expect[trace], label + ": metric names/units differ "
                      "from BENCHMARK.json")
                if trace == 0:
                    check(all(v["value"] > 0 for v in metrics.values()),
                          label + ": an end-to-end metric is not positive")
                    continue
                total = sum(metrics[s]["value"] for s in shares)
                check(total <= 1.0 and abs(total + metrics["other.wall_share"]["value"] - 1) < 1e-9,
                      label + ": wall shares sum to %.3f" % total)
                stem = os.path.join(LEDGER_DIR, "%s-%d" % (name, seed))
                with open(stem + ".ledger.json") as f:
                    ledger = json.load(f)
                events = sum(c["sends"] for c in ledger["message_events_by_type"].values())
                check(events == ledger["registry"]["net.messages_sent"],
                      label + ": %d MessageEvents vs net.messages_sent %d"
                      % (events, ledger["registry"]["net.messages_sent"]))
                check(metrics["net.sends"]["value"] == ledger["registry"]["net.messages_sent"],
                      label + ": net.sends differs from the registry")
                heartbeats = ledger["message_events_by_type"].get("gcs.heartbeat", {}).get("sends", 0)
                check(metrics["gcs.heartbeats"]["value"] == heartbeats,
                      label + ": gcs.heartbeats differs from the MessageEvent count")
                with open(stem + ".spans.json") as f:
                    spans = json.load(f)
                check(all(s["parent"] < s["id"] and s["start_ns"] <= s["end_ns"]
                          for s in spans) and spans[0]["parent"] == -1,
                      label + ": malformed spans")
                if seed == 1:
                    ledgers[name] = {k: v["value"] for k, v in metrics.items()}
                    ledgers[name]["run_wall_s"] = ledger["run_wall_s"]
            check(len(metric_sets) == 2 and metric_sets[0] == metric_sets[1],
                  "%s trace=%d: seeds 1 and 2 give different metric sets" % (name, trace))
            print("self-test %-12s trace=%d done" % (name, trace), file=sys.stderr)
    # The contrasts the workloads were designed for.
    if all(w in ledgers for w in ("paper", "dense", "sharded_gray")):
        paper, dense, gray = ledgers["paper"], ledgers["dense"], ledgers["sharded_gray"]
        check(paper["net.heartbeat_share"] > dense["net.heartbeat_share"],
              "net.heartbeat_share is not higher on paper than on dense")
        check(dense["core.selections"] / dense["run_wall_s"]
              > paper["core.selections"] / paper["run_wall_s"],
              "core.selections per wall-second is not higher on dense than on paper")
        check(gray["obs.snapshots"] > 0, "no telemetry snapshots on sharded_gray")
        for other in set(ledgers) - {"sharded_gray"}:
            check(ledgers[other]["gcs.retransmissions"] == 0 and ledgers[other]["obs.snapshots"] == 0,
                  other + ": retransmissions or snapshots outside sharded_gray")
    for f in failures:
        print("SELF-TEST FAILED: " + f, file=sys.stderr)
    print("self-test: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 3
    if args.self_test:
        return self_test()
    os.makedirs(LEDGER_DIR, exist_ok=True)
    names = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
    worst = 0
    for name in names:
        if len(names) > 1:
            print("## " + name, flush=True)
        status, _ = run_binary(["--workload", name, "--seed", args.seed,
                                "--seconds", args.seconds, "--trace", args.trace,
                                "--out-dir", LEDGER_DIR], capture=False)
        worst = max(worst, status)
    return worst


if __name__ == "__main__":
    sys.exit(main())
