#!/usr/bin/env python3
"""End-to-end benchmark for faascost, timed layer by layer.

    python3 perfbench/run.py --workload fleet_chaos --seed 7 --seconds 20 --trace 0

Builds the runner (perfbench/CMakeLists.txt) into .bench_build/, then runs
the workload's pipeline, from input generation to export, as a fixed-size
batch: once per fresh process, one process at a time, again and again for
--seconds of host time (at least three times). Each pipeline run generates
its input from --seed, so every run in one invocation does identical work.

Every run's simulated outputs are checked: the runner itself fails a run
on a failed reconciliation gate, audit or config check; this script
fails it when its counts or USD bit patterns differ from pins.json (for the
pinned seeds) or from the invocation's first run (for every seed).

--trace 0 prints the end-to-end metrics sim_req_per_s, setup_s and
peak_rss_mb, each the worst value over the invocation's runs (lowest
throughput, longest set-up, largest peak RSS). On a host shared with other
tenants the runs are slowed by memory-system contention most of the time and
run faster in spells when the neighbours idle; the slowest run lands in the
contended state unless the whole window is fast, so it moves less between
invocations than the median does (perfbench/README.md has the measured
sets). --trace 1 wraps every layer call
in a span, prints the per-layer metrics named in BENCHMARK.json as medians
over the runs (0 for a layer the workload never calls) and writes the
spans, with their self time, to .bench_build/traces/<workload>-seed<seed>.jsonl.

The last line of stdout is one JSON object: correct, attempted (pipeline
runs started), failed (runs whose checks failed) and metrics. The exit code
is 0 only when no run failed.
"""

import argparse
import json
import os
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RUNNER = BUILD_DIR / "faascost_e2e"
TRACE_DIR = BUILD_DIR / "traces"
PINS = BENCH_DIR / "pins.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ("fleet_chaos", "fleet_observed", "platform_topdown", "workflow_fanout")
BUILD_JOBS = "2"
MIN_RUNS = 3
# No new pipeline run starts once one could end past this many seconds, so
# an invocation with a warm build ends well inside three minutes.
HARD_LIMIT_S = 150.0


def fail(message):
    """Exits non-zero without printing a result line."""
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the runner up to date. Build output goes
    to stderr so stdout carries only the report; the compiler's temporary
    files stay inside the build tree."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"faascost sources not found at {ROOT / 'src'}; run from a full checkout")
    tmp_dir = BUILD_DIR / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "faascost_e2e",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def fingerprint():
    """The machine and build the numbers belong to; numbers from different
    fingerprints are not comparable."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = ""
    for line in (BUILD_DIR / "CMakeCache.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.partition("=")[2]
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "build_type": build_type}


def run_pipeline(workload, seed, traced, timeout):
    """One pipeline run in a fresh process. Returns (record, error)."""
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"exit {proc.returncode} without a result: {proc.stderr.strip()[-400:]}"
    if proc.returncode != 0 or not record.get("ok"):
        return record, record.get("error") or f"exit {proc.returncode}"
    return record, None


def usd_of(bits):
    return struct.unpack(">d", bytes.fromhex(bits))[0] if bits else None


def repeatable_outputs(record):
    """Everything a run's simulated work must reproduce exactly."""
    return {"counts": record["counts"],
            "usd_bits": {k: v["bits"] for k, v in record["usd"].items()},
            "engine_work": record["engine_work"], "digests": record["digests"]}


def pin_errors(record, pins):
    errors = []
    for name, want in pins["counts"].items():
        got = record["counts"].get(name)
        if got != want:
            errors.append(f"{name} = {got}, pinned {want}")
    for name, want in pins["usd_bits"].items():
        got = record["usd"].get(name, {}).get("bits")
        if got != want:
            errors.append(f"{name} = {usd_of(got)!r} ({got}), pinned {usd_of(want)!r} ({want})")
    return errors


def measure(workload, seed, seconds, traced):
    """Runs the pipeline until --seconds are used up. Returns the records of
    the runs that passed their checks and the number of runs attempted."""
    pins = json.loads(PINS.read_text(encoding="utf-8"))["workloads"][workload].get(str(seed))
    passed, attempted, reference, walls = [], 0, None, []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if walls:
            typical = statistics.median(walls)
            if elapsed + typical > HARD_LIMIT_S:
                break
            if attempted >= MIN_RUNS and elapsed + typical > seconds:
                break
        attempted += 1
        run_id = f"{workload}/seed{seed}/run{attempted}"
        began = time.monotonic()
        record, error = run_pipeline(workload, seed, traced,
                                     max(10.0, HARD_LIMIT_S + 20.0 - elapsed))
        walls.append(time.monotonic() - began)
        if error is None:
            outputs = repeatable_outputs(record)
            if reference is None:
                reference = outputs
            problems = pin_errors(record, pins) if pins else []
            if outputs != reference:
                problems.append("outputs differ from the first run with the same seed")
            if problems:
                error = "; ".join(problems)
        if error is None:
            record["run_id"] = run_id
            passed.append(record)
            print(f"{run_id}: pipeline {record['pipeline_ns'] / 1e9:.4f} s, "
                  f"set-up {record['setup_ns'] / 1e9:.6g} s, "
                  f"peak RSS {record['peak_rss_kb'] / 1024:.1f} MB")
        else:
            print(f"{run_id}: FAILED: {error}")
            print(f"run.py: {run_id} failed: {error}", file=sys.stderr)
    return passed, attempted


def self_ns(spans, index):
    """A span's duration minus the part of it its children cover (children
    are sequential, so their durations add)."""
    span = spans[index]
    covered = sum(s["end_ns"] - s["start_ns"] for s in spans if s["parent"] == index)
    return span["end_ns"] - span["start_ns"] - covered


def layer_value(record, name):
    """One per-layer metric of one run; 0 for a layer the workload never calls."""
    spans, work = record["spans"], record["work_units"]
    if name == "pipeline.ns_per_req":
        return record["pipeline_ns"] / work
    if name == "pipeline.self.ns_per_req":
        return self_ns(spans, 0) / work
    if name == "trace.overhead.ns_per_req":
        return record["trace_overhead_ns"] / work
    for suffix in (".ns_per_req", ".rss_mb"):
        if name.endswith(suffix):
            layer = name[: -len(suffix)]
            mine = [s for s in spans if s["name"] == layer]
            if suffix == ".ns_per_req":
                return sum(s["end_ns"] - s["start_ns"] for s in mine) / work
            return max((s["rss_kb"] for s in mine), default=0) / 1024
    return record["counts"].get(name, record["engine_work"].get(name, 0))


def end_to_end_values(record):
    return {"sim_req_per_s": record["work_units"] / (record["pipeline_ns"] / 1e9),
            "setup_s": record["setup_ns"] / 1e9,
            "peak_rss_mb": record["peak_rss_kb"] / 1024}


def write_spans(path, runs, header):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(header) + "\n")
        for record in runs:
            spans = record["spans"]
            for i, s in enumerate(spans):
                f.write(json.dumps({"run_id": record["run_id"], "id": i, "name": s["name"],
                                    "parent": s["parent"], "start_ns": s["start_ns"],
                                    "end_ns": s["end_ns"], "self_ns": self_ns(spans, i),
                                    "rss_kb": s["rss_kb"]}) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    machine = fingerprint()
    print(f"faascost e2e benchmark: {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s")
    print("fingerprint: " + json.dumps(machine))

    passed, attempted = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = attempted - len(passed)
    metrics = {}
    if passed:
        for m in wanted:
            if args.trace:
                values = [layer_value(r, m["name"]) for r in passed]
                # Exact counts repeat in every run; report them as the integers they are.
                value = values[0] if len(set(values)) == 1 else statistics.median(values)
            else:
                values = [end_to_end_values(r)[m["name"]] for r in passed]
                value = min(values) if m["better"] == "higher" else max(values)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            label = "median" if args.trace else "worst"
            print(f"  {m['name']:<34} {label:<6} {value:>14.6g} {m['unit']:<6}"
                  f" min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")
        if args.trace:
            path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
            write_spans(path, passed, {"workload": args.workload, "seed": args.seed,
                                       "fingerprint": machine, "runs": len(passed)})
            print(f"spans: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
