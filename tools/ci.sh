#!/usr/bin/env bash
# Tier-1 verification, three ways: a warnings-as-errors build, an ASan+UBSan
# build (full suite each), and a ThreadSanitizer build running the sharded
# engine candidates — then static analysis (faaslint R1-R9, clang-tidy when
# available) and determinism smoke checks. Run from anywhere; build trees
# live under the repo root so they are covered by .gitignore.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "== Tier 1: plain build (-Werror, -Wshadow -Wconversion on src/common) =="
cmake -B "$repo/build" -S "$repo" -DFAASCOST_WERROR=ON
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

echo
echo "== Tier 1: sanitized build (ASan + UBSan + float-divide-by-zero/cast-overflow) =="
cmake -B "$repo/build-asan" -S "$repo" -DFAASCOST_SANITIZE=ON
cmake --build "$repo/build-asan" -j "$jobs"
ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs"

echo
echo "== Chaos suites, sanitized (focused re-run) =="
ctest --test-dir "$repo/build-asan" -R 'chaos|host_faults|faults_test' \
  --output-on-failure -j "$jobs"

echo
echo "== Tier 1: ThreadSanitizer build (sharded-engine concurrency readiness) =="
# TSan is incompatible with ASan, so it gets its own tree. The fleet and
# workflow chaos/engine suites are the sharding candidates R9 audits; they
# must already be data-race-free under TSan before any sharding lands.
cmake -B "$repo/build-tsan" -S "$repo" -DFAASCOST_SANITIZE=thread
cmake --build "$repo/build-tsan" -j "$jobs"
ctest --test-dir "$repo/build-tsan" \
  -R 'fleet|workflow|chaos|host_faults|faults_test' \
  --output-on-failure -j "$jobs"

echo
echo "== faaslint: semantic analysis (R1-R9) over the repo tree =="
# Two full runs: the byte-compare proves the cross-file index and rule
# ordering are deterministic. The report is archived at the repo root next
# to BENCH_micro.json so lint state travels with the perf artifacts.
lint_tmp="$(mktemp -d)"
"$repo/build/tools/faaslint/faaslint" --root "$repo" --json > "$lint_tmp/repo_a.json"
"$repo/build/tools/faaslint/faaslint" --root "$repo" --json > "$lint_tmp/repo_b.json"
cmp "$lint_tmp/repo_a.json" "$lint_tmp/repo_b.json"
python3 -m json.tool "$lint_tmp/repo_a.json" > /dev/null
cp "$lint_tmp/repo_a.json" "$repo/LINT_report.json"
"$repo/build/tools/faaslint/faaslint" --root "$repo"
echo "two analyzer runs byte-identical; report archived at LINT_report.json."

echo
echo "== faaslint: suppression hygiene (--check-allowlist) =="
"$repo/build/tools/faaslint/faaslint" --root "$repo" --check-allowlist

echo
echo "== faaslint: fixture corpus vs golden findings =="
# The fixtures intentionally violate every rule, so faaslint exits 1 here;
# what must match exactly is the JSON report. --r9-all because fixture paths
# are bare file names, outside the engine directories R9 scopes to.
set +e
"$repo/build/tools/faaslint/faaslint" --json --r9-all \
  --relative-to "$repo/tests/faaslint/fixtures" \
  --allowlist "$repo/tests/faaslint/fixtures/allowlist.txt" \
  "$repo/tests/faaslint/fixtures" > "$lint_tmp/findings.json"
lint_rc=$?
set -e
if [ "$lint_rc" -ne 1 ]; then
  echo "faaslint: expected exit 1 on fixtures, got $lint_rc" >&2
  exit 1
fi
python3 -m json.tool "$lint_tmp/findings.json" > /dev/null
cmp "$lint_tmp/findings.json" "$repo/tests/faaslint/golden_findings.json"
rm -rf "$lint_tmp"
echo "fixture findings match tests/faaslint/golden_findings.json byte-for-byte."

echo
echo "== clang-tidy (skips gracefully when the binary is absent) =="
cmake --build "$repo/build" --target lint-tidy

echo
echo "== Failure benches: --json smoke =="
"$repo/build/bench/bench_cost_of_failure" --json | python3 -m json.tool > /dev/null
"$repo/build/bench/bench_cost_of_chaos" --json | python3 -m json.tool > /dev/null
"$repo/build/bench/bench_cost_of_workflows" --json | python3 -m json.tool > /dev/null
"$repo/build/bench/bench_cost_of_network" --json | python3 -m json.tool > /dev/null
"$repo/build/tools/faascost" failures --json | python3 -m json.tool > /dev/null
"$repo/build/tools/faascost" chaos --json | python3 -m json.tool > /dev/null
echo "all six emitted valid JSON."

echo
echo "== Workflow engine: determinism smoke + JSON schema sanity =="
wf_tmp="$(mktemp -d)"
wf_args=(workflows --archetype fanout --hops 6 --quorum 4 --workflows 120
         --rate 0.08 --retries 3 --zones 3 --outage-zone 1 --outage-start-s 5
         --outage-seconds 10 --hedge-ms 600 --audit-level full --seed 7 --json)
"$repo/build/tools/faascost" "${wf_args[@]}" > "$wf_tmp/wf_a.json"
"$repo/build/tools/faascost" "${wf_args[@]}" > "$wf_tmp/wf_b.json"
cmp "$wf_tmp/wf_a.json" "$wf_tmp/wf_b.json"
python3 - "$wf_tmp/wf_a.json" <<'PYEOF'
import json, sys
d = json.load(open(sys.argv[1]))
required = ["platform", "archetype", "seed", "succeeded", "failed",
            "dispatched_attempts", "hedges", "hedge_losers", "dead_letters",
            "circuit_open", "breaker_trips", "usd_attempts", "usd_transitions",
            "usd_dlq", "usd_total", "usd_useful", "usd_wasted",
            "cost_per_successful_workflow", "audit_checks"]
missing = [k for k in required if k not in d]
assert not missing, f"faascost workflows --json missing keys: {missing}"
assert abs(d["usd_total"] - (d["usd_attempts"] + d["usd_transitions"] + d["usd_dlq"])) < 1e-9
assert abs(d["usd_total"] - (d["usd_useful"] + d["usd_wasted"])) < 1e-9
PYEOF
# Zero-DAG runs consume no randomness: any two seeds agree on every field
# except the echoed seed itself, and carry exactly $0.
"$repo/build/tools/faascost" workflows --workflows 0 --seed 1 --json > "$wf_tmp/wf_z1.json"
"$repo/build/tools/faascost" workflows --workflows 0 --seed 999 --json > "$wf_tmp/wf_z2.json"
python3 - "$wf_tmp/wf_z1.json" "$wf_tmp/wf_z2.json" <<'PYEOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
a.pop("seed"), b.pop("seed")
assert a == b, "zero-DAG runs differ beyond the echoed seed"
assert a["usd_total"] == 0 and a["dispatched_attempts"] == 0
PYEOF
rm -rf "$wf_tmp"
echo "same-seed runs byte-identical; zero-DAG runs seed-independent and \$0."

echo
echo "== Network: determinism smoke + cost-decomposition schema sanity =="
# Two seeds, each run twice through the zonal-outage scenario: the JSON
# (which only prints after the bit-for-bit telemetry reconciliation gate)
# must be byte-identical across repeats, and the decomposition must close.
net_tmp="$(mktemp -d)"
for seed in 5 17; do
  net_args=(network --requests 4000 --functions 60 --seconds 300 --zones 3
            --req-kb 16 --resp-kb 64 --rate 0.05 --outage-zone 0
            --outage-start-s 30 --outage-seconds 120 --seed "$seed" --json)
  "$repo/build/tools/faascost" "${net_args[@]}" > "$net_tmp/net_a$seed.json"
  "$repo/build/tools/faascost" "${net_args[@]}" > "$net_tmp/net_b$seed.json"
  cmp "$net_tmp/net_a$seed.json" "$net_tmp/net_b$seed.json"
done
python3 - "$net_tmp/net_a5.json" <<'PYEOF'
import json, sys
d = json.load(open(sys.argv[1]))
required = ["platform", "zones", "zones_per_region", "seed", "attempts",
            "compute_usd", "request_fee_usd", "transfer", "storage_ops",
            "net_transfers", "rerouted_transfers", "detour_usd",
            "network_usd", "total_usd", "network_share", "reconciled"]
missing = [k for k in required if k not in d]
assert not missing, f"faascost network --json missing keys: {missing}"
classes = ["intra_zone", "inter_zone", "inter_region", "internet_egress",
           "internet_ingress"]
assert sorted(d["transfer"]) == sorted(classes), d["transfer"].keys()
xfer = sum(d["transfer"][c]["usd"] for c in classes)
assert abs(d["network_usd"] - (xfer + d["storage_ops"]["usd"])) < 1e-9
assert abs(d["total_usd"]
           - (d["compute_usd"] + d["request_fee_usd"] + d["network_usd"])) < 1e-9
assert d["reconciled"] is True
assert d["rerouted_transfers"] > 0, "zone-0 outage produced no detours"
PYEOF
rm -rf "$net_tmp"
echo "same-seed network runs byte-identical; decomposition closes; detours seen."

echo
echo "== Platform monitor smoke: span trace + co-tenant host, determinism =="
# Two seeds and two host sizes, each run twice: the span trace (platform
# requests and sandboxes plus the co-tenant sched.tenants tracks) and both
# JSONL exports must be byte-identical across repeats, and trace.json must
# parse. 2 co-tenants on the host's 4 cores never contend; 6 do, so the host
# sim's contended ticks run too.
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
for cotenants in 2 6; do
  for seed in 1 42; do
    for run in a b; do
      "$repo/build/tools/faascost" monitor --sim platform --cotenants "$cotenants" \
        --out "$obs_tmp/pmon_$run$seed" --rps 5 --seconds 60 --seed "$seed" > /dev/null
    done
    for f in trace.json timeseries.jsonl alerts.jsonl; do
      cmp "$obs_tmp/pmon_a$seed/$f" "$obs_tmp/pmon_b$seed/$f"
    done
    python3 -m json.tool "$obs_tmp/pmon_a$seed/trace.json" > /dev/null
  done
done
echo "trace.json parses; repeated runs are byte-identical."

echo
echo "== Fleet monitor smoke: windowed telemetry determinism + schema sanity =="
# Two seeds, each run twice: the span trace and JSONL exports must be
# byte-identical across repeats (profile.json is wall-clock-bearing and
# exempt — parse-checked only).
for seed in 7 11; do
  "$repo/build/tools/faascost" monitor --out "$obs_tmp/mon_a$seed" \
    --seed "$seed" --requests 6000 --seconds 1200 > /dev/null
  "$repo/build/tools/faascost" monitor --out "$obs_tmp/mon_b$seed" \
    --seed "$seed" --requests 6000 --seconds 1200 > /dev/null
  for f in trace.json timeseries.jsonl alerts.jsonl; do
    cmp "$obs_tmp/mon_a$seed/$f" "$obs_tmp/mon_b$seed/$f"
  done
done
python3 - "$obs_tmp/mon_a7/timeseries.jsonl" <<'PYEOF'
import json, sys
required = ["window", "start_us", "end_us", "arrivals", "dispatches",
            "cold_starts", "completions", "failures", "retries",
            "cold_start_rate", "p50_ms", "p95_ms", "p99_ms", "billed_usd",
            "waste_usd_total", "queue_depth_max", "avg_concurrency"]
rows = [json.loads(line) for line in open(sys.argv[1])]
assert rows, "timeseries.jsonl is empty"
for row in rows:
    missing = [k for k in required if k not in row]
    assert not missing, f"timeseries.jsonl missing keys: {missing}"
assert [r["window"] for r in rows] == sorted(r["window"] for r in rows)
PYEOF
# The profiler path still runs and its trace parses, but is excluded from the
# byte-compares above (phase timings are wall-clock).
"$repo/build/tools/faascost" monitor --out "$obs_tmp/mon_prof" \
  --seed 7 --requests 6000 --seconds 1200 --profile-engine > /dev/null
python3 -m json.tool "$obs_tmp/mon_prof/profile.json" > /dev/null
echo "monitor exports byte-identical across repeats; schema and profile OK."

echo
echo "== Integrity: resume equivalence (straight digest == checkpoint+resume) =="
digest_of() {
  python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["state_digest"])' "$1"
}
for seed in 1 2 3; do
  "$repo/build/tools/faascost" audit --sim platform --audit-level full \
    --seconds 20 --seed "$seed" --json > "$obs_tmp/p_straight.json"
  "$repo/build/tools/faascost" audit --sim platform --audit-level full \
    --seconds 20 --seed "$seed" \
    --checkpoint "$obs_tmp/p_cp.json" --checkpoint-every 7 --json > /dev/null
  "$repo/build/tools/faascost" audit --sim platform --audit-level full \
    --seed "$seed" --resume "$obs_tmp/p_cp.json" --json > "$obs_tmp/p_resumed.json"
  digest_of "$obs_tmp/p_straight.json" > "$obs_tmp/p_a"
  digest_of "$obs_tmp/p_resumed.json" > "$obs_tmp/p_b"
  cmp "$obs_tmp/p_a" "$obs_tmp/p_b"

  # The multi-concurrency engine: the last checkpoint holds dead sandboxes
  # and resumes through the queue pull, random routing and scale-down, with
  # an in-run scan (live-sandbox list, CPU-phase counts) every 64 events.
  gcp=(--sim platform --platform gcp --audit-level full --scan-cadence 64
    --seconds 20 --seed "$seed")
  "$repo/build/tools/faascost" audit "${gcp[@]}" --json > "$obs_tmp/g_straight.json"
  "$repo/build/tools/faascost" audit "${gcp[@]}" \
    --checkpoint "$obs_tmp/g_cp.json" --checkpoint-every 7 --json > /dev/null
  "$repo/build/tools/faascost" audit "${gcp[@]}" \
    --resume "$obs_tmp/g_cp.json" --json > "$obs_tmp/g_resumed.json"
  digest_of "$obs_tmp/g_straight.json" > "$obs_tmp/g_a"
  digest_of "$obs_tmp/g_resumed.json" > "$obs_tmp/g_b"
  cmp "$obs_tmp/g_a" "$obs_tmp/g_b"

  "$repo/build/tools/faascost" audit --sim fleet --audit-level full \
    --requests 3000 --functions 50 --seconds 300 --seed "$seed" --json \
    > "$obs_tmp/f_straight.json"
  "$repo/build/tools/faascost" audit --sim fleet --audit-level full \
    --requests 3000 --functions 50 --seconds 300 --seed "$seed" \
    --checkpoint "$obs_tmp/f_cp.json" --checkpoint-every 60 --json > /dev/null
  "$repo/build/tools/faascost" audit --sim fleet --audit-level full \
    --requests 3000 --functions 50 --seconds 300 --seed "$seed" \
    --resume "$obs_tmp/f_cp.json" --json > "$obs_tmp/f_resumed.json"
  digest_of "$obs_tmp/f_straight.json" > "$obs_tmp/f_a"
  digest_of "$obs_tmp/f_resumed.json" > "$obs_tmp/f_b"
  cmp "$obs_tmp/f_a" "$obs_tmp/f_b"

  # The fleet with its client breaker on: every checkpoint carries
  # per-function breaker state through the archive's sorted-key walk. Two
  # hosts that crash every ~20 s fail enough attempts to trip breakers
  # (seeds 1 and 2 checkpoint with trips, seed 1 with a breaker open).
  breaker=(--sim fleet --audit-level full --requests 3000 --functions 50
    --seconds 300 --breaker-threshold 2 --hosts 2 --mtbf-s 20 --mttr-s 10
    --graceful 0 --seed "$seed")
  "$repo/build/tools/faascost" audit "${breaker[@]}" --json > "$obs_tmp/b_straight.json"
  "$repo/build/tools/faascost" audit "${breaker[@]}" \
    --checkpoint "$obs_tmp/b_cp.json" --checkpoint-every 60 --json > /dev/null
  "$repo/build/tools/faascost" audit "${breaker[@]}" \
    --resume "$obs_tmp/b_cp.json" --json > "$obs_tmp/b_resumed.json"
  digest_of "$obs_tmp/b_straight.json" > "$obs_tmp/b_a"
  digest_of "$obs_tmp/b_resumed.json" > "$obs_tmp/b_b"
  cmp "$obs_tmp/b_a" "$obs_tmp/b_b"
done
echo "platform (aws, gcp) and fleet (breaker off, on) digests identical across seeds 1-3."

# A malformed checkpoint must be the dedicated artifact-error exit (3), not a
# crash or a silent fresh run.
echo "not a checkpoint" > "$obs_tmp/garbage.json"
set +e
"$repo/build/tools/faascost" audit --sim platform \
  --resume "$obs_tmp/garbage.json" > /dev/null 2>&1
audit_rc=$?
set -e
if [ "$audit_rc" -ne 3 ]; then
  echo "audit: expected exit 3 on a malformed checkpoint, got $audit_rc" >&2
  exit 1
fi
echo "malformed checkpoint rejected with exit 3."

# So must a checkpoint with a valid header whose state blob lost a key: one
# tampered state per sim, rejected by the state loader itself (the stderr
# check rules out an earlier header or config mismatch).
for sim in platform fleet; do
  if [ "$sim" = platform ]; then
    flags=(--sim platform --audit-level full --seconds 20 --seed 1)
    at=7
  else
    flags=(--sim fleet --audit-level full --requests 3000 --functions 50
      --seconds 300 --seed 1)
    at=60
  fi
  "$repo/build/tools/faascost" audit "${flags[@]}" \
    --checkpoint "$obs_tmp/tamper_cp.json" --checkpoint-at "$at" > /dev/null
  python3 - "$obs_tmp/tamper_cp.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
del doc["state"]["now"]
json.dump(doc, open(sys.argv[1], "w"))
PYEOF
  set +e
  "$repo/build/tools/faascost" audit "${flags[@]}" \
    --resume "$obs_tmp/tamper_cp.json" > /dev/null 2> "$obs_tmp/tamper_err.txt"
  audit_rc=$?
  set -e
  if [ "$audit_rc" -ne 3 ] || ! grep -q "missing key 'now'" "$obs_tmp/tamper_err.txt"; then
    echo "audit --sim $sim: expected exit 3 naming the missing state key, got" \
      "$audit_rc: $(cat "$obs_tmp/tamper_err.txt")" >&2
    exit 1
  fi
done
# And platform states holding a value that the loader's range checks reject
# before the run could use it (the state digest alone would not, since a
# tampered file can carry a recomputed one): an event naming a sandbox that
# does not exist, and a breaker state naming none of closed, open and
# half-open. Each case is "<path in state> <value>|<expected stderr>".
"$repo/build/tools/faascost" audit --sim platform --audit-level full --seconds 20 \
  --seed 1 --checkpoint "$obs_tmp/platform_cp.json" --checkpoint-at 7 > /dev/null
for tamper in "events 0 sb 1000000|event sb 1000000" "breaker state 7|breaker state 7"; do
  # Unquoted on purpose: the path steps and the value are separate arguments.
  python3 - "$obs_tmp/platform_cp.json" "$obs_tmp/tamper_cp.json" ${tamper%%|*} <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
node = doc["state"]
*path, key, value = sys.argv[3:]
for step in path:
    node = node[int(step)] if isinstance(node, list) else node[step]
node[key] = int(value)
json.dump(doc, open(sys.argv[2], "w"))
PYEOF
  set +e
  "$repo/build/tools/faascost" audit --sim platform --audit-level full --seconds 20 \
    --seed 1 --resume "$obs_tmp/tamper_cp.json" > /dev/null 2> "$obs_tmp/tamper_err.txt"
  audit_rc=$?
  set -e
  if [ "$audit_rc" -ne 3 ] || ! grep -q "${tamper#*|}" "$obs_tmp/tamper_err.txt"; then
    echo "audit --sim platform: expected exit 3 naming ${tamper#*|}, got" \
      "$audit_rc: $(cat "$obs_tmp/tamper_err.txt")" >&2
    exit 1
  fi
done
echo "tampered checkpoint state rejected with exit 3 on both sims (missing key, event sb, breaker state)."

echo
echo "== perfbench: correctness smoke (pinned counts and USD bits at seeds 7 and 1729) =="
# One short invocation per end-to-end workload and pinned seed (7, and the
# held-out 1729). run.py checks every pipeline run's counts and USD bit
# patterns against perfbench/pins.json, and its last stdout line reports
# "correct"; a change that moves a simulated result fails here, not only in
# the timed benchmark.
for seed in 7 1729; do
  for workload in fleet_chaos fleet_observed platform_topdown workflow_fanout; do
    last="$(python3 "$repo/perfbench/run.py" --workload "$workload" --seed "$seed" \
      --seconds 1 --trace 0 | tail -n 1 || true)"
    python3 - "$workload" "$seed" "$last" <<'PYEOF'
import json, sys
workload, seed, line = sys.argv[1], sys.argv[2], sys.argv[3]
try:
    correct = json.loads(line).get("correct") is True
except ValueError:
    correct = False
if not correct:
    sys.exit(f"perfbench {workload} seed {seed}: no correct result: {line[:400]}")
PYEOF
  done
done
echo "all four perfbench workloads correct at seeds 7 and 1729."

echo
echo "== Micro-bench: BENCH_micro.json + instrumented-overhead budget (<10%) =="
if [ -f "$repo/BENCH_micro.json" ]; then
  cp "$repo/BENCH_micro.json" "$obs_tmp/micro_prev.json"
fi
# Three independent processes; make_bench_micro takes the best median per
# benchmark. One process is one draw from the box's noise distribution
# (steal time, frequency drops) — noise only ever slows a run down, so the
# best of three is the stable estimate of the code's true cost.
for n in 1 2 3; do
  "$repo/build/bench/bench_micro_simulators" \
    --benchmark_filter='BM_PlatformSimThousandRequests|BM_HostSimSecond|BM_FleetSimDay' \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "$obs_tmp/micro.$n.json"
done
python3 "$repo/tools/make_bench_micro.py" \
  "$obs_tmp/micro.1.json" "$obs_tmp/micro.2.json" "$obs_tmp/micro.3.json" \
  "$repo/BENCH_micro.json"
python3 -m json.tool "$repo/BENCH_micro.json" > /dev/null
# Delta vs the previous artifact. CI boxes vary, so the gate here is loose
# (50%) — catches a catastrophic slowdown, not jitter; tighter comparisons
# are for like-for-like machines via `tools/bench_diff.py --threshold-pct`.
if [ -f "$obs_tmp/micro_prev.json" ]; then
  python3 "$repo/tools/bench_diff.py" --threshold-pct 50 \
    "$obs_tmp/micro_prev.json" "$repo/BENCH_micro.json"
fi
# Append this run to the perf trajectory (one compact JSONL row per CI run).
python3 - "$repo/BENCH_micro.json" "$repo/BENCH_history.jsonl" <<'PYEOF'
import datetime, json, sys
doc = json.load(open(sys.argv[1]))
row = {
    "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "host": doc.get("context", {}).get("host_name", ""),
    "benchmarks": {
        name: entry.get("ns_per_item", entry.get("ns_per_iter"))
        for name, entry in doc.get("benchmarks", {}).items()
    },
    "integrity_overhead": doc.get("integrity_overhead", {}),
}
with open(sys.argv[2], "a") as f:
    f.write(json.dumps(row, sort_keys=True) + "\n")
PYEOF
echo "appended run to BENCH_history.jsonl."

echo
echo "ci.sh: builds, tests, and lints green."
