#!/usr/bin/env python3
"""Bad CLI flags are usage errors, never crashes or silent runs.

Usage: flag_errors_test.py <path to the faascost binary>

Runs faascost once per case below. Each rejected case must exit 1 with an
empty stdout (nothing ran), print a stderr line that starts with the
expected `<cmd>: --<flag>` prefix (or names the stray argument or unknown
command), and print no sanitizer `runtime error` text. Run under the
ASan/UBSan build, this also catches a return of the int64 overflow in a
seconds- or milliseconds-to-microseconds conversion.

Each accepted case passes every flag its subcommand reads in that mode and
must exit 0, so a reader that rejects a valid flag fails here too.
"""

import subprocess
import sys
import tempfile

HUGE = "10000000000000"  # Seconds; times 1e6 overflows int64 microseconds.
PAST_INT = "4294967299"  # 2^32 + 3: narrowed to int it would read as 3.

# (argv after the binary, expected start of one stderr line)
REJECTED = [
    (["chaos", "--seconds", HUGE], "chaos: --seconds"),
    (["chaos", "--seconds", "0"], "chaos: --seconds"),
    (["chaos", "--requests", "-5"], "chaos: --requests"),
    (["chaos", "--functions", "0"], "chaos: --functions"),
    (["monitor", "--out", "{out}", "--window", HUGE], "monitor: --window"),
    (["monitor", "--out", "{out}", "--seconds", HUGE], "monitor: --seconds"),
    (["monitor", "--out", "{out}", "--requests", "-5"], "monitor: --requests"),
    (["monitor", "--out", "{out}", "--sim", "platform", "--seconds", HUGE],
     "monitor: --seconds"),
    (["monitor", "--out", "{out}", "--sim", "platform", "--rps", "-1"], "monitor: --rps"),
    (["monitor", "--out", "{out}", "--sim", "platform", "--cotenants", "-1"],
     "monitor: --cotenants"),
    (["audit", "--sim", "fleet", "--seconds", HUGE], "audit: --seconds"),
    (["audit", "--sim", "fleet", "--requests", "0"], "audit: --requests"),
    (["audit", "--sim", "platform", "--seconds", HUGE], "audit: --seconds"),
    (["audit", "--sim", "platform", "--checkpoint", "{out}/cp.json",
      "--checkpoint-every", HUGE], "audit: --checkpoint-every"),
    (["audit", "--sim", "platform", "--checkpoint", "{out}/cp.json",
      "--checkpoint-at", HUGE], "audit: --checkpoint-at"),
    (["cost", "--requests", "0"], "cost: --requests"),
    (["cost", "--requests", "-5"], "cost: --requests"),
    (["failures", "--rps", "-1"], "failures: --rps"),
    (["failures", "--seconds", "0"], "failures: --seconds"),
    (["failures", "--seconds", HUGE], "failures: --seconds"),
    (["failures", "--timeout-ms", "-1"], "failures: --timeout-ms"),
    (["network", "--requests", "-5"], "network: --requests"),
    (["network", "--seconds", HUGE], "network: --seconds"),
    (["network", "--window", HUGE], "network: --window"),
    (["generate", "--out", "{out}/t.csv", "--requests", "-5"], "generate: --requests"),
    (["observe", "--out", "{out}"], "unknown command 'observe'"),
    # Int-valued flags reject values past int's range instead of wrapping.
    (["failures", "--retries", PAST_INT], "failures: --retries"),
    # Past kMaxRetryAttempts, where a chain of century-long retries would
    # run an engine's clock past int64.
    (["failures", "--retries", "101"], "failures: --retries"),
    (["chaos", "--hosts", PAST_INT], "chaos: --hosts"),
    (["chaos", "--zones", "-" + PAST_INT], "chaos: --zones"),
    (["monitor", "--out", "{out}", "--fast-windows", PAST_INT], "monitor: --fast-windows"),
    (["monitor", "--out", "{out}", "--sim", "platform", "--cotenants", PAST_INT],
     "monitor: --cotenants"),
    (["audit", "--sim", "fleet", "--breaker-threshold", PAST_INT],
     "audit: --breaker-threshold"),
    (["audit", "--sim", "platform", "--retries", PAST_INT], "audit: --retries"),
    (["workflows", "--hops", PAST_INT], "workflows: --hops"),
    (["network", "--zones-per-region", PAST_INT], "network: --zones-per-region"),
    # A flag the subcommand never reads, on each subcommand: a misspelling,
    # `--key=value`, or a flag its mode ignores.
    (["platforms", "--verbose"], "platforms: --verbose"),
    (["bill", "--platform", "aws", "--memory", "512"], "bill: --memory"),
    (["cost", "--request", "5"], "cost: --request"),
    (["cost", "--trace", "{out}/none.csv", "--requests", "5"], "cost: --requests"),
    (["audit", "--sim", "fleet", "--mtbf", "10"], "audit: --mtbf"),
    (["rightsize", "--slo", "800"], "rightsize: --slo"),
    (["rightsize", "--platform", "aws", "--mem-mb", "512"], "rightsize: --mem-mb"),
    (["generate", "--out", "{out}/t.csv", "--count", "5"], "generate: --count"),
    (["failures", "--rate=0.5"], "failures: --rate=0.5"),
    (["chaos", "--mtbf", "10"], "chaos: --mtbf"),
    (["monitor", "--out", "{out}", "--windows", "5"], "monitor: --windows"),
    (["monitor", "--out", "{out}", "--sim", "fleet", "--rps", "5"], "monitor: --rps"),
    (["workflows", "--hop", "3"], "workflows: --hop"),
    (["network", "--zone", "2"], "network: --zone"),
    # A stray argument, and a value on a bare flag.
    (["chaos", "5"], "chaos: unexpected argument '5'"),
    (["failures", "--json", "5"], "failures: --json"),
    # Non-finite values.
    (["workflows", "--rate", "nan"], "workflows: --rate"),
    (["network", "--rate", "nan"], "network: --rate"),
    (["bill", "--platform", "aws", "--vcpus", "nan"], "bill: --vcpus"),
    (["monitor", "--out", "{out}", "--slo", "nan"], "monitor: --slo"),
    # Fractional durations past a century, whose microseconds overflow int64.
    (["bill", "--platform", "aws", "--exec-ms", "1e300"], "bill: --exec-ms"),
    (["workflows", "--deadline-ms", "1e300"], "workflows: --deadline-ms"),
    # Arrivals spaced so far apart that the last one lands past a century.
    (["workflows", "--workflows", "3", "--wps", "1e-14"], "workflows: invalid WorkflowSimConfig"),
    (["network", "--outage-zone", "0", "--outage-start-s", "1e300"],
     "network: --outage-start-s"),
    (["failures", "--timeout-ms", "1e300"], "failures: --timeout-ms"),
    (["monitor", "--out", "{out}", "--slo", "1e300"], "monitor: --slo"),
    # A payload mean past the 2^32-byte draw cap.
    (["network", "--req-kb", "1e300", "--requests", "50", "--functions", "5", "--seconds",
      "10"], "network: --req-kb"),
    # Negative sizes and seeds.
    (["bill", "--platform", "aws", "--mem-mb", "-5"], "bill: --mem-mb"),
    (["rightsize", "--cpu-ms", "-5"], "rightsize: --cpu-ms"),
    (["generate", "--out", "{out}/t.csv", "--seed", "-1"], "generate: --seed"),
]

# Small runs, in order: `generate` writes the trace `cost --trace` reads, and
# the platform audit writes the checkpoint the next one resumes.
SEED = ["--seed", "2"]
FLEET = ["--requests", "200", "--functions", "10", "--seconds", "60", "--hosts", "4",
         "--mtbf-s", "600", "--mttr-s", "60", "--graceful", "0.3", "--retries", "2"]
SLO = ["--window", "10", "--slo", "500", "--slo-target", "0.99", "--fast-windows", "1",
       "--slow-windows", "6", "--fast-burn", "14.4", "--slow-burn", "6", "--profile-engine"]
PLATFORM_AUDIT = ["audit", "--sim", "platform", "--platform", "aws", "--audit-level", "full",
                  "--scan-cadence", "64", "--rate", "0.05", "--retries", "2", "--rps", "5",
                  "--seconds", "20", "--json"] + SEED
ACCEPTED = [
    ["platforms"],
    ["bill", "--platform", "gcp", "--exec-ms", "150", "--cpu-ms", "80", "--vcpus", "1",
     "--mem-mb", "1769", "--used-mem-mb", "300", "--init-ms", "400"],
    ["generate", "--out", "{out}/t.csv", "--requests", "200", "--functions", "10"] + SEED,
    ["cost", "--trace", "{out}/t.csv"],
    ["cost", "--requests", "200", "--functions", "10"] + SEED,
    ["rightsize", "--platform", "aws", "--cpu-ms", "160", "--slo-ms", "800"] + SEED,
    ["rightsize", "--platform", "gcp", "--cpu-ms", "160", "--slo-ms", "800", "--mem-mb",
     "512"] + SEED,
    ["failures", "--platform", "aws", "--rate", "0.1", "--retries", "2", "--rps", "5",
     "--seconds", "20", "--timeout-ms", "1000", "--json"] + SEED,
    ["chaos", "--platform", "aws", "--breaker-threshold", "2", "--zones", "2",
     "--zone-outage-mtbf-s", "600", "--json"] + FLEET + SEED,
    # Failure gaps drawn with these means lie past int64's range; each stops
    # at the duration ceiling before its cast.
    ["chaos", "--requests", "200", "--functions", "10", "--seconds", "60", "--mtbf-s", "1e13",
     "--zones", "2", "--zone-outage-mtbf-s", "1e14"] + SEED,
    ["monitor", "--out", "{out}/mf", "--sim", "fleet", "--platform", "aws"] + SLO + FLEET
    + SEED,
    ["monitor", "--out", "{out}/mp", "--sim", "platform", "--platform", "aws", "--rate",
     "0.02", "--retries", "2", "--rps", "5", "--seconds", "20", "--cotenants", "1"] + SLO
    + SEED,
    PLATFORM_AUDIT + ["--checkpoint", "{out}/cp.json", "--checkpoint-every", "7"],
    PLATFORM_AUDIT + ["--resume", "{out}/cp.json"],
    ["audit", "--sim", "fleet", "--platform", "aws", "--audit-level", "basic",
     "--scan-cadence", "64", "--breaker-threshold", "2", "--checkpoint", "{out}/cpf.json",
     "--checkpoint-at", "30", "--json"] + FLEET + SEED,
    ["workflows", "--platform", "aws", "--archetype", "fanout", "--hops", "4", "--quorum",
     "3", "--workflows", "20", "--wps", "4", "--zones", "2", "--rate", "0.05",
     "--init-fail-rate", "0.01", "--exec-ms", "50", "--timeout-ms", "400", "--async",
     "--retries", "2", "--breaker-threshold", "3", "--deadline-ms", "900",
     "--no-propagate", "--hedge-ms", "300", "--async-redrives", "1", "--outage-zone", "1",
     "--outage-start-s", "1", "--outage-seconds", "2", "--audit-level", "full",
     "--json"] + SEED,
    ["network", "--platform", "aws", "--requests", "200", "--functions", "10", "--seconds",
     "60", "--window", "5", "--req-kb", "16", "--resp-kb", "64", "--rate", "0.05",
     "--zones", "3", "--zones-per-region", "3", "--class-a", "1", "--class-b", "2",
     "--outage-zone", "0", "--outage-start-s", "10", "--outage-seconds", "20",
     "--retries", "2", "--json"] + SEED,
]


def run(binary, args, out):
    argv = [binary] + [a.replace("{out}", out) for a in args]
    return subprocess.run(argv, capture_output=True, text=True, timeout=60)


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary = sys.argv[1]
    failed = 0
    with tempfile.TemporaryDirectory() as out:
        for args, expected in REJECTED:
            proc = run(binary, args, out)
            problems = []
            if proc.returncode != 1:
                problems.append(f"exit {proc.returncode}, want 1")
            if proc.stdout:
                problems.append("non-empty stdout")
            if not any(line.startswith(expected) for line in proc.stderr.splitlines()):
                problems.append(f"no stderr line starts with {expected!r}")
            if "runtime error" in proc.stderr:
                problems.append("sanitizer runtime error")
            if problems:
                failed += 1
                print(f"FAIL faascost {' '.join(args)}: {'; '.join(problems)}\n"
                      f"  stderr: {proc.stderr.strip()[:400]!r}")
        for args in ACCEPTED:
            proc = run(binary, args, out)
            if proc.returncode != 0 or "runtime error" in proc.stderr:
                failed += 1
                print(f"FAIL faascost {' '.join(args)}: exit {proc.returncode}, want 0\n"
                      f"  stderr: {proc.stderr.strip()[:400]!r}")
    total = len(REJECTED) + len(ACCEPTED)
    print(f"{total - failed}/{total} cases ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
