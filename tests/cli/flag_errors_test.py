#!/usr/bin/env python3
"""Bad CLI flag values are usage errors, never crashes or silent runs.

Usage: flag_errors_test.py <path to the faascost binary>

Runs faascost once per case below. Each must exit 1, print a stderr line
that starts with the expected `<cmd>: --<flag>` prefix (or names the unknown
command), and print no sanitizer `runtime error` text. Run under the
ASan/UBSan build, this also catches a return of the int64 overflow in
seconds-to-microseconds conversion.
"""

import subprocess
import sys
import tempfile

HUGE = "10000000000000"  # Seconds; times 1e6 overflows int64 microseconds.

# (argv after the binary, expected start of one stderr line)
CASES = [
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
]


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary = sys.argv[1]
    failed = 0
    with tempfile.TemporaryDirectory() as out:
        for args, expected in CASES:
            argv = [binary] + [a.replace("{out}", out) for a in args]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
            problems = []
            if proc.returncode != 1:
                problems.append(f"exit {proc.returncode}, want 1")
            if not any(line.startswith(expected) for line in proc.stderr.splitlines()):
                problems.append(f"no stderr line starts with {expected!r}")
            if "runtime error" in proc.stderr:
                problems.append("sanitizer runtime error")
            if problems:
                failed += 1
                print(f"FAIL faascost {' '.join(args)}: {'; '.join(problems)}\n"
                      f"  stderr: {proc.stderr.strip()!r}")
    print(f"{len(CASES) - failed}/{len(CASES)} cases ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
