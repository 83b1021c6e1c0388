#!/usr/bin/env python3
"""Pin the benchmark smoke outputs: run `perfbench/run.py --smoke` and
compare every workload's result digest to tools/smoke_digests.txt.

The smoke runs each workload at a tiny size on seeds 19 and 23, untraced
and traced. Its `city_fleet` fleet puts 16 devices on 4 cameras, so the
digests cover fleets whose devices share one warm start, which the 2-device
bit-identity cell (tools/check_bit_identity.sh) never builds. Like that
gate, the digests are tied to IEEE-754 double arithmetic on the default CI
toolchain (x86-64 gcc, no -ffast-math).

Usage (from anywhere in a checkout):

    python3 tools/check_smoke_digests.py            verify
    python3 tools/check_smoke_digests.py --update   rewrite the golden file

Rewrite the golden only after an intentional behaviour change, and say why
in the commit message. Exit status 0 when the smoke passes and every
(workload, seed) digest matches, 1 otherwise. Stdlib only.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tools", "smoke_digests.txt")
LINE = re.compile(r"^(\w+)\s+seed (\d+) trace [01]: digest ([0-9a-f]+) ")


def read_golden() -> dict[tuple[str, str], str]:
    golden = {}
    with open(GOLDEN) as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                workload, seed, digest = line.split()
                golden[(workload, seed)] = digest
    return golden


def main(argv: list[str]) -> int:
    update = argv[1:] == ["--update"]
    if argv[1:] and not update:
        print(__doc__, file=sys.stderr)
        return 2
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--smoke"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print("check_smoke_digests: FAIL - the benchmark smoke failed")
        return 1

    actual: dict[tuple[str, str], str] = {}
    for line in proc.stdout.splitlines():
        match = LINE.match(line)
        if match:
            workload, seed, digest = match.groups()
            if actual.setdefault((workload, seed), digest) != digest:
                print(f"check_smoke_digests: FAIL - {workload} seed {seed}: "
                      "traced and untraced digests differ")
                return 1
    if not actual:
        print("check_smoke_digests: FAIL - no digest lines in the smoke output")
        return 1

    if update:
        with open(GOLDEN, "w") as f:
            f.write("# workload seed digest: python3 tools/check_smoke_digests.py --update\n")
            for (workload, seed), digest in actual.items():
                f.write(f"{workload} {seed} {digest}\n")
        print(f"check_smoke_digests: golden rewritten ({len(actual)} digests); "
              "say why in the commit message")
        return 0

    golden = read_golden()
    failed = False
    for key in sorted(golden.keys() | actual.keys()):
        expected, got = golden.get(key, "missing"), actual.get(key, "missing")
        if expected != got:
            print(f"check_smoke_digests: FAIL - {key[0]} seed {key[1]}: "
                  f"expected {expected}, got {got}")
            failed = True
    if failed:
        print("If the change is intentional, rerun with --update and justify the new "
              "digests in the commit message.")
        return 1
    print(f"check_smoke_digests: OK ({len(actual)} digests)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
