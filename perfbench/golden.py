"""Record the reference CSV hashes in ``perfbench/golden.json``.

    python3 perfbench/golden.py --seeds 0-23

Every workload is recorded for every seed, each (workload, seed) by one CLI
run made exactly as the benchmark makes it. Existing entries are kept; a new
hash that contradicts one already stored is an error. Record references only
at a commit whose outputs are correct: the benchmark fails every later run
whose CSVs differ from them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run as bench


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="inclusive range such as 0-23")
    args = parser.parse_args(argv)
    golden = json.loads(bench.GOLDEN.read_text()) if bench.GOLDEN.is_file() else {}
    for name in sorted(bench.WORKLOADS):
        store = golden.setdefault(name, {})
        for seed in args.seeds:
            result = bench.run_once(name, seed, golden,
                                       time.monotonic() + 3600)
            if result.failures:
                print(f"{name} seed {seed}: {result.failures}", file=sys.stderr)
                return 1
            for (key, key_seed), digest in result.hashes.items():
                store.setdefault(key, {}).setdefault(str(key_seed), digest)
            print(f"{name} seed {seed}: {len(result.hashes)} files, "
                  f"{result.wall_s:.1f} s", flush=True)
            bench.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
