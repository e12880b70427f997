"""Run one workload on several seeds and report each metric's quartile spread.

    python3 perfbench/spread.py --workload roundtrip-packet --seeds 1 2 3 4 5

For every end-to-end metric of BENCHMARK.json it prints the median of the
runs, the spread (Q3 - Q1) / median and that spread as a share of the
metric's bound.  A steady benchmark keeps every share but ``setup_s``'s
below one third.  Runs are sequential, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "attempted": result["attempted"], **row}), flush=True)
        for name in values:
            values[name].append(row[name])
    if len(args.seeds) < 2:
        return 0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        median = statistics.median(vals)
        spread = quartile_spread(vals)
        print(f"{m['name']:12s} median {median:.6g} spread {spread:.4f} "
              f"bound {m['bound']} share {spread / m['bound']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
