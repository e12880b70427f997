"""Layered benchmark for wavecwt.

Run from the repository root::

    python3 perfbench/run.py --workload isometry-packet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same workload traced and reports per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The package is imported from ``./src``; without
it the run exits with status 2 and prints no result.  Scratch files go to
``./.bench_work`` and are removed at exit, except the digest record that the
bit-identity check compares later runs with and the spans of traced runs.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import List

from stats import Outcome

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREADS = 2
SETUP_REPS = 5
IMPORT_TIMEOUT_S = 60.0
WORKLOAD_NAMES = ("isometry-packet", "roundtrip-packet", "cli-spherical64")
END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
                    "rel_err": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds(module: str) -> float:
    """Wall time of a fresh interpreter importing ``module``."""
    from workloads import package_env

    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=package_env(),
                   check=True, capture_output=True, timeout=IMPORT_TIMEOUT_S)
    return time.perf_counter() - start


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wavecwt").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_op(wl, lib, threads: int) -> Outcome:
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        raw = wl.op(lib, threads)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        out = wl.check(raw)
    except Exception:  # an operation that raises counts as failed, and the loop goes on
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        sys.stderr.write(traceback.format_exc())
        out = Outcome(False, None, "", ["raised; traceback on stderr"])
    out.wall, out.cpu = wall, cpu
    return out


def timed_loop(wl, lib, threads: int, budget: float, on_op=None) -> List[Outcome]:
    """Closed loop: one operation at a time until the next would overrun ``budget``."""
    records: List[Outcome] = []
    start = time.perf_counter()
    while True:
        if on_op is not None:
            on_op(len(records))
        records.append(run_op(wl, lib, threads))
        typical = statistics.median(r.wall for r in records)
        if time.perf_counter() - start + typical > budget:
            return records


def apply_bit_identity(name: str, seed: int, records: List[Outcome]) -> str:
    """Fail every operation whose output digest differs from the reference.

    The reference is the digest an earlier run of this checkout recorded for
    the same workload, seed and package source, else this run's first.
    """
    WORK.mkdir(exist_ok=True)
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{name}:{seed}:{source_digest()}"
    ref = known.get(key) or next((r.digest for r in records if r.digest), "")
    for r in records:
        if r.digest and r.digest != ref:
            r.ok = False
            r.reasons.append(f"output digest {r.digest[:16]} != reference {ref[:16]}")
    if ref and key not in known:
        known[key] = ref
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    return ref


def describe(summary: dict, what: str) -> str:
    text = f"median of {summary['n']} {what}"
    if summary["pct"] is None:
        return text + "; no percentile has 10 samples beyond it"
    pct, value = summary["pct"]
    return text + f"; p{pct:g} = {value:.6g}"


def print_table(rows) -> None:
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:28s} {shown:>14s} {unit:6s} {note}")


def report_failures(records: List[Outcome]) -> None:
    for i, r in enumerate(records):
        if not r.ok:
            print(f"  op {i} FAILED: {'; '.join(r.reasons)}")


def run_untraced(wl, args, workdir: Path) -> dict:
    from layers import Library
    from stats import fail_frac, failed_count, summarize

    lib = Library()
    setups = []
    for _ in range(SETUP_REPS):
        t_import = import_seconds(wl.import_probe)
        start = time.perf_counter()
        wl.setup(lib, args.seed, workdir, THREADS)
        setups.append(t_import + time.perf_counter() - start)
    records = timed_loop(wl, lib, THREADS, args.seconds)
    ref = apply_bit_identity(wl.name, args.seed, records)
    oks = [r.ok for r in records]
    children = wl.spawns_processes

    wall = summarize([r.wall for r in records])
    cpu = summarize([r.cpu for r in records])
    errs = [r.rel_err for r in records if r.rel_err is not None]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s": wall["median"],
        "cpu_s": cpu["median"],
        "peak_rss_mb": peak_rss_mib(children),
        # an operation that produced no result is as wrong as the zero field
        "rel_err": statistics.median(errs) if errs else 1.0,
    }
    print(f"facts {json.dumps(wl.facts(THREADS), sort_keys=True)}")
    print(f"output digest {ref[:16]} for all {len(records)} operations" if all(
        r.digest == ref for r in records) else "output digests differ")
    failed = failed_count(oks)
    print_table([
        ("setup_s", metrics["setup_s"], "s", f"median of {SETUP_REPS} set-ups"),
        ("op_s", metrics["op_s"], "s", describe(wall, "operations")),
        ("cpu_s", metrics["cpu_s"], "s",
         describe(cpu, "operations") + ("; children included" if children else "")),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MiB",
         "largest child process" if children else "benchmark process"),
        ("rel_err", metrics["rel_err"], "1", f"median of {len(errs)} operations"),
        ("fail_frac", fail_frac(oks), "1", f"{failed} of {len(records)} operations failed"),
    ])
    print("  op walls (s): " + " ".join(f"{r.wall:.3f}" for r in records))
    report_failures(records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def run_traced(wl, args, workdir: Path) -> dict:
    from layers import Library, TracedLibrary, patched
    from spans import Tracer, nesting_error
    from layer_metrics import PER_LAYER_UNITS, layer_metrics
    from stats import failed_count

    tracer = Tracer()
    lib = TracedLibrary(tracer)
    cli = wl.spawns_processes
    tracer.op = "setup"
    with patched(lib, cli=cli):
        wl.setup(lib, args.seed, workdir, THREADS)
    imports = [import_seconds(wl.import_probe) for _ in range(SETUP_REPS)] if cli else []

    third = args.seconds / 3.0
    untraced = timed_loop(wl, Library(), THREADS, third)
    with patched(lib, cli=cli):
        traced = timed_loop(wl, lib, THREADS, third,
                            on_op=lambda i: setattr(tracer, "op", i))
    tracer.op = None
    single = [run_op(wl, Library(), 1)]
    records = untraced + traced + single
    apply_bit_identity(wl.name, args.seed, records)

    metrics = layer_metrics(tracer.spans, untraced, traced, single, imports)
    overhang = nesting_error(tracer.spans)
    spans_file = WORK / f"spans-{wl.name}-seed{args.seed}.json"
    spans_file.write_text(json.dumps([dataclasses.asdict(s) for s in tracer.spans], default=int))
    failed = failed_count([r.ok for r in records])
    print(f"facts {json.dumps(wl.facts(THREADS), sort_keys=True)}")
    print(f"trace: {len(tracer.spans)} spans over {len(traced)} traced operations; "
          f"largest child overhang {overhang:.3g} s, so self + union(children) = duration")
    print(f"operations: {len(untraced)} untraced, {len(traced)} traced, 1 single-thread; "
          f"{failed} failed; spans written to {spans_file.relative_to(ROOT)}")
    print_table([(k, v, PER_LAYER_UNITS[k], "") for k, v in metrics.items()])
    report_failures(records)
    return {
        "correct": failed == 0 and overhang <= 1e-6,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"perfbench: {name} exited {proc.returncode}\n")
            return 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wavecwt" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no src/wavecwt here; run from the repository root\n")
        return 2
    os.environ.pop("WAVECWT_THREADS", None)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import wavecwt

    if Path(wavecwt.__file__).resolve().parent != (SRC / "wavecwt").resolve():
        sys.stderr.write(f"perfbench: imported wavecwt from {wavecwt.__file__}, not ./src\n")
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} threads={THREADS}", flush=True)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = run_traced if args.trace else run_untraced
        result = run(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
