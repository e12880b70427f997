"""Per-layer metrics of a traced run, named after the package modules.

Times are per traced operation and summed over threads.  ``admissibility.*``
adds the traced set-up to the per-operation figure, because the library
workloads compute their constant there once.  ``cli.commands_failed`` counts
every CLI command of the run that exited nonzero.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from spans import layer_totals

MIB = 2.0**20

PER_LAYER_UNITS = {
    "wavelets.spectral_s": "s",
    "wavelets.points": "count",
    "wavelets.ns_per_point": "ns",
    "wavelets.useful_frac": "1",
    "wavelets.nonzero_frac": "1",
    "fft.busy_s": "s",
    "fft.points": "count",
    "fft.ns_per_point": "ns",
    "cwt.grid_s": "s",
    "cwt.pairing_s": "s",
    "cwt.pairing_self_s": "s",
    "cwt.analyze_s": "s",
    "cwt.analyze_self_s": "s",
    "cwt.slices": "count",
    "cwt.coeff_mb": "MiB",
    "cwt.speedup_2t": "1",
    "synthesis.reconstruct_s": "s",
    "synthesis.reconstruct_self_s": "s",
    "synthesis.ivp_s": "s",
    "synthesis.ivp_self_s": "s",
    "admissibility.calls": "count",
    "admissibility.busy_s": "s",
    "fileio.write_s": "s",
    "fileio.read_s": "s",
    "fileio.write_mb_s": "MiB/s",
    "fileio.read_mb_s": "MiB/s",
    "fileio.write_peak_mb": "MiB",
    "fileio.read_peak_mb": "MiB",
    "oracle.fourier_ivp_s": "s",
    "oracle.compare_s": "s",
    "cli.import_s": "s",
    "cli.process_overhead_s": "s",
    "cli.self_s": "s",
    "cli.commands_failed": "count",
    "proc.cpu_util": "1",
    "proc.trace_overhead": "1",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _command_walls(records) -> Dict[str, float]:
    walls: Dict[str, List[float]] = {}
    for r in records:
        for cmd in r.commands or ():
            walls.setdefault(cmd["name"], []).append(cmd["wall"])
    return {name: statistics.median(v) for name, v in walls.items()}


def layer_metrics(spans, untraced, traced, single, imports) -> Dict[str, float]:
    """Every metric of PER_LAYER_UNITS; layers a workload never reaches read 0."""
    n = len(traced)
    tot = layer_totals(spans, range(n))
    setup = layer_totals(spans, ["setup"])

    def get(name, key="busy"):
        return tot.get(name, {}).get(key, 0.0)

    def per_op(name, key="busy"):
        return get(name, key) / n

    base_wall = statistics.median(r.wall for r in untraced)
    base_cpu = statistics.median(r.cpu for r in untraced)
    traced_wall = statistics.median(r.wall for r in traced)
    sub = _command_walls(untraced)
    inproc = _command_walls(traced)
    overhead = sum(sub[name] - inproc[name] for name in sub if name in inproc)
    failed_cmds = sum(1 for r in untraced + traced + single
                      for cmd in r.commands or () if cmd["returncode"] != 0)
    adm = setup.get("admissibility", {})

    return {
        "wavelets.spectral_s": per_op("wavelets.spectral"),
        "wavelets.points": per_op("wavelets.spectral", "points"),
        "wavelets.ns_per_point": 1e9 * _ratio(get("wavelets.spectral"),
                                              get("wavelets.spectral", "points")),
        "wavelets.useful_frac": _ratio(get("wavelets.spectral", "useful_points"),
                                       get("wavelets.spectral", "lattice_points")),
        "wavelets.nonzero_frac": _ratio(get("wavelets.spectral", "nonzero_values"),
                                        get("wavelets.spectral", "lattice_points")),
        "fft.busy_s": per_op("fft"),
        "fft.points": per_op("fft", "points"),
        "fft.ns_per_point": 1e9 * _ratio(get("fft"), get("fft", "points")),
        "cwt.grid_s": per_op("cwt.grid"),
        "cwt.pairing_s": per_op("cwt.pairing"),
        "cwt.pairing_self_s": per_op("cwt.pairing", "self"),
        "cwt.analyze_s": per_op("cwt.analyze"),
        "cwt.analyze_self_s": per_op("cwt.analyze", "self"),
        "cwt.slices": (get("cwt.pairing", "slices") + get("cwt.analyze", "slices")) / n,
        "cwt.coeff_mb": per_op("cwt.analyze", "coeff_bytes") / MIB,
        "cwt.speedup_2t": single[0].wall / base_wall,
        "synthesis.reconstruct_s": per_op("synthesis.reconstruct"),
        "synthesis.reconstruct_self_s": per_op("synthesis.reconstruct", "self"),
        "synthesis.ivp_s": per_op("synthesis.ivp"),
        "synthesis.ivp_self_s": per_op("synthesis.ivp", "self"),
        "admissibility.calls": adm.get("calls", 0) + per_op("admissibility", "calls"),
        "admissibility.busy_s": adm.get("busy", 0.0) + per_op("admissibility"),
        "fileio.write_s": per_op("fileio.write"),
        "fileio.read_s": per_op("fileio.read"),
        "fileio.write_mb_s": _ratio(get("fileio.write", "bytes") / MIB, get("fileio.write")),
        "fileio.read_mb_s": _ratio(get("fileio.read", "bytes") / MIB, get("fileio.read")),
        "fileio.write_peak_mb": get("fileio.write", "max_alloc_peak") / MIB,
        "fileio.read_peak_mb": get("fileio.read", "max_alloc_peak") / MIB,
        "oracle.fourier_ivp_s": per_op("oracle.fourier_ivp"),
        "oracle.compare_s": per_op("oracle.compare"),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.process_overhead_s": overhead,
        "cli.self_s": per_op("cli.dispatch", "self"),
        "cli.commands_failed": failed_cmds,
        "proc.cpu_util": base_cpu / base_wall,
        "proc.trace_overhead": traced_wall / base_wall,
    }
