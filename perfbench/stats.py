"""Sample summaries and failure counting used by the benchmark's report."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


@dataclass
class Outcome:
    """One operation: its gate, accuracy, output digest and measured cost."""

    ok: bool
    rel_err: Optional[float]
    digest: str
    reasons: List[str] = field(default_factory=list)
    commands: Optional[list] = None  # CLI only: name, returncode and wall of each command
    wall: float = 0.0
    cpu: float = 0.0


def nearest_rank(sorted_samples: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    n = len(sorted_samples)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_samples[rank - 1], n - rank


def summarize(samples: Sequence[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it.

    The percentile is taken from a fixed ladder (99.9, 99, 90) and left out
    (``None``) when no rung has at least ``MIN_BEYOND`` samples above it.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "n": len(ordered), "pct": None}
    for pct in PERCENTILES:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= MIN_BEYOND:
            out["pct"] = (pct, value)
            break
    return out


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def failed_count(oks: Sequence[bool]) -> int:
    return sum(1 for ok in oks if not ok)


def fail_frac(oks: Sequence[bool]) -> float:
    if not oks:
        raise ValueError("no attempted operations")
    return failed_count(oks) / len(oks)


def judge_cli(commands: List[dict], tol: float) -> Tuple[bool, Optional[float], List[str]]:
    """Gate one CLI operation.

    ``commands`` holds one dict per command with ``name``, ``returncode`` and,
    for ``verify compare``, the parsed ``report``.  The operation passes when
    every command exits 0 and every compare reports ``pass`` with
    ``rel_l2 <= tol``.  Returns (ok, largest compare error, reasons).
    """
    reasons = []
    errors = []
    for cmd in commands:
        if cmd["returncode"] != 0:
            reasons.append(f"{cmd['name']} exited {cmd['returncode']}")
            continue
        report = cmd.get("report")
        if report is None:
            continue
        rel = report.get("rel_l2")
        if not isinstance(rel, (int, float)) or report.get("pass") is not True or rel > tol:
            reasons.append(f"{cmd['name']} failed its gate: {report}")
        if isinstance(rel, (int, float)):
            errors.append(float(rel))
    n_compares = sum(1 for cmd in commands if cmd["name"].startswith("compare"))
    if len(errors) != n_compares:
        reasons.append("a compare produced no error figure")
    return not reasons, (max(errors) if errors else None), reasons
