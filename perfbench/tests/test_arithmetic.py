"""The benchmark's own arithmetic: self time, the percentile rule, failure counting.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import threading

import numpy as np
import pytest

import run
from layers import Library
from spans import Tracer, layer_totals, nesting_error, self_times, union_length
from stats import Outcome, fail_frac, failed_count, judge_cli, quartile_spread, summarize
from workloads import CliSpherical64, package_env

WAIT_S = 5.0


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(1, 5), (3, 7)]) == 6.0
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10.0
    assert union_length([(3, 7), (1, 5), (7, 8)]) == 7.0


class ScriptedClock:
    """Hands out the given readings in call order, whatever thread asks."""

    def __init__(self, readings):
        self.readings = list(readings)
        self.lock = threading.Lock()

    def __call__(self):
        with self.lock:
            return self.readings.pop(0)


def test_self_time_with_overlapping_children_from_two_threads():
    # parent [0, 10]; worker A's child [1, 5] overlaps worker B's child [3, 7]
    tracer = Tracer(clock=ScriptedClock([0.0, 1.0, 3.0, 5.0, 7.0, 10.0]))
    a_in, b_in, a_out, b_out, a_done = (threading.Event() for _ in range(5))

    def worker(entered, leave, done=None, wait_for=None):
        if wait_for is not None:
            assert wait_for.wait(WAIT_S)
        with tracer.span("child"):
            entered.set()
            assert leave.wait(WAIT_S)
        if done is not None:
            done.set()

    with tracer.span("parent") as parent:
        ta = threading.Thread(target=worker, args=(a_in, a_out, a_done))
        tb = threading.Thread(target=worker, args=(b_in, b_out, None, a_in))
        ta.start()
        tb.start()
        assert b_in.wait(WAIT_S)
        a_out.set()
        assert a_done.wait(WAIT_S)
        b_out.set()
        ta.join(WAIT_S)
        tb.join(WAIT_S)
        assert not ta.is_alive() and not tb.is_alive()

    spans = {s.name: [] for s in tracer.spans}
    for s in tracer.spans:
        spans[s.name].append(s)
    children = spans["child"]
    assert sorted((c.start, c.end) for c in children) == [(1.0, 5.0), (3.0, 7.0)]
    assert all(c.parent == parent.sid for c in children)
    assert len({c.thread for c in children}) == 2

    selfs = self_times(tracer.spans)
    covered = union_length((c.start, c.end) for c in children)
    assert selfs[parent.sid] == pytest.approx(4.0)
    assert selfs[parent.sid] + covered == pytest.approx(parent.duration)
    assert nesting_error(tracer.spans) == 0.0

    totals = layer_totals(tracer.spans, [None])
    assert totals["child"]["busy"] == pytest.approx(8.0)  # summed over threads
    assert totals["child"]["calls"] == 2
    assert totals["parent"]["self"] == pytest.approx(4.0)


def test_layer_totals_sum_counts_but_keep_largest_peak():
    tracer = Tracer(clock=ScriptedClock([0.0, 1.0, 2.0, 4.0]))
    tracer.op = 0
    with tracer.span("io") as first:
        pass
    with tracer.span("io") as second:
        pass
    first.counts.update(bytes=10, max_peak=7)
    second.counts.update(bytes=5, max_peak=3)
    row = layer_totals(tracer.spans, [0])["io"]
    assert row["bytes"] == 15 and row["max_peak"] == 7 and row["busy"] == pytest.approx(3.0)
    assert layer_totals(tracer.spans, [1]) == {}


def test_summarize_reports_median_and_sample_count_without_percentile():
    s = summarize([3.0, 1.0, 2.0, 5.0, 4.0])
    assert s == {"median": 3.0, "n": 5, "pct": None}
    assert summarize(list(range(1, 21)))["pct"] is None  # p90 has only 2 beyond it


def test_summarize_picks_highest_percentile_with_ten_beyond():
    s = summarize([float(v) for v in range(1, 101)])
    assert s["n"] == 100 and s["median"] == 50.5
    assert s["pct"] == (90.0, 90.0)  # 10 samples beyond rank 90; p99 has 1
    s = summarize([float(v) for v in range(1, 1001)])
    assert s["pct"] == (99.0, 990.0)
    with pytest.raises(ValueError):
        summarize([])


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_failure_fraction():
    assert failed_count([True, False, True, True]) == 1
    assert fail_frac([True, False, True, True]) == 0.25
    assert fail_frac([True]) == 0.0
    with pytest.raises(ValueError):
        fail_frac([])


def _compare(name, rel, passed=True):
    return {"name": name, "returncode": 0, "report": {"rel_l2": rel, "pass": passed}}


def test_judge_cli_gates():
    ok_cmds = [{"name": "analyze", "returncode": 0},
               _compare("compare-synthesis", 0.015), _compare("compare-ivp", 7e-4)]
    assert judge_cli(ok_cmds, 0.05) == (True, 0.015, [])

    nonzero = [{"name": "analyze", "returncode": 1}] + ok_cmds[1:]
    ok, _, reasons = judge_cli(nonzero, 0.05)
    assert not ok and reasons == ["analyze exited 1"]

    over = [ok_cmds[0], _compare("compare-synthesis", 0.06, passed=False), ok_cmds[2]]
    assert judge_cli(over, 0.05)[0] is False
    lying = [ok_cmds[0], _compare("compare-synthesis", 0.06, passed=True), ok_cmds[2]]
    assert judge_cli(lying, 0.05)[0] is False

    no_report = [ok_cmds[0], {"name": "compare-synthesis", "returncode": 0}, ok_cmds[2]]
    assert judge_cli(no_report, 0.05)[0] is False


def test_cli_command_exiting_nonzero_fails_the_operation(tmp_path):
    """A real ``wavecwt`` process fails on a missing input; the operation counts as failed."""
    wl = CliSpherical64()
    wl.workdir = tmp_path
    wl.supports = {k: np.zeros(8, dtype=bool) for k in ("pulse", "w", "v")}
    wl.env = package_env()
    rec = run.run_op(wl, Library(), 1)
    assert not rec.ok
    assert [c["returncode"] for c in rec.commands] == [1] * 6
    assert any("analyze exited 1" in r for r in rec.reasons)
    assert fail_frac([rec.ok]) == 1.0


class FakeWorkload:
    name = "fake"

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def op(self, lib, threads):
        item = self.outcomes.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    def check(self, raw):
        return raw


def test_raising_operation_and_digest_mismatch_count_as_failures(tmp_path, monkeypatch):
    (tmp_path / "src" / "wavecwt").mkdir(parents=True)
    (tmp_path / "src" / "wavecwt" / "x.py").write_text("x = 1\n")
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    wl = FakeWorkload([Outcome(True, 1e-3, "aa"), RuntimeError("boom"),
                       Outcome(True, 1e-3, "bb"), Outcome(False, 0.5, "aa", ["gate"])])
    records = [run.run_op(wl, None, 2) for _ in range(4)]
    assert run.apply_bit_identity("fake", 1, records) == "aa"
    assert [r.ok for r in records] == [True, False, False, False]
    assert failed_count([r.ok for r in records]) == 3
    # a later run with the same seed and source is held to the recorded digest
    later = [run.run_op(FakeWorkload([Outcome(True, 1e-3, "bb")]), None, 2)]
    run.apply_bit_identity("fake", 1, later)
    assert not later[0].ok
