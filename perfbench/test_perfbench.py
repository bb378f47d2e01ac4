"""Tests of the benchmark's own statistics, checks and plans.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
None of them runs the program: each check gets a tiny hand-made input it
must accept and a deliberately wrong one it must reject.
"""

import copy
import dataclasses
import math
import statistics
import time
from typing import Dict, List

import pytest

from perfbench import checks, stats
from perfbench.checks import CheckFailed
from perfbench.common import rotated, rounds_for
from perfbench.layers import LayerTracer
from perfbench.service import HITS_PER_SEGMENT, PAIRS, plan


# -- statistics -------------------------------------------------------------

def test_tail_needs_ten_samples_beyond_it():
    for count in (20, 41, 84, 156, 1000):
        pct = stats.tail_percentile(count)
        assert stats.beyond(count, pct) >= stats.TAIL_MIN_BEYOND
        if pct < 99:
            assert stats.beyond(count, pct + 1) < stats.TAIL_MIN_BEYOND


def test_no_tail_with_fewer_than_ten_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(0) is None
    with pytest.raises(ValueError):
        stats.tail([1.0] * 19)


def test_tail_value_leaves_ten_samples_above():
    values = [float(v) for v in range(100)]
    pct, value = stats.tail(values)
    assert pct == 90
    assert sum(v > value for v in values) == 10


def test_kind_median_geomean_weighs_each_kind_once():
    samples = [("a", 1.0), ("a", 3.0), ("a", 100.0), ("b", 4.0)]
    assert stats.kind_median_geomean(samples) == pytest.approx(
        math.sqrt(3.0 * 4.0))
    # More ops of one kind do not move another kind's weight.
    more = samples + [("a", 3.0)] * 10
    assert stats.kind_median_geomean(more) == pytest.approx(math.sqrt(12))


def test_geomean_rejects_non_positive():
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([5], 99) == 5


def test_quartile_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == (q3 - q1) / 5.0


def test_rounds_for():
    assert rounds_for(1, 19.0) == 1
    assert rounds_for(20, 19.0) == 1
    assert rounds_for(20, 7.0) == 3
    assert rounds_for(60, 19.0) == 3


# -- table1 checks ----------------------------------------------------------

def _run(total_parts, cycles, result=7) -> Dict:
    parts = dict(zip(checks.ENERGY_PARTS, total_parts))
    parts.update(total_energy_nj=sum(total_parts), total_cycles=cycles,
                 result=result)
    return parts


def _flow() -> Dict:
    initial = _run([10.0, 20.0, 30.0, 40.0, 0.0, 5.0], 1000)
    partitioned = _run([8.0, 15.0, 20.0, 20.0, 3.0, 4.0], 900)
    return {
        "app": "x", "scale": 1, "round": 0, "interp_result": 7,
        "initial": initial, "partitioned": partitioned, "accepted": True,
        "up_utilization": 0.3,
        "best": {"label": "c1@small", "utilization": 0.6},
        "candidates": [
            {"label": "c0@big", "energy_nj": 80.0, "geq": 9000},
            {"label": "c1@small", "energy_nj": 70.0, "geq": 3000},
        ],
        "f": 1.0, "g": 0.05, "geq0": 16000,
    }


def test_check_flow_accepts_consistent_result():
    checks.check_flow(_flow())


@pytest.mark.parametrize("spoil", [
    lambda r: r.update(interp_result=8),
    lambda r: r["partitioned"].update(result=8),
    lambda r: r["initial"].update(total_energy_nj=106.0),
    lambda r: r.update(up_utilization=0.7),
    lambda r: r["best"].update(label="c0@big"),
    lambda r: r["best"].update(label="c9@none"),
    lambda r: r.update(accepted=False),
    lambda r: r.update(best=None),
    lambda r: r.update(partitioned=None),
])
def test_check_flow_rejects_wrong_result(spoil):
    record = copy.deepcopy(_flow())
    spoil(record)
    with pytest.raises(CheckFailed):
        checks.check_flow(record)


def test_check_flow_accepts_rejection():
    record = _flow()
    record.update(best=None, partitioned=None, accepted=False)
    checks.check_flow(record)


def test_check_scaling():
    small, big = _flow(), _flow()
    big["scale"] = 2
    big["initial"] = dict(big["initial"], total_cycles=2000)
    checks.check_scaling([big, small])
    big["initial"]["total_cycles"] = 1000
    with pytest.raises(CheckFailed):
        checks.check_scaling([big, small])


# -- pareto checks ----------------------------------------------------------

def _point(label, variant, energy, geq, cycles):
    return {"label": label, "variant": variant, "energy_nj": energy,
            "geq": geq, "cycles": cycles, "objective": 0.0}


def _section() -> Dict:
    points = [
        _point("<initial>", 0, 100.0, 0, 1000),
        _point("a@s", 0, 60.0, 4000, 900),
        _point("b@s", 0, 80.0, 2000, 950),
        _point("c@s", 0, 90.0, 5000, 990),     # dominated by a@s
        _point("a@s", 1, 60.0, 4000, 900),     # duplicate vector
        _point("b@s", 1, 80.0, 2000, 950),
    ]
    variant = {"geometry": None, "tech": "n", "e0_nj": 100.0,
               "geq_normalizer": 16000, "label": "v"}
    return {
        "points": points, "front": [0, 1, 2], "knee": 1,
        "variants": [
            dict(variant, index=0, f_energy=1.0, g_hardware=0.05,
                 scalar_pick="a@s"),
            dict(variant, index=1, f_energy=0.2, g_hardware=1.0,
                 scalar_pick=None),
        ],
    }


def test_brute_force_front_drops_dominated_and_duplicates():
    vectors = [(1, 1, 1), (2, 2, 2), (1, 1, 1), (0, 3, 1)]
    assert checks.brute_force_front(vectors) == [0, 3]


def test_check_frontier_accepts_consistent_report():
    checks.check_frontier(_section(), "app")


@pytest.mark.parametrize("spoil", [
    lambda s: s.update(front=[0, 1]),
    lambda s: s.update(front=[0, 1, 2, 3]),
    lambda s: s.update(knee=3),
    lambda s: s["variants"][0].update(scalar_pick="b@s"),
    lambda s: s["variants"][1].update(scalar_pick="a@s"),
    lambda s: s["variants"][1].update(e0_nj=101.0),
])
def test_check_frontier_rejects_wrong_report(spoil):
    section = copy.deepcopy(_section())
    spoil(section)
    with pytest.raises(CheckFailed):
        checks.check_frontier(section, "app")


def test_e0_may_differ_across_nodes():
    section = _section()
    section["variants"][1].update(tech="other", e0_nj=120.0,
                                  scalar_pick=None)
    checks.check_frontier(section, "app")


# -- cachesweep checks ------------------------------------------------------

def _cache(reads, writes, read_misses, write_misses) -> Dict[str, int]:
    return {"reads": reads, "writes": writes,
            "read_hits": reads - read_misses,
            "write_hits": writes - write_misses,
            "read_misses": read_misses, "write_misses": write_misses,
            "fills": read_misses}


def _profile() -> Dict:
    return {"icache": _cache(100, 0, 5, 0), "dcache": _cache(30, 10, 4, 2),
            "stall_cycles": 72, "memory_word_reads": 36,
            "memory_word_writes": 10}


def test_check_cache_profiles_accepts_consistent_counters():
    checks.check_cache_profiles((100, 30, 10), [_profile()], "x")


@pytest.mark.parametrize("counts,spoil", [
    ((101, 30, 10), None),
    ((100, 31, 10), None),
    ((100, 30, 10), lambda p: p["dcache"].update(read_hits=27)),
    ((100, 30, 10), lambda p: p["icache"].update(read_misses=6)),
])
def test_check_cache_profiles_rejects_wrong_counters(counts, spoil):
    profile = copy.deepcopy(_profile())
    if spoil:
        spoil(profile)
    with pytest.raises(CheckFailed):
        checks.check_cache_profiles(counts, [profile], "x")


def test_check_same_profile():
    checks.check_same_profile(_profile(), _profile(), "x")
    other = _profile()
    other["stall_cycles"] += 8
    with pytest.raises(CheckFailed):
        checks.check_same_profile(_profile(), other, "x")


# -- service checks ---------------------------------------------------------

def _jobs_and_requests():
    result = {"verified": True, "accepted": True}
    jobs = {"j1": {"state": "done", "request_digest": "d1",
                   "result": dict(result)},
            "j2": {"state": "done", "request_digest": "d2",
                   "result": dict(result, accepted=False)}}
    requests = [{"job": "j1", "digest": "d1", "inline": None},
                {"job": "j1", "digest": "d1", "inline": None},
                {"job": "j2", "digest": "d2", "inline": None},
                {"job": "j1", "digest": "d1", "inline": dict(result)}]
    return requests, jobs


def test_check_service_accepts_consistent_jobs():
    requests, jobs = _jobs_and_requests()
    checks.check_service(requests, jobs, 2)


@pytest.mark.parametrize("spoil", [
    lambda r, j: j["j2"].update(state="failed"),
    lambda r, j: j["j2"]["result"].update(verified=False),
    lambda r, j: r[3].update(inline={"verified": True, "accepted": False}),
    lambda r, j: r[2].update(digest="d9"),
])
def test_check_service_rejects_wrong_jobs(spoil):
    requests, jobs = _jobs_and_requests()
    spoil(requests, jobs)
    with pytest.raises(CheckFailed):
        checks.check_service(requests, jobs, 2)


def test_check_service_counts_evaluations():
    requests, jobs = _jobs_and_requests()
    with pytest.raises(CheckFailed):
        checks.check_service(requests, jobs, 3)


def test_check_service_matches():
    served = {"accepted": True, "initial": {"result": 1},
              "partitioned": None, "best_core": None}
    checks.check_service_matches(served, dict(served), "x")
    with pytest.raises(CheckFailed):
        checks.check_service_matches(
            served, dict(served, initial={"result": 2}), "x")


def test_verdict_keeps_failures():
    verdict = checks.Verdict()
    verdict(checks.check_same_profile, {"a": 1}, {"a": 1}, "x")
    assert verdict.correct
    verdict(checks.check_same_profile, {"a": 1}, {"a": 2}, "x")
    assert not verdict.correct and len(verdict.failures) == 1


# -- inputs -----------------------------------------------------------------

@dataclasses.dataclass
class _Spec:
    globals_init: Dict[str, List[int]]


def test_rotation_keeps_values_and_tuples():
    spec = _Spec({"xs": [1, 2, 3, 4], "ys": [5, 6, 7, 8], "zs": [9, 10, 11,
                                                                12]})
    out = rotated(spec, "3d", 1)
    assert out.globals_init["xs"] == [2, 3, 4, 1]
    assert sorted(out.globals_init["ys"]) == [5, 6, 7, 8]
    assert list(zip(*(out.globals_init[k] for k in ("xs", "ys", "zs")))) \
        == list(zip(*(spec.globals_init[k] for k in ("xs", "ys", "zs"))))[
            1:] + [(1, 5, 9)]
    assert spec.globals_init["xs"] == [1, 2, 3, 4]


NODES = ("node-a", "node-b", "node-c", "node-d", "node-e")


def test_service_plan_fixes_request_roles():
    items = plan(seed=3, seconds=20, nodes=NODES)
    assert items == plan(seed=3, seconds=20, nodes=NODES)
    assert items != plan(seed=4, seconds=20, nodes=NODES)
    segment = 3 + HITS_PER_SEGMENT
    assert len(items) == 3 * len(PAIRS) * segment
    fresh, finished = set(), []
    for start in range(0, len(items), segment):
        if start % (len(PAIRS) * segment) == 0:
            finished = []               # hits stay within their round
        first, queued, again, *hits = items[start:start + segment]
        assert (first["role"], queued["role"], again["role"]) == (
            "miss", "queued", "coalesced")
        assert queued["after"] == start
        assert again["payload"] == queued["payload"]
        for item in (first, queued):
            key = tuple(sorted(item["payload"].items()))
            assert key not in fresh     # every miss is a new digest
            fresh.add(key)
        assert (first["payload"]["app"], queued["payload"]["app"]) in PAIRS
        finished += [first["payload"], queued["payload"]]
        assert all(h["role"] == "hit" and h["payload"] in finished
                   for h in hits)


def test_service_plan_stops_before_a_digest_would_repeat():
    items = plan(seed=3, seconds=600, nodes=NODES[:2])
    misses = [tuple(sorted(item["payload"].items())) for item in items
              if item["role"] in ("miss", "queued")]
    assert len(misses) == 2 * 2 * 2 * len(PAIRS)   # 2 x len(nodes) rounds
    assert len(set(misses)) == len(misses)


# -- tracing ----------------------------------------------------------------

def test_declared_per_layer_metrics_cover_the_tracer():
    from perfbench.run import declared
    assert set(LayerTracer().metrics()) <= set(declared("per_layer"))


def test_layer_self_time_excludes_nested_spans():
    tracer = LayerTracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.02)
        tracer.span("inner", inner)

    _, op_s = tracer.op(tracer.span, "outer", outer)
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.self_s["inner"] >= 0.02
    assert 0.02 <= tracer.self_s["outer"] < 0.04
    assert op_s >= tracer.self_s["outer"] + tracer.self_s["inner"]
    assert 0.0 <= tracer.unaccounted_share() < 0.5
