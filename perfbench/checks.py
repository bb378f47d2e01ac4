"""Output checks that do not trust the code under test.

Every check takes plain data (dicts, lists, numbers) extracted from the
program's results and recomputes what it asserts: energy sums, objective
values, dominance, cache counters.  None imports the program, so the
benchmark's tests feed each one a hand-made input and a deliberately
wrong one.  A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Energy components of one system run (paper Eq. 3 plus the bus).
ENERGY_PARTS = ("icache_nj", "dcache_nj", "mem_nj", "up_core_nj",
                "asic_core_nj", "bus_nj")

#: Raw event counters of one cache.
CACHE_COUNTERS = ("reads", "writes", "read_hits", "write_hits",
                  "read_misses", "write_misses", "fills")


class CheckFailed(Exception):
    """An output of the program violates a property the method must have."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def energy_sum(run: Dict[str, float]) -> float:
    """Total energy recomputed from the run's components."""
    return sum(run[part] for part in ENERGY_PARTS)


def objective(energy_nj: float, geq: float, e0_nj: float, f: float,
              g: float, geq0: float) -> float:
    """The paper's scalar ``F * E / E0 + G * GEQ / GEQ0``."""
    return f * (energy_nj / e0_nj) + g * (geq / geq0)


def scalar_pick(candidates: Sequence[Dict[str, Any]], e0_nj: float,
                f: float, g: float, geq0: float) -> Optional[str]:
    """Label of the candidate minimizing the objective, first on ties,
    or ``None`` when none beats the all-software design (objective F)."""
    best_label, best_value = None, None
    for cand in candidates:
        value = objective(cand["energy_nj"], cand["geq"], e0_nj, f, g, geq0)
        if best_value is None or value < best_value:
            best_label, best_value = cand["label"], value
    if best_value is None or best_value >= f:
        return None
    return best_label


# -- table1 -----------------------------------------------------------------

def check_flow(rec: Dict[str, Any]) -> None:
    """One ``LowPowerFlow().run`` result (see ``table1.flow_record``)."""
    where = f"{rec['app']}@{rec['scale']}"
    initial, partitioned = rec["initial"], rec["partitioned"]
    _require(rec["interp_result"] == initial["result"],
             f"{where}: interpreter returned {rec['interp_result']}, "
             f"initial ISS run {initial['result']}")
    for label, run in (("initial", initial), ("partitioned", partitioned)):
        if run is None:
            continue
        _require(_close(run["total_energy_nj"], energy_sum(run)),
                 f"{where}: {label} total {run['total_energy_nj']} nJ is "
                 f"not the sum of its components {energy_sum(run)} nJ")
    best = rec["best"]
    if best is None:
        _require(partitioned is None and not rec["accepted"],
                 f"{where}: no core chosen, yet a partitioned design "
                 f"was evaluated or accepted")
        return
    _require(partitioned is not None,
             f"{where}: a core was chosen but never evaluated")
    _require(rec["interp_result"] == partitioned["result"],
             f"{where}: partitioned result {partitioned['result']} differs "
             f"from the interpreter's {rec['interp_result']}")
    _require(best["utilization"] > rec["up_utilization"],
             f"{where}: chosen core U_R {best['utilization']} is not above "
             f"U_uP {rec['up_utilization']}")
    e0 = energy_sum(initial)
    pick = scalar_pick(rec["candidates"], e0, rec["f"], rec["g"],
                       rec["geq0"])
    chosen = [c for c in rec["candidates"] if c["label"] == best["label"]]
    _require(bool(chosen), f"{where}: chosen core {best['label']} is not "
                           f"among the examined candidates")
    lowest = min(objective(c["energy_nj"], c["geq"], e0, rec["f"],
                           rec["g"], rec["geq0"]) for c in rec["candidates"])
    mine = objective(chosen[0]["energy_nj"], chosen[0]["geq"], e0, rec["f"],
                     rec["g"], rec["geq0"])
    _require(pick is not None and mine == lowest,
             f"{where}: chosen core {best['label']} has objective {mine}, "
             f"the examined minimum is {lowest}")
    _require(rec["accepted"] == (energy_sum(partitioned) < e0),
             f"{where}: accepted={rec['accepted']} but partitioned energy "
             f"{energy_sum(partitioned)} vs initial {e0}")


def check_scaling(records: Iterable[Dict[str, Any]]) -> None:
    """Initial cycles rise with ``scale`` for each app within a round."""
    groups: Dict[Tuple[int, str], List[Tuple[int, int]]] = {}
    for rec in records:
        groups.setdefault((rec["round"], rec["app"]), []).append(
            (rec["scale"], rec["initial"]["total_cycles"]))
    for (round_no, app), pairs in groups.items():
        pairs.sort()
        for (s1, c1), (s2, c2) in zip(pairs, pairs[1:]):
            _require(c2 > c1, f"{app} round {round_no}: {c2} cycles at "
                              f"scale {s2} not above {c1} at scale {s1}")


# -- pareto -----------------------------------------------------------------

def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    return all(x <= y for x, y in zip(a, b)) and tuple(a) != tuple(b)


def brute_force_front(vectors: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the non-dominated vectors, first occurrence of each."""
    seen = set()
    front = []
    for i, vec in enumerate(vectors):
        key = tuple(vec)
        if key in seen:
            continue
        seen.add(key)
        if not any(_dominates(other, vec) for other in vectors):
            front.append(i)
    return front


def check_frontier(section: Dict[str, Any], where: str) -> None:
    """One app section of a ``repro-frontier`` report."""
    points = section["points"]
    vectors = [(p["energy_nj"], p["geq"], p["cycles"]) for p in points]
    expected = brute_force_front(vectors)
    _require(sorted(section["front"]) == expected,
             f"{where}: front {sorted(section['front'])} differs from the "
             f"brute-force dominance pass {expected}")
    if expected:
        _require(section["knee"] in expected,
                 f"{where}: knee {section['knee']} is not on the front")
    e0_by_context: Dict[Tuple[Any, Any], float] = {}
    for row in section["variants"]:
        label = f"{where} variant {row['label']}"
        candidates = [
            {"label": p["label"], "energy_nj": p["energy_nj"],
             "geq": p["geq"]}
            for p in points
            if p["variant"] == row["index"] and p["label"] != "<initial>"]
        pick = scalar_pick(candidates, row["e0_nj"], row["f_energy"],
                           row["g_hardware"], row["geq_normalizer"])
        _require(pick == row["scalar_pick"],
                 f"{label}: scalar pick {row['scalar_pick']} but the "
                 f"objective's argmin is {pick}")
        # F/G and N_max do not change the initial design; cache geometry
        # and technology node do.
        context = (row["geometry"], row["tech"])
        first = e0_by_context.setdefault(context, row["e0_nj"])
        _require(row["e0_nj"] == first,
                 f"{label}: e0 {row['e0_nj']} differs from {first} of a "
                 f"variant with the same geometry and node")


# -- cachesweep -------------------------------------------------------------

def check_cache_profiles(counts: Tuple[int, int, int],
                         profiles: Sequence[Dict[str, Any]],
                         where: str) -> None:
    """Every replayed geometry saw exactly the trace's references.

    ``counts`` is (fetches, reads, writes) tallied by the benchmark from
    the trace events; each profile holds raw ``icache``/``dcache``
    counters (:data:`CACHE_COUNTERS`).
    """
    fetches, reads, writes = counts
    for n, prof in enumerate(profiles):
        icache, dcache = prof["icache"], prof["dcache"]
        label = f"{where} geometry {n}"
        _require(icache["reads"] + icache["writes"] == fetches,
                 f"{label}: i-cache saw {icache['reads'] + icache['writes']}"
                 f" accesses, the trace has {fetches} fetches")
        _require(dcache["reads"] + dcache["writes"] == reads + writes,
                 f"{label}: d-cache saw {dcache['reads'] + dcache['writes']}"
                 f" accesses, the trace has {reads + writes} reads+writes")
        for name, cache in (("i-cache", icache), ("d-cache", dcache)):
            hits = cache["read_hits"] + cache["write_hits"]
            misses = cache["read_misses"] + cache["write_misses"]
            _require(hits + misses == cache["reads"] + cache["writes"],
                     f"{label}: {name} hits {hits} + misses {misses} != "
                     f"accesses {cache['reads'] + cache['writes']}")


def check_same_profile(batch: Dict[str, Any], reference: Dict[str, Any],
                       where: str) -> None:
    """The batched replay equals the scalar reference replay."""
    _require(batch == reference,
             f"{where}: batched replay {batch} differs from the scalar "
             f"reference {reference}")


# -- service ----------------------------------------------------------------

#: The result fields compared against an in-process flow run.
SERVICE_COMPARED = ("accepted", "initial", "partitioned", "best_core")


def check_service(requests: Sequence[Dict[str, Any]],
                  jobs: Dict[str, Dict[str, Any]],
                  evaluations: int) -> None:
    """Every job done and verified, one evaluation per distinct digest,
    and every repeat served the job's own result.

    ``requests`` are the client-side records (``job``, ``digest`` and,
    for hits, the ``inline`` result the submit returned); ``jobs`` maps
    job id to its final descriptor.
    """
    digests = set()
    for req in requests:
        job = jobs[req["job"]]
        digests.add(req["digest"])
        _require(job["state"] == "done",
                 f"job {req['job']} ended {job['state']}: {job.get('error')}")
        _require(job["result"]["verified"] is True,
                 f"job {req['job']} result is not verified")
        _require(job["request_digest"] == req["digest"],
                 f"job {req['job']} carries digest {job['request_digest']}, "
                 f"submitted {req['digest']}")
        inline = req.get("inline")
        if inline is not None:
            _require(inline == job["result"],
                     f"repeat of job {req['job']} returned another result")
    _require(evaluations == len(digests),
             f"server ran {evaluations} evaluations for {len(digests)} "
             f"distinct digests")


def check_service_matches(served: Dict[str, Any], local: Dict[str, Any],
                          where: str) -> None:
    """A served result equals an in-process flow run of the request."""
    for key in SERVICE_COMPARED:
        _require(served[key] == local[key],
                 f"{where}: served {key} {served[key]} differs from the "
                 f"in-process run's {local[key]}")


class Verdict:
    """Runs checks and keeps going: a failed check is reported on stderr
    and makes the run's ``correct`` false without losing its metrics."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def __call__(self, check, *args) -> None:
        try:
            check(*args)
        except CheckFailed as exc:
            self.failures.append(str(exc))
            print(f"check failed: {exc}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return not self.failures
