"""``pareto``: one scenario variant per op (the Fig. 1 designer-knob sweep).

A round is one ``run_scenario`` call on a seeded :class:`Scenario` over
the six apps: one F/G weight point drawn from the ``fg-sweep`` catalog
entry, two ``N_max`` budgets and two technology nodes, so four variants
per app that all share the app's program and input.  An op is one
``ExplorationEngine.explore`` call inside it, timed at the method.
The F/G point varies between rounds and seeds, not within a round: a
third knob inside the round would double its length.
"""

from __future__ import annotations

import random
import sys
import traceback
from typing import Any, Dict, List

from perfbench import checks
from perfbench.common import APPS, rounds_for

N_MAX = (4, 8)
NODES_PER_ROUND = 2

#: Nominal length of one round (24 explores) on a 2-CPU x86 host.
NOMINAL_ROUND_S = 21.5


def setup(seed: int, seconds: int) -> List[Any]:
    from repro.scenarios import (  # noqa: F401
        Scenario, run_scenario, scenario_by_name)
    from repro.tech import tech_names

    weight_pool = scenario_by_name("fg-sweep").weights
    rng = random.Random(seed)
    scenarios = []
    for round_no in range(rounds_for(seconds, NOMINAL_ROUND_S)):
        apps = list(APPS)
        rng.shuffle(apps)
        scenarios.append(Scenario(
            name=f"bench-{seed}-{round_no}",
            description="benchmark round: N_max x node at one F/G point",
            apps=tuple(apps),
            weights=(rng.choice(weight_pool),),
            n_max_clusters=N_MAX,
            tech=tuple(rng.sample(tech_names(), NODES_PER_ROUND))))
    return scenarios


def _ops_per_round(scenario) -> int:
    return len(scenario.apps) * len(scenario.variants())


def run(scenarios: List[Any], timer, verdict) -> Dict[str, Any]:
    from repro.core.explore import ExplorationEngine
    from repro.scenarios import run_scenario

    samples: List[tuple] = []
    original = ExplorationEngine.explore

    def explore(engine, app, **kwargs):
        result, seconds = timer.op(original, engine, app, **kwargs)
        samples.append((app.name, seconds))
        return result

    attempted = failed = 0
    hits = lookups = 0
    ExplorationEngine.explore = explore
    try:
        for scenario in scenarios:
            expected = _ops_per_round(scenario)
            attempted += expected
            before = len(samples)
            try:
                result = run_scenario(scenario, jobs=1)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += expected
                del samples[before:]
                continue
            stats = result.cache_stats
            hits += stats["hits"]
            lookups += stats["hits"] + stats["misses"]
            for app, section in result.report["apps"].items():
                verdict(checks.check_frontier, section,
                        f"{scenario.name}/{app}")
    finally:
        ExplorationEngine.explore = original
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "layers": {"core.cache_hit_ratio":
                       hits / lookups if lookups else 0.0}}
