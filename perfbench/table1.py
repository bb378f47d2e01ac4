"""``table1``: one ``LowPowerFlow().run`` per op (the paper's Table 1 use).

A round runs every bundled app at every scale in :data:`SCALES` once, in
seeded order.  Each round rotates each app's stimulus by a fresh seeded
offset, so no two ops of a run share an input and result or analysis
caching has nothing to reuse here.
"""

from __future__ import annotations

import random
import sys
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List

from perfbench import checks
from perfbench.common import (APPS, rotated, rounds_for, run_record,
                              stimulus_length)

SCALES = (1, 2)

#: Nominal length of one round (12 flows) on a 2-CPU x86 host.
NOMINAL_ROUND_S = 19.0


@dataclass
class Op:
    app: str
    scale: int
    round: int
    spec: Any

    @property
    def kind(self):
        return (self.app, self.scale)


def setup(seed: int, seconds: int) -> List[Op]:
    from repro.apps import app_by_name
    from repro.core.flow import LowPowerFlow  # noqa: F401  (import cost)

    rng = random.Random(seed)
    rounds = rounds_for(seconds, NOMINAL_ROUND_S)
    base = {(app, scale): app_by_name(app, scale)
            for app in APPS for scale in SCALES}
    offsets = {kind: rng.sample(range(1, stimulus_length(spec, kind[0])),
                                rounds)
               for kind, spec in base.items()}
    ops: List[Op] = []
    for round_no in range(rounds):
        kinds = sorted(base)
        rng.shuffle(kinds)
        for app, scale in kinds:
            spec = rotated(base[(app, scale)], app,
                           offsets[(app, scale)][round_no])
            ops.append(Op(app, scale, round_no, spec))
    return ops


def _label(candidate) -> str:
    return f"{candidate.cluster.name}@{candidate.resource_set.name}"


def flow_record(op: Op, result) -> Dict[str, Any]:
    """The plain data :func:`perfbench.checks.check_flow` inspects."""
    from repro.core.partitioner import PartitionConfig

    config = op.spec.config or PartitionConfig()
    decision = result.decision
    best = decision.best
    return {
        "app": op.app, "scale": op.scale, "round": op.round,
        "interp_result": result.profile.result,
        "initial": run_record(result.initial),
        "partitioned": run_record(result.partitioned),
        "accepted": result.accepted,
        "up_utilization": decision.up_utilization,
        "best": (None if best is None else
                 {"label": _label(best), "utilization": best.utilization}),
        "candidates": [{"label": _label(c), "energy_nj": c.vector.energy_nj,
                        "geq": c.vector.geq} for c in decision.candidates],
        "f": config.objective.f_energy,
        "g": config.objective.g_hardware,
        "geq0": config.objective.geq_normalizer,
    }


def run(ops: List[Op], timer, verdict) -> Dict[str, Any]:
    from repro.core.flow import LowPowerFlow

    samples, records, failed = [], [], 0
    for op in ops:
        try:
            result, seconds = timer.op(LowPowerFlow().run, op.spec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        samples.append((op.kind, seconds))
        records.append(flow_record(op, result))
        del result
    for rec in records:
        verdict(checks.check_flow, rec)
    verdict(checks.check_scaling, records)
    return {"samples": samples, "attempted": len(ops), "failed": failed}
