"""``cachesweep``: trace capture plus a cache-geometry sweep per op
(footnote 4's cache adaptation).

An op links one app with caches, captures its memory trace with
``evaluate_initial(collect_trace=True)`` and replays it over the default
18-geometry space with ``explore_cache_profiles``.  The profiling
interpreter never runs.  A seeded sample of (op, geometry) pairs is
replayed again on the scalar reference engine, outside the op's time.
"""

from __future__ import annotations

import random
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from perfbench import checks
from perfbench.common import rotated, rounds_for, stimulus_length

#: (app, scale) kinds of one round.  ``ckey`` does not model its memory
#: system.  ``scale`` grows the data footprint of 3d, MPG and engine and
#: the pass or frame count of digs and trick.
KINDS = (("3d", 1), ("3d", 2), ("MPG", 1), ("MPG", 2), ("engine", 1),
         ("engine", 2), ("digs", 1), ("trick", 1))

#: (op, geometry) pairs per run checked against the reference engine.
REFERENCE_SAMPLES = 2

#: Nominal length of one round (8 sweeps) on a 2-CPU x86 host.
NOMINAL_ROUND_S = 18.0


@dataclass
class Op:
    app: str
    scale: int
    spec: Any
    #: Geometry index to re-check on the reference engine, if sampled.
    reference_geometry: Optional[int] = None

    @property
    def kind(self):
        return (self.app, self.scale)


def setup(seed: int, seconds: int) -> List[Op]:
    from repro.apps import app_by_name
    from repro.mem.explore import default_search_space
    from repro.power.system import evaluate_initial  # noqa: F401

    rng = random.Random(seed)
    rounds = rounds_for(seconds, NOMINAL_ROUND_S)
    base = {kind: app_by_name(*kind) for kind in KINDS}
    offsets = {kind: rng.sample(range(1, stimulus_length(spec, kind[0])),
                                rounds)
               for kind, spec in base.items()}
    ops: List[Op] = []
    for round_no in range(rounds):
        kinds = list(KINDS)
        rng.shuffle(kinds)
        for app, scale in kinds:
            ops.append(Op(app, scale, rotated(
                base[(app, scale)], app, offsets[(app, scale)][round_no])))
    geometries = len(default_search_space())
    for index in rng.sample(range(len(ops)), REFERENCE_SAMPLES):
        ops[index].reference_geometry = rng.randrange(geometries)
    return ops


def sweep(spec, library):
    """One op: link, capture the trace, replay it over every geometry."""
    from repro.isa.image import link_program
    from repro.mem.explore import explore_cache_profiles
    from repro.power.system import evaluate_initial

    image = link_program(spec.compile())
    run = evaluate_initial(image, library, args=spec.args,
                           globals_init=spec.globals_init,
                           icache_cfg=spec.icache, dcache_cfg=spec.dcache,
                           collect_trace=True)
    trace = run.stats.trace
    return trace, explore_cache_profiles(trace)


def _cache_record(cache) -> Dict[str, int]:
    return {name: getattr(cache, name) for name in checks.CACHE_COUNTERS}


def profile_record(profile) -> Dict[str, Any]:
    return {"icache": _cache_record(profile.icache),
            "dcache": _cache_record(profile.dcache),
            "stall_cycles": profile.stall_cycles,
            "memory_word_reads": profile.memory_word_reads,
            "memory_word_writes": profile.memory_word_writes}


def trace_counts(trace) -> tuple:
    """(fetches, reads, writes) tallied from the raw events."""
    from repro.mem.trace import Access

    tally = Counter(kind for kind, _ in trace.events)
    return (tally[Access.IFETCH], tally[Access.READ], tally[Access.WRITE])


def run(ops: List[Op], timer, verdict) -> Dict[str, Any]:
    from repro.mem.explore import default_search_space
    from repro.mem.profiler import profile_configs
    from repro.tech.library import cmos6_library

    library = cmos6_library()
    space = default_search_space()
    samples: List[tuple] = []
    failed = 0
    for op in ops:
        where = f"{op.app}@{op.scale}"
        try:
            (trace, profiles), seconds = timer.op(sweep, op.spec, library)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        samples.append((op.kind, seconds))
        records = [profile_record(p) for p in profiles]
        verdict(checks.check_cache_profiles, trace_counts(trace), records,
                where)
        if op.reference_geometry is not None:
            g = op.reference_geometry
            reference = profile_configs(trace, [space[g]],
                                        engine="reference")[0]
            verdict(checks.check_same_profile, records[g],
                    profile_record(reference), f"{where} geometry {g}")
        del trace, profiles
    return {"samples": samples, "attempted": len(ops), "failed": failed}
