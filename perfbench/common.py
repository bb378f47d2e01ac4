"""Pieces every workload shares: run length, seeded inputs, op timing."""

from __future__ import annotations

import dataclasses
import resource
import time
from typing import Dict, Tuple

#: The six bundled applications, in the paper's Table 1 order.
APPS = ("3d", "MPG", "ckey", "digs", "engine", "trick")

#: Per app, the stimulus arrays (all of one length) that a seeded input
#: variant rotates.  Lookup tables, maps and permutations are left alone:
#: their layout is part of the program's meaning.
STIMULI: Dict[str, Tuple[str, ...]] = {
    "3d": ("xs", "ys", "zs"),
    "MPG": ("cur", "ref"),
    "ckey": ("fg_y", "fg_u", "fg_v", "bg_y"),
    "digs": ("img",),
    "engine": ("rpm", "load", "temp", "knock"),
    "trick": ("src",),
}


def rounds_for(seconds: int, nominal_round_s: float) -> int:
    """Whole rounds a run attempts.

    Every run of a workload attempts the same whole rounds, so the mix of
    op sizes, the number of samples behind each percentile and the share
    of failed ops do not depend on how fast one run happened to go.  The
    round count is fixed from ``--seconds`` by the round's nominal length
    on a 2-CPU x86 host, so a run measures about ``--seconds`` there.
    """
    return max(1, int(seconds / nominal_round_s + 0.5))


def stimulus_length(spec, app: str) -> int:
    return len(spec.globals_init[STIMULI[app][0]])


def rotated(spec, app: str, offset: int):
    """``spec`` with its stimulus arrays rotated by ``offset`` elements.

    The rotation keeps each array's values (so value ranges and the work
    per element hold) but changes the data, so no two variants of one
    (app, scale) share an input.  Arrays of one app rotate together, so
    per-element tuples (a pixel's Y/U/V, a vertex's x/y/z) stay whole.
    """
    globals_init = dict(spec.globals_init)
    for name in STIMULI[app]:
        values = globals_init[name]
        cut = offset % len(values)
        globals_init[name] = values[cut:] + values[:cut]
    return dataclasses.replace(spec, globals_init=globals_init)


def run_record(run):
    """A ``SystemRun`` as plain data, in the service's wire shape."""
    if run is None:
        return None
    e = run.energy
    return {"icache_nj": e.icache_nj, "dcache_nj": e.dcache_nj,
            "mem_nj": e.mem_nj, "up_core_nj": e.up_core_nj,
            "asic_core_nj": e.asic_core_nj, "bus_nj": e.bus_nj,
            "total_energy_nj": run.total_energy_nj,
            "up_cycles": run.up_cycles, "asic_cycles": run.asic_cycles,
            "total_cycles": run.total_cycles, "result": run.result}


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PlainTimer:
    """Op timing for the untraced run: one clock read on each side."""

    def __init__(self) -> None:
        self.op_s = 0.0

    def op(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.op_s += elapsed
        return result, elapsed
