"""``service``: requests to a fresh ``repro serve`` (the service tier).

Two client threads run a closed loop: each takes the next request of
the seeded plan, submits it (``POST /v1/jobs``) and follows it to
``finished`` on ``GET /v1/jobs/{id}/events``, then takes the next.

A round submits one fresh digest per app (app x tech x optimize, at
scale 1).  The apps go in fixed pairs (:data:`PAIRS`), one segment of
the plan per pair, segments in seeded order.  A segment for pair
``(a, b)`` is: ``a``; ``b``, submitted once ``a`` is, so it waits in the
queue behind ``a``; ``b`` again, taken by the client that followed ``a``
as soon as ``a`` finishes, while ``b`` runs (coalesced); then
:data:`HITS_PER_SEGMENT` repeats of digests of this round that have
finished (hits), shared by both clients once ``b`` is done.  So every
request's role (miss, queued, coalesced, hit) is fixed by the plan, not
by timing, and every run has the same mix.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from perfbench import checks, stats
from perfbench.common import rounds_for, run_record

#: The first app of a pair runs while the second waits behind it.
PAIRS = (("3d", "MPG"), ("ckey", "digs"), ("engine", "trick"))
HITS_PER_SEGMENT = 10
CLIENTS = 2
#: Served results re-run in-process per run, outside the timed region.
INPROCESS_SAMPLES = 2
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 120.0

#: Nominal length of one round (6 evaluations, 39 requests) on a 2-CPU
#: x86 host.
NOMINAL_ROUND_S = 7.0

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


def plan(seed: int, seconds: int,
         nodes: Sequence[str]) -> List[Dict[str, Any]]:
    """The seeded request list over the technology ``nodes``.

    Each item has a ``payload``, its planned ``role`` and, for a queued
    request, ``after``: the index of the item it must be submitted after.
    """
    rng = random.Random(seed)
    # Past 2 x len(nodes) rounds an app would need a (tech, optimize)
    # pair twice, and its request would no longer be a fresh digest.
    rounds = min(2 * len(nodes), rounds_for(seconds, NOMINAL_ROUND_S))
    # optimize alternates by round and app, so every seed runs the same
    # mix of program sizes; the node is seeded, never repeated per app.
    apps = [app for pair in PAIRS for app in pair]
    order = {(app, opt): rng.sample(list(nodes), len(nodes))
             for app in apps for opt in (False, True)}
    items: List[Dict[str, Any]] = []
    for round_no in range(rounds):
        pairs = list(PAIRS)
        rng.shuffle(pairs)
        finished: List[Dict[str, Any]] = []
        for pair in pairs:
            first, queued = (
                {"app": app, "optimize": optimize,
                 "tech": order[(app, optimize)][round_no // 2]}
                for app, optimize in (
                    (app, (round_no + apps.index(app)) % 2 == 1)
                    for app in pair))
            items.append({"payload": first, "role": "miss"})
            items.append({"payload": queued, "role": "queued",
                          "after": len(items) - 1})
            items.append({"payload": queued, "role": "coalesced"})
            finished += [first, queued]
            items.extend({"payload": rng.choice(finished), "role": "hit"}
                         for _ in range(HITS_PER_SEGMENT))
    return items


# -- HTTP -------------------------------------------------------------------

def _request(port: int, method: str, path: str,
             body: Optional[Dict[str, Any]] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        data = None if body is None else json.dumps(body)
        headers = {} if body is None else {
            "Content-Type": "application/json"}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get_json(port: int, path: str) -> Dict[str, Any]:
    status, body = _request(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path}: HTTP {status}: {body[:200]!r}")
    return json.loads(body)


class Server:
    """One ``repro serve --port 0 --checkpoint <fresh dir>`` process."""

    def __init__(self, root: str, workdir: str,
                 trace_out: Optional[str] = None) -> None:
        self.checkpoint = tempfile.mkdtemp(prefix="serve-", dir=workdir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root])
        if trace_out is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable,
                    os.path.join(root, "perfbench", "serve_traced.py"),
                    trace_out]
        argv += ["serve", "--port", "0", "--checkpoint", self.checkpoint]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, cwd=root,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        self.port = self._await_port()
        self._drain = threading.Thread(target=self._drain_stderr,
                                       daemon=True)
        self._drain.start()

    def _await_port(self) -> int:
        deadline = self.started + SERVER_START_TIMEOUT_S
        while time.perf_counter() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            match = _LISTENING.search(line)
            if match:
                return int(match.group(2))
        self.stop()
        raise RuntimeError("repro serve did not announce its port")

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            sys.stderr.write(line)

    def ready_s(self) -> float:
        """Seconds from spawning the server until ``/v1/healthz``
        answers ``ok``."""
        deadline = self.started + SERVER_START_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                if get_json(self.port, "/v1/healthz")["status"] == "ok":
                    return time.perf_counter() - self.started
            except (OSError, RuntimeError):
                time.sleep(0.005)
        raise RuntimeError("repro serve never became healthy")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=SERVER_STOP_TIMEOUT_S)
        shutil.rmtree(self.checkpoint, ignore_errors=True)


# -- load -------------------------------------------------------------------

def submit_and_follow(port: int, payload: Dict[str, Any], client: str,
                      posted: threading.Event) -> Dict[str, Any]:
    """One op: submit, then follow the job's event stream to the end.
    ``posted`` is set once the server has answered the submit."""
    start = time.perf_counter()
    status, body = _request(port, "POST", "/v1/jobs",
                            dict(payload, client=client))
    submitted = time.perf_counter()
    posted.set()
    if status != 202:
        raise RuntimeError(f"POST /v1/jobs: HTTP {status}: {body[:200]!r}")
    job = json.loads(body)
    status, stream = _request(port, "GET", f"/v1/jobs/{job['id']}/events")
    done = time.perf_counter()
    if status != 200:
        raise RuntimeError(f"events of {job['id']}: HTTP {status}")
    events = [json.loads(line) for line in stream.splitlines() if line]
    if not events or events[-1]["event"] != "finished":
        raise RuntimeError(f"events of {job['id']} end before finished")
    if job["created"]:
        kind = "miss"
    elif job["state"] in ("done", "failed"):
        kind = "hit"
    else:
        kind = "coalesced"
    return {"job": job["id"], "digest": job["request_digest"],
            "kind": kind, "latency_s": done - start,
            "submit_s": submitted - start,
            "inline": job["result"] if kind == "hit" else None,
            "ts": {e["event"]: e["ts"] for e in events
                   if e["event"] != "progress"}}


def drive(port: int, items: List[Dict[str, Any]]):
    """Run the closed loop; returns (records, failed, wall seconds)."""
    lock = threading.Lock()
    cursor = [0]
    submitted = [threading.Event() for _ in items]
    records: List[Dict[str, Any]] = []
    failures = [0]

    def client(name: str) -> None:
        while True:
            with lock:
                if cursor[0] >= len(items):
                    return
                index = cursor[0]
                cursor[0] += 1
            item = items[index]
            if "after" in item:
                submitted[item["after"]].wait(REQUEST_TIMEOUT_S)
            try:
                record = submit_and_follow(port, item["payload"], name,
                                           submitted[index])
            except (OSError, RuntimeError, ValueError) as exc:
                print(f"service request failed: {exc}", file=sys.stderr)
                submitted[index].set()
                with lock:
                    failures[0] += 1
                continue
            record.update(payload=item["payload"], role=item["role"])
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client, args=(f"bench-{n}",))
               for n in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, failures[0], time.perf_counter() - start


# -- checks -----------------------------------------------------------------

def _projection(result: Dict[str, Any]) -> Dict[str, Any]:
    best = result["best"]
    return {"accepted": result["accepted"], "initial": result["initial"],
            "partitioned": result["partitioned"],
            "best_core": (None if best is None else
                          [best["cluster"], best["resource_set"]])}


def inprocess_projection(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The same request run through ``LowPowerFlow`` in this process."""
    from repro.apps import app_by_name
    from repro.core.flow import LowPowerFlow
    from repro.tech import tech_by_name

    spec = app_by_name(payload["app"], scale=1)
    spec.optimize = payload["optimize"]
    flow = LowPowerFlow(library=tech_by_name(payload["tech"]).library())
    result = flow.run(spec)
    best = result.best
    return {"accepted": result.accepted,
            "initial": run_record(result.initial),
            "partitioned": run_record(result.partitioned),
            "best_core": (None if best is None else
                          [best.cluster.name, best.resource_set.name])}


def _median(values: List[float]) -> float:
    return stats.median(values) if values else 0.0


def _ready_s(root: str, workdir: str) -> float:
    """Set-up seconds of one fresh server that carries no load."""
    server = Server(root, workdir)
    try:
        return server.ready_s()
    finally:
        server.stop()


def run(root: str, workdir: str, seed: int, seconds: int, trace: bool,
        setup_runs: int, verdict) -> Dict[str, Any]:
    """Time ``setup_runs`` fresh servers, the first half before the load
    (the last of them carries it) and the rest after it; drive the plan,
    check every result."""
    from repro.tech import tech_names

    items = plan(seed, seconds, tech_names())
    trace_out = os.path.join(workdir, "serve-trace.json") if trace else None
    before = (setup_runs + 1) // 2
    setup_s = [_ready_s(root, workdir) for _ in range(before - 1)]
    server = Server(root, workdir, trace_out)
    try:
        setup_s.append(server.ready_s())
        records, failed, wall_s = drive(server.port, items)
        server_metrics = get_json(server.port, "/v1/metrics")
        jobs = {job_id: get_json(server.port, f"/v1/jobs/{job_id}")
                for job_id in sorted({r["job"] for r in records})}
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    setup_s += [_ready_s(root, workdir) for _ in range(setup_runs - before)]

    evaluations = server_metrics["counters"].get("service.evaluations", 0)
    verdict(checks.check_service, records, jobs, evaluations)
    job_of = {_key(r["payload"]): r["job"] for r in records}
    sampled = random.Random(seed).sample(
        sorted(job_of), min(INPROCESS_SAMPLES, len(job_of)))
    for key in sampled:
        verdict(checks.check_service_matches,
                _projection(jobs[job_of[key]]["result"]),
                inprocess_projection(json.loads(key)), key)

    observed = {"miss": "miss", "queued": "miss", "coalesced": "coalesced",
                "hit": "hit"}
    strays = [r for r in records if observed[r["role"]] != r["kind"]]
    if strays:
        print(f"service: {len(strays)} request(s) were served as another "
              f"kind than planned", file=sys.stderr)
    created = [r for r in records if r["kind"] == "miss"]
    hits = [r for r in records if r["kind"] == "hit"]
    evaluate_s = sum(r["ts"]["finished"] - r["ts"]["started"]
                     for r in created)
    layers = {
        "service.submit_s": _median([r["submit_s"] for r in records]),
        "service.hit_latency_s": _median([r["latency_s"] for r in hits]),
        "service.queue_wait_s": sum(r["ts"]["started"] - r["ts"]["queued"]
                                    for r in created),
        "service.evaluate_s": evaluate_s,
        "service.evaluations": evaluations,
        "service.hit_ratio": len(hits) / len(records) if records else 0.0,
        "core.cache_hit_ratio": server_metrics["cache"]["hit_rate"],
    }
    return {"samples": [((r["role"], r["payload"]["app"]), r["latency_s"])
                        for r in records],
            "attempted": len(items), "failed": failed, "wall_s": wall_s,
            "setup_s": setup_s, "peak_rss_mb": rss_mb, "layers": layers,
            "evaluate_total_s": evaluate_s, "trace_out": trace_out}


def _key(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True)
