"""The traced run: per-layer metrics timed from the benchmark's own code.

Wrappers replace the program's public functions (in every loaded
``repro`` module that holds them) and record calls and nanoseconds,
counting only the outermost call of each layer.  End-to-end metrics are
never taken from a traced run.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Every per-layer metric and its unit; a workload that does not reach
#: a layer reports 0 for it.
PER_LAYER = {
    "serve.service.parse_us_per_req": "us",
    "serve.service.encode_us_per_req": "us",
    "serve.admission.us_per_req": "us",
    "serve.dispatcher.reqs_per_flush": "count",
    "serve.dispatcher.rows_per_group": "count",
    "serve.pool.dispatches_per_req": "count",
    "serve.pool.handoff_us_per_group": "us",
    "serve.pool.cold_first_ms": "ms",
    "serve.engine.array_us_per_row": "us",
    "serve.engine.lane_us_per_row": "us",
    "serve.engine.tree_us_per_row": "us",
    "serve.engine.fold_us_per_row": "us",
    "serve.engine.scalar_fallbacks_per_req": "count",
    "mechanism.chain_ms_per_run": "ms",
    "mechanism.star_ms_per_run": "ms",
    "mechanism.tree_ms_per_run": "ms",
    "mechanism.lil_ms_per_run": "ms",
    "mechanism.batch_us_per_row": "us",
    "crypto.signatures_per_run": "count",
    "crypto.verifications_per_run": "count",
    "crypto.canonical_bytes_per_signature": "count",
    "crypto.canonical_bytes_us_per_call": "us",
    "crypto.sign_us_per_call": "us",
    "crypto.verify_us_per_call": "us",
    "dlt.solve_us_per_call": "us",
    "dlt.cache_hit_ratio": "ratio",
    "sim.simulate_us_per_call": "us",
    "runtime.resilient_ms_per_run": "ms",
    "experiments.T5.3_s": "s",
    "experiments.X3_s": "s",
    "experiments.X13_s": "s",
    "experiments.X10_s": "s",
    "experiments.X4_s": "s",
    "loadgen.late_p90_ms": "ms",
    "trace_overhead_pct": "%",
}

def _rows(args, kwargs) -> int:
    """Stacked rows of a batch-engine call (its ``w`` argument)."""
    return len(args[0])


#: (module, attribute, layer name, rows-per-call) for plain functions.
DEEP_FUNCTIONS = (
    ("repro.crypto.signing", "canonical_bytes", "crypto.canonical_bytes", None),
    ("repro.crypto.signing", "sign", "crypto.sign", None),
    ("repro.dlt.solver", "solve", "dlt.solve", None),
    ("repro.dlt.linear", "solve_linear_boundary", "dlt.solve", None),
    ("repro.sim.linear_sim", "simulate_linear_chain", "sim.simulate", None),
    ("repro.runtime.session", "run_resilient", "runtime.resilient", None),
    ("repro.mechanism.batch_run", "run_chain_batch", "mechanism.batch", _rows),
    ("repro.mechanism.batch_run", "run_star_batch", "mechanism.batch", _rows),
)
#: (module, class, method, layer name); only exact-class calls count, so
#: the lane subclasses of the chain and star mechanisms stay out.
DEEP_METHODS = (
    ("repro.crypto.signing", "SignedMessage", "verify", "crypto.verify"),
    ("repro.mechanism.dls_lbl", "DLSLBLMechanism", "run", "mechanism.chain"),
    ("repro.mechanism.star_mechanism", "StarMechanism", "run", "mechanism.star"),
    ("repro.mechanism.tree_mechanism", "TreeMechanism", "run", "mechanism.tree"),
    ("repro.mechanism.dls_lil", "DLSLILMechanism", "run", "mechanism.lil"),
)
SCALAR_RUNS = ("mechanism.chain", "mechanism.star", "mechanism.tree", "mechanism.lil")


class Tracer:
    """Calls, nanoseconds and rows per layer, outermost calls only."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.ns: dict[str, int] = defaultdict(int)
        self.rows: dict[str, int] = defaultdict(int)
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _timed(self, fn, name_of, rows=None):
        calls, ns, nrows, depth = self.calls, self.ns, self.rows, self._depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args)
            if name is None or depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ns[name] += clock() - start
                calls[name] += 1
                depth[name] -= 1
                if rows is not None:
                    nrows[name] += rows(args, kwargs)

        return wrapper

    def function(self, module: str, attr: str, name, rows=None) -> None:
        """Wrap ``module.attr`` wherever a loaded ``repro`` module holds it."""
        original = getattr(importlib.import_module(module), attr)
        name_of = name if callable(name) else (lambda args, _n=name: _n)
        wrapper = self._timed(original, name_of, rows)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def method(self, module: str, cls_name: str, attr: str, name: str) -> None:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[attr]
        wrapper = self._timed(original, lambda args: name if type(args[0]) is cls else None)
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, original))

    def install_deep(self) -> None:
        for module, attr, name, rows in DEEP_FUNCTIONS:
            self.function(module, attr, name, rows)
        for module, cls_name, attr, name in DEEP_METHODS:
            self.method(module, cls_name, attr, name)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def per_call(self, name: str, scale: float) -> float:
        return self.ns[name] / scale / self.calls[name] if self.calls[name] else 0.0

    def total_calls(self) -> int:
        return sum(self.calls.values())


def wrapper_cost_ns(n: int = 200_000) -> float:
    """Measured cost of one wrapped call beyond the call itself."""
    def noop(*args):
        return None

    wrapped = Tracer()._timed(noop, lambda args: "calibrate")
    elapsed = []
    for fn in (noop, wrapped):
        start = time.perf_counter_ns()
        for _ in range(n):
            fn(1)
        elapsed.append(time.perf_counter_ns() - start)
    return max(0.0, (elapsed[1] - elapsed[0]) / n)


def overhead_pct(tracer: Tracer, traced_s: float) -> float:
    """Wrapper cost as a share of the traced time with that cost taken out."""
    cost_s = tracer.total_calls() * wrapper_cost_ns() / 1e9
    return 100.0 * cost_s / max(traced_s - cost_s, 1e-9)


def deep_metrics(tracer: Tracer, counters: dict[str, float]) -> dict[str, float]:
    """Mechanism, crypto, dlt, sim and runtime metrics of a deep trace."""
    runs = sum(tracer.calls[n] for n in SCALAR_RUNS)
    signatures = counters.get("crypto.signatures_created", 0.0)
    return {
        "mechanism.chain_ms_per_run": tracer.per_call("mechanism.chain", 1e6),
        "mechanism.star_ms_per_run": tracer.per_call("mechanism.star", 1e6),
        "mechanism.tree_ms_per_run": tracer.per_call("mechanism.tree", 1e6),
        "mechanism.lil_ms_per_run": tracer.per_call("mechanism.lil", 1e6),
        "mechanism.batch_us_per_row": (tracer.ns["mechanism.batch"] / 1e3 / tracer.rows["mechanism.batch"]
                                       if tracer.rows["mechanism.batch"] else 0.0),
        "crypto.signatures_per_run": signatures / runs if runs else 0.0,
        "crypto.verifications_per_run": (counters.get("crypto.verifications_performed", 0.0) / runs
                                         if runs else 0.0),
        "crypto.canonical_bytes_per_signature": (tracer.calls["crypto.canonical_bytes"] / signatures
                                                 if signatures else 0.0),
        "crypto.canonical_bytes_us_per_call": tracer.per_call("crypto.canonical_bytes", 1e3),
        "crypto.sign_us_per_call": tracer.per_call("crypto.sign", 1e3),
        "crypto.verify_us_per_call": tracer.per_call("crypto.verify", 1e3),
        "dlt.solve_us_per_call": tracer.per_call("dlt.solve", 1e3),
        "sim.simulate_us_per_call": tracer.per_call("sim.simulate", 1e3),
        "runtime.resilient_ms_per_run": tracer.per_call("runtime.resilient", 1e6),
    }


def _cache_info():
    from repro.dlt.batch import linear_cache_info

    return linear_cache_info()


def _hit_ratio(before, after) -> float:
    hits, misses = after.hits - before.hits, after.misses - before.misses
    return hits / (hits + misses) if hits + misses else 0.0


class SuiteTracer(Tracer):
    """Deep wrappers installed before ``run_experiments`` (suite process)."""

    def __init__(self) -> None:
        super().__init__()
        self.cache0 = _cache_info()
        self.install_deep()

    def metrics(self, runs, suite_s: float) -> dict[str, float]:
        from repro.obs.metrics import get_registry

        counters = get_registry().snapshot().get("counters", {})
        out = deep_metrics(self, counters)
        out["dlt.cache_hit_ratio"] = _hit_ratio(self.cache0, _cache_info())
        durations = {run.exp_id: run.duration for run in runs}
        for exp_id in ("T5.3", "X3", "X13", "X10", "X4"):
            out[f"experiments.{exp_id}_s"] = durations.get(exp_id, 0.0)
        out["trace_overhead_pct"] = overhead_pct(self, suite_s)
        return out


# -- serve -------------------------------------------------------------

REPLAY_ROWS = 2000
HANDOFF_GROUPS = 300


def _cold_first_ms() -> float:
    """Latency of the first request to a fresh ``--workers 2`` server."""
    import serveload
    import streams

    server = serveload.Server(2, tag="cold")
    try:
        server.start([])
        first = streams.warmup_requests("serve_mixed_pool")[0]
        start = time.perf_counter()
        serveload.roundtrip(server.port, [first.line])
        return (time.perf_counter() - start) * 1e3
    finally:
        server.stop()


async def _hosted(workload: str, seed: int, seconds: float, workers: int) -> dict:
    """Host ``MechanismService`` here and replay the workload at it from
    a separate load-generator process; record the groups it forms."""
    import streams
    from repro.serve import MechanismService, WorkerPool

    service = MechanismService(port=0, workers=workers)
    await service.start()
    groups: list[dict] = []
    dispatcher = sys.modules["repro.serve.dispatcher"]
    inline, submit = dispatcher.run_group_rows, WorkerPool.submit

    def record_inline(requests):
        groups.append({"requests": list(requests)})
        return inline(requests)

    def record_submit(pool, requests):
        groups.append({"requests": list(requests)})
        return submit(pool, requests)

    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        warm = streams.warmup_requests(workload)
        writer.write(b"".join(r.line for r in warm))
        for _ in warm:
            await reader.readline()
        writer.close()
        await writer.wait_closed()
        stats0 = service.stats()["counters"]
        dispatcher.run_group_rows, WorkerPool.submit = record_inline, record_submit
        args = [workload, str(seed), str(seconds), str(service.port)]
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(HERE / "serveload.py"), *args,
            stdout=asyncio.subprocess.PIPE, cwd=str(ROOT))
        out, _ = await proc.communicate()
        client = json.loads(out.decode().splitlines()[-1])
        stats1 = service.stats()["counters"]
        # Let the connection handlers see the client's EOF before the
        # service stops (stop() does not wait for them).
        await asyncio.sleep(0.2)
    finally:
        dispatcher.run_group_rows, WorkerPool.submit = inline, submit
        await service.stop()
    delta = {k: stats1.get(k, 0.0) - stats0.get(k, 0.0) for k in stats1}
    return {"client": client, "stats": delta, "groups": groups}


def _replay(groups: list[dict], deep: bool) -> tuple[Tracer, list]:
    """Run the recorded groups in-process; per-group time goes in ``inproc_ns``."""
    from repro.serve.engine import run_group_rows

    tracer = Tracer()
    tracer.function("repro.serve.engine", "solo_summary",
                    lambda args: "serve.engine.tree" if args[0].topology == "tree" else "serve.engine.lane")
    if deep:
        tracer.install_deep()
    rows = []
    try:
        for group in groups:
            solo0 = tracer.ns["serve.engine.lane"] + tracer.ns["serve.engine.tree"]
            t0 = time.perf_counter_ns()
            responses, snaps = run_group_rows(group["requests"])
            group["inproc_ns"] = time.perf_counter_ns() - t0
            group["array_ns"] = group["inproc_ns"] - (
                tracer.ns["serve.engine.lane"] + tracer.ns["serve.engine.tree"] - solo0)
            group["array_rows"] = sum(r.served["engine"] == "array" for r in responses)
            rows.extend(zip(group["requests"], responses, snaps))
    finally:
        tracer.uninstall()
    tracer.wall_ns = sum(g["inproc_ns"] for g in groups)
    return tracer, rows


def _per_req_us(fn, items) -> float:
    start = time.perf_counter_ns()
    for item in items:
        fn(item)
    return (time.perf_counter_ns() - start) / 1e3 / max(len(items), 1)


async def _handoff_us(groups: list[dict]) -> list[float]:
    """Sequential ``WorkerPool.submit`` round trips on a warm two-worker
    pool, each minus the same group's in-process time."""
    from repro.serve.pool import WorkerPool

    pool = WorkerPool(2)
    try:
        pool.warm()
        out = []
        for group in groups[:HANDOFF_GROUPS]:
            start = time.perf_counter_ns()
            await pool.submit(group["requests"])
            out.append((time.perf_counter_ns() - start - group["inproc_ns"]) / 1e3)
        return out
    finally:
        pool.close()


async def _admission_us(requests) -> float:
    from repro.serve.admission import AdmissionQueue

    queue = AdmissionQueue(256)
    start = time.perf_counter_ns()
    for k in range(0, len(requests), 16):
        chunk = requests[k:k + 16]
        for request in chunk:
            queue.submit(request)
        for _ in chunk:
            queue.get_nowait()
    return (time.perf_counter_ns() - start) / 1e3 / max(len(requests), 1)


def serve_traced(workload: str, seed: int, seconds: float) -> dict:
    import streams
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.request import MechanismRequest

    workers = 2 if workload == "serve_mixed_pool" else 0
    cold_ms = _cold_first_ms() if workers else 0.0
    hosted = asyncio.run(_hosted(workload, seed, seconds, workers))
    client, stats = hosted["client"], hosted["stats"]
    requests = stats.get("serve.requests", 0.0)

    replay, total = [], 0
    for group in hosted["groups"]:
        if total >= REPLAY_ROWS:
            break
        replay.append(group)
        total += len(group["requests"])
    _replay(replay[:50], deep=False)  # first-call costs stay out of the numbers
    cache0 = _cache_info()
    shallow, rows = _replay(replay, deep=False)
    # A group's time beyond its lane and tree rows is its array rows' time.
    array_ns = sum(g["array_ns"] for g in replay if g["array_rows"])
    handoff = asyncio.run(_handoff_us(replay)) if workers else []
    deep, deep_rows = _replay(replay, deep=True)
    cache1 = _cache_info()

    fold = MetricsRegistry()
    ordered = sorted(deep_rows, key=lambda row: row[0].request_id)
    start = time.perf_counter_ns()
    for _req, _resp, snap in ordered:
        fold.merge(snap)
    fold_us = (time.perf_counter_ns() - start) / 1e3 / max(len(ordered), 1)

    engines = defaultdict(int)
    for _req, resp, _snap in rows:
        engines[resp.served["engine"]] += 1

    schedule = streams.mixed_schedule if workload == "serve_mixed_pool" else streams.keyshare_stream
    sent = [r for _, r in schedule(seed, seconds)]
    lines = [r.line for r in sent[:5000]]
    parsed = [MechanismRequest.from_wire(json.loads(line)) for line in lines]

    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(deep_metrics(deep, fold.snapshot().get("counters", {})))
    values.update({
        "serve.service.parse_us_per_req": _per_req_us(
            lambda line: MechanismRequest.from_wire(json.loads(line)).validate(), lines),
        "serve.service.encode_us_per_req": _per_req_us(
            lambda resp: json.dumps(resp.to_wire(), sort_keys=True), [r[1] for r in rows]),
        "serve.admission.us_per_req": asyncio.run(_admission_us(parsed)),
        "serve.dispatcher.reqs_per_flush": requests / max(stats.get("serve.flushes", 0.0), 1.0),
        "serve.dispatcher.rows_per_group": requests / max(stats.get("serve.flush_groups", 0.0), 1.0),
        "serve.pool.dispatches_per_req": stats.get("serve.pool_dispatches", 0.0) / max(requests, 1.0),
        "serve.pool.handoff_us_per_group": statistics.fmean(handoff) if handoff else 0.0,
        "serve.pool.cold_first_ms": cold_ms,
        "serve.engine.array_us_per_row": array_ns / 1e3 / engines["array"] if engines["array"] else 0.0,
        "serve.engine.lane_us_per_row": shallow.per_call("serve.engine.lane", 1e3),
        "serve.engine.tree_us_per_row": shallow.per_call("serve.engine.tree", 1e3),
        "serve.engine.fold_us_per_row": fold_us,
        "serve.engine.scalar_fallbacks_per_req": stats.get("mechanism.scalar_fallbacks", 0.0) / max(requests, 1.0),
        "dlt.cache_hit_ratio": _hit_ratio(cache0, cache1),
        "loadgen.late_p90_ms": client["late_p90_ms"],
        "trace_overhead_pct": overhead_pct(deep, deep.wall_ns / 1e9),
    })
    record = {"workload": workload, "seed": seed, "metrics": values, "client": client,
              "stats_delta": stats, "engine_rows": dict(engines), "replayed_rows": len(rows),
              "program_snapshot": fold.snapshot()}
    return {"correct": client["correct"] and requests == client["attempted"],
            "attempted": client["attempted"], "failed": client["failed"],
            "values": values, "record": record, "problems": client["problems"]}


def suite_traced(smoke: bool) -> dict:
    import run

    result = run.suite("trace", smoke)
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(result["child"]["layers"])
    result["values"] = values
    result["record"] = {"workload": "paper_suite", "metrics": values,
                        "program_snapshot": result["child"]["program_snapshot"]}
    return result


def traced(workload: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    result = suite_traced(smoke) if workload == "paper_suite" else serve_traced(workload, seed, seconds)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps(result["record"], indent=1, sort_keys=True, default=str))
    result["metrics"] = {name: {"value": float(result["values"][name]), "unit": unit}
                         for name, unit in PER_LAYER.items()}
    return result
