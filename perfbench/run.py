"""DLS-LBL benchmark: serve latency and cost, and the paper suite.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --reference [--seconds S]

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  ``--smoke`` runs all three workloads briefly with every
check on and exits non-zero if any check fails; ``--reference`` prints
the reference figures.  See README.md here.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

SETUPS = 5
E2E = {
    "setup_s": "s", "peak_rss_mb": "MB", "server_cpu_ms_per_req": "ms",
    "throughput_rps": "1/s", "suite_s": "s",
}


def _metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


# -- serve workloads ---------------------------------------------------

def serve_timed(workload: str, seed: int, seconds: float) -> dict:
    import serveload
    import streams
    from checks import check_responses

    workers = 2 if workload == "serve_mixed_pool" else 0
    warmup = streams.warmup_requests(workload)
    setups, server = [], None
    try:
        for k in range(SETUPS):
            server = serveload.Server(workers, tag=str(k))
            setups.append(server.start(warmup))
            if k < SETUPS - 1:
                server.stop()
        pids = server.pids()
        stats0 = server.stats()
        run = serveload.drive(workload, seed, seconds, server.port, pids)
        stats1 = server.stats()
        rss = serveload.hwm_mb(pids)
    finally:
        if server is not None:
            server.stop()
    failed, problems = check_responses(run["requests"], run["responses"], seed)
    served = stats1.get("serve.requests", 0) - stats0.get("serve.requests", 0)
    if served != len(run["requests"]):
        problems.append(f"server counted {served:g} requests, client sent {len(run['requests'])}")
    wins = serveload.windows(run)
    mid = lambda key: statistics.median(w[key] for w in wins)  # noqa: E731
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "server_cpu_ms_per_req": mid("cpu_ms"),
        "throughput_rps": mid("rps"),
        "suite_s": run["elapsed_s"],
    }
    lat_ms = [lat * 1e3 for _, lat in run["done"]]
    return {"correct": not problems, "attempted": len(run["requests"]), "failed": failed,
            "metrics": _metrics(values, E2E), "problems": problems[:20],
            "reference": {
                "window_p50_ms": mid("p50_ms"),
                "whole_run_p50_ms": serveload.quantile(lat_ms, 0.5),
                "whole_run_p90_ms": serveload.quantile(lat_ms, 0.9),
                "whole_run_p99_ms": serveload.quantile(lat_ms, 0.99),
                "window_p90_ms": mid("p90_ms"),
                "window_p99_ms": mid("p99_ms"),
                "late_p90_ms": serveload.quantile(run["late_s"], 0.9) * 1e3 if run["late_s"] else 0.0,
                "host_steal_pct": run["steal_pct"],
                "samples": len(lat_ms), "windows": len(wins)}}


# -- paper suite -------------------------------------------------------

def _suite_child(mode: str, smoke: bool) -> tuple[float, dict | None]:
    """Launch the suite process; return (seconds to ready, result)."""
    import serveload

    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "suite_child.py"), mode] + ["--smoke"] * smoke,
                            env=serveload.program_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if not json.loads(ready or "{}").get("ready"):
            raise RuntimeError("suite process failed before it was ready")
        lines = proc.stdout.read().splitlines()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0:
        raise RuntimeError(f"suite process exited with {code}")
    return setup, (json.loads(lines[-1]) if lines else None)


def suite(mode: str, smoke: bool = False) -> dict:
    from checks import check_suite

    setups = [_suite_child("setup", smoke)[0] for _ in range(SETUPS - 1)]
    setup, out = _suite_child(mode, smoke)
    setups.append(setup)
    problems = check_suite(out["results"])
    n = len(out["results"])
    failed = sum(not r["passed"] for r in out["results"])
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": out["hwm_mb"],
        "server_cpu_ms_per_req": out["cpu_s"] * 1e3 / n,
        "throughput_rps": n / out["suite_s"],
        "suite_s": out["suite_s"],
    }
    return {"correct": not problems, "attempted": n, "failed": failed,
            "metrics": _metrics(values, E2E), "problems": problems[:20],
            "reference": {r["id"] + "_s": r["duration"] for r in out["results"]},
            "child": out}


WORKLOADS = ("serve_keyshare_open", "serve_mixed_pool", "paper_suite")
SWEEP_RATES = (200, 400, 700, 1000, 1200, 1400, 1600, 2000)
#: Latency limit for the saturation rate: the highest swept rate whose
#: whole-run p99 stays within it while the server keeps up.
P99_LIMIT_MS = 50.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    if trace:
        import layers

        return layers.traced(workload, seed, seconds, smoke)
    if workload == "paper_suite":
        return suite("run", smoke)
    return serve_timed(workload, seed, seconds)


#: What the traced run must show about each workload's traffic.
DESIGN = {
    "serve_keyshare_open": lambda m: (m["serve.dispatcher.rows_per_group"] > 1
                                      and m["serve.engine.scalar_fallbacks_per_req"] == 0
                                      and m["crypto.signatures_per_run"] == 0),
    "serve_mixed_pool": lambda m: (m["serve.dispatcher.rows_per_group"] < 1.1
                                   and abs(m["serve.pool.dispatches_per_req"] - 1 / m["serve.dispatcher.rows_per_group"]) < 1e-9),
    "paper_suite": lambda m: m["crypto.signatures_per_run"] > 0,
}


def smoke() -> int:
    """Every workload, briefly, timed and traced, with every check on."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, 0, 2.0, trace, smoke=True)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            ok = result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            if trace:
                ok = ok and DESIGN[workload](values)
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {workload} trace={int(trace)} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
            for problem in result.get("problems", []):
                print(f"    {problem}")
    return 1 if bad else 0


def reference(seconds: float) -> int:
    """Print the reference figures, which are reported but not bounded.

    One JSON line per swept offered rate of the key-sharing open loop,
    the saturation rate, then each workload's whole-run figures (p99
    latency, generator lateness, per-experiment durations) for seed 0.
    """
    import serveload
    import streams

    rows = []
    for rate in SWEEP_RATES:
        server = serveload.Server(0, tag=f"rate{rate}")
        try:
            server.start(streams.warmup_requests("serve_keyshare_open"))
            run = serveload.drive("serve_keyshare_open", 0, seconds, server.port, server.pids(), rate=rate)
        finally:
            server.stop()
        lat = [lat * 1e3 for _, lat in run["done"]]
        wins = serveload.windows(run)
        rows.append({"offered_rps": rate, "achieved_rps": len(lat) / run["elapsed_s"],
                     "failed": sum(not r.get("ok") for r in run["responses"].values()),
                     "p50_ms": serveload.quantile(lat, 0.5), "p99_ms": serveload.quantile(lat, 0.99),
                     "steal_pct": run["steal_pct"],
                     "cpu_ms_per_req": statistics.median(w["cpu_ms"] for w in wins) if wins else 0.0})
        print(json.dumps(rows[-1]), flush=True)
    kept = [r["offered_rps"] for r in rows if r["achieved_rps"] >= 0.95 * r["offered_rps"]
            and r["failed"] == 0 and r["p99_ms"] <= P99_LIMIT_MS]
    print(json.dumps({"saturation_rps": max(kept, default=0), "p99_limit_ms": P99_LIMIT_MS}), flush=True)
    for workload in WORKLOADS:
        result = run_workload(workload, 0, seconds, False)
        print(json.dumps({"workload": workload, "correct": result["correct"],
                          "reference": result["reference"]}), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    if args.smoke:
        return smoke()
    if args.reference:
        return reference(args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if result.get("problems"):
        print("\n".join(result["problems"]), file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
