"""The ``paper_suite`` process: ``run_experiments`` over the whole registry.

Usage: ``python3 perfbench/suite_child.py setup|run|trace [--smoke]``.  The
process prints one ``{"ready": true}`` line once the registry is
imported and the task list is built (the launcher times that as set-up),
then, unless the mode is ``setup``, runs the suite in-process with
``jobs=1`` and the scalar engine and prints one JSON result line.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def _jsonable(value):
    return value.item() if hasattr(value, "item") else str(value)


def _vm_hwm_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main(mode: str, smoke: bool) -> None:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.runner import run_experiments
    from repro.obs.metrics import get_registry

    ids, kwargs = list(ALL_EXPERIMENTS), {}
    if smoke:
        from repro.experiments.workloads import Workload

        tiny = Workload("smoke", "uniform", sizes=(3,), seed=1, instances_per_size=1)
        ids, kwargs = ["F1", "T2.1", "T5.3", "X12"], {"T5.3": {"workloads": [tiny]}}
    print(json.dumps({"ready": True}), flush=True)
    if mode == "setup":
        return
    tracer = None
    if mode == "trace":
        import layers

        tracer = layers.SuiteTracer()
    cpu0 = os.times()
    t0 = time.perf_counter()
    runs = run_experiments(ids, jobs=1, experiment_kwargs=kwargs)
    suite_s = time.perf_counter() - t0
    cpu1 = os.times()
    out = {
        "suite_s": suite_s,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "hwm_mb": _vm_hwm_mb(),
        "results": [
            {
                "id": run.exp_id,
                "passed": bool(run.result.passed),
                "duration": run.duration,
                "tables": [
                    {"title": t.title, "columns": list(t.columns), "rows": [list(r) for r in t.rows]}
                    for t in run.result.tables
                ] if run.exp_id == "T5.3" else [],
            }
            for run in runs
        ],
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics(runs, suite_s)
        out["program_snapshot"] = get_registry().snapshot()
    print(json.dumps(out, default=_jsonable), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], "--smoke" in sys.argv[2:])
