"""Real ``repro serve start`` processes and the loopback load generator.

The server is launched exactly as a user would launch it
(``python -m repro serve start --port 0 --port-file ...``) from the
checkout's ``src``.  Its CPU time and peak resident set, and those of its
pool workers, are read from ``/proc`` (read only); dispatcher, pool and
engine counts come from ``{"op": "stats"}``.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable

import streams
from streams import Request

ROOT = Path(__file__).resolve().parent.parent
TMP = ROOT / ".perfbench_tmp"
READ_TIMEOUT_S = 60.0
#: The timed phase is cut into windows of this length; each end-to-end
#: figure is taken per window and the median window is reported, so a
#: stall on the shared host moves one or two windows, not the figure.
WINDOW_S = 2.0
_TICK = os.sysconf("SC_CLK_TCK")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile of the raw samples (an observed value)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def cpu_s(pids: Iterable[int]) -> float:
    """User plus system CPU seconds of ``pids`` (``/proc/<pid>/stat``)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _TICK


def hwm_mb(pids: Iterable[int]) -> float:
    """Summed ``VmHWM`` of ``pids`` in MB (``/proc/<pid>/status``)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def host_cpu_ticks() -> list[int]:
    """The machine-wide CPU tick counters of ``/proc/stat`` (user ... steal)."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:9]]


def steal_pct(t0: list[int], t1: list[int]) -> float:
    """Share of all CPU ticks between two readings that the hypervisor stole."""
    delta = [b - a for a, b in zip(t0, t1)]
    return 100.0 * delta[7] / max(sum(delta), 1)


def roundtrip(port: int, lines: list[bytes]) -> list[dict]:
    """Send ``lines`` at once on a fresh connection; return the replies."""
    with socket.create_connection(("127.0.0.1", port), timeout=READ_TIMEOUT_S) as sock:
        sock.sendall(b"".join(lines))
        fh = sock.makefile("rb")
        return [json.loads(fh.readline()) for _ in lines]


class Server:
    """One ``serve start`` process on an ephemeral loopback port."""

    def __init__(self, workers: int, tag: str) -> None:
        self.workers = workers
        TMP.mkdir(exist_ok=True)
        self.port_file = TMP / f"port-{os.getpid()}-{tag}"
        self.log_file = TMP / f"server-{tag}.log"
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, warmup: list[Request]) -> float:
        """Launch, wait for the port file, answer ``warmup``; return seconds taken."""
        self.port_file.unlink(missing_ok=True)
        t0 = time.perf_counter()
        with open(self.log_file, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "start", "--port", "0",
                 "--port-file", str(self.port_file), "--workers", str(self.workers)],
                env=program_env(), cwd=ROOT, stdout=log, stderr=log,
            )
        while True:
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.endswith("\n"):
                break
            if self.proc.poll() is not None or time.perf_counter() - t0 > READ_TIMEOUT_S:
                raise RuntimeError("serve start exited or never wrote its port file")
            time.sleep(0.002)
        self.port = int(text)
        replies = roundtrip(self.port, [r.line for r in warmup]) if warmup else []
        elapsed = time.perf_counter() - t0
        if not all(r.get("ok") for r in replies):
            raise RuntimeError(f"warm-up pass failed: {replies}")
        return elapsed

    def pids(self) -> list[int]:
        return _descendants(self.proc.pid)

    def stats(self) -> dict[str, float]:
        [reply] = roundtrip(self.port, [b'{"op": "stats"}\n'])
        return reply["stats"]["counters"]

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            roundtrip(self.port, [b'{"op": "shutdown"}\n'])
            self.proc.wait(timeout=READ_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.port_file.unlink(missing_ok=True)
            self.proc = None


async def _connect(port: int):
    return await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)


async def open_loop(port: int, schedule: list[tuple[float, Request]]) -> dict:
    """Send each request at its due time on one connection.

    Latency runs from the due time, so a stall also delays the requests
    due behind it; ``late_s`` records how late each send actually was.
    """
    loop = asyncio.get_running_loop()
    reader, writer = await _connect(port)
    responses: dict[int, dict] = {}
    received: dict[int, float] = {}

    async def read() -> None:
        while len(responses) < len(schedule):
            line = await reader.readline()
            now = loop.time()
            if not line:
                return
            msg = json.loads(line)
            responses[msg.get("request_id")] = msg
            received[msg.get("request_id")] = now

    reader_task = loop.create_task(read())
    late: list[float] = []
    start = loop.time() + 0.02
    for offset, req in schedule:
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(loop.time() - due)
        writer.write(req.line)
        if writer.transport.get_write_buffer_size() > 1 << 16:
            await writer.drain()
    await writer.drain()
    await asyncio.wait_for(reader_task, READ_TIMEOUT_S)
    writer.close()
    await writer.wait_closed()
    done = [(received[r.rid], received[r.rid] - (start + off)) for off, r in schedule if r.rid in received]
    return {"requests": [r for _, r in schedule], "responses": responses,
            "done": done, "late_s": late,
            "elapsed_s": max(received.values(), default=start) - start}


async def _drive(workload: str, seed: int, seconds: float, port: int, pids: list[int],
                 rate: float | None) -> dict:
    loop = asyncio.get_running_loop()
    ticks: list[tuple[float, float]] = []

    async def sample() -> None:
        while True:
            ticks.append((loop.time(), cpu_s(pids)))
            await asyncio.sleep(WINDOW_S)

    if workload == "serve_mixed_pool":
        schedule = streams.mixed_schedule(seed, seconds, rate or streams.MIXED_RATE)
    else:
        schedule = streams.keyshare_stream(seed, seconds, rate or streams.KEYSHARE_RATE)
    host0 = host_cpu_ticks()
    sampler = loop.create_task(sample())
    try:
        run = await open_loop(port, schedule)
    finally:
        sampler.cancel()
    ticks.append((loop.time(), cpu_s(pids)))
    run["ticks"] = ticks
    run["steal_pct"] = steal_pct(host0, host_cpu_ticks())
    return run


def drive(workload: str, seed: int, seconds: float, port: int, pids: list[int] = (),
          rate: float | None = None) -> dict:
    """Run a workload's load against ``port``; return the raw client record.

    ``ticks`` holds ``(time, CPU seconds of pids)`` every ``WINDOW_S``;
    ``steal_pct`` is the host's steal over the run; ``rate`` overrides
    the workload's offered rate.
    """
    return asyncio.run(_drive(workload, seed, seconds, port, list(pids), rate))


def windows(run: dict) -> list[dict]:
    """Per-window figures: completions, latency percentiles, CPU per request.

    The short tail window after the last send is left out; a run too
    short for one full window is taken as one window.
    """
    ticks = run["ticks"]
    spans = [(t0, c0, t1, c1) for (t0, c0), (t1, c1) in zip(ticks, ticks[1:])
             if t1 - t0 >= WINDOW_S / 2]
    out = []
    for t0, c0, t1, c1 in spans or [(*ticks[0], *ticks[-1])]:
        lat = [lat * 1e3 for t, lat in run["done"] if t0 <= t < t1]
        if len(lat) < 40 and spans:
            continue
        out.append({"n": len(lat), "rps": len(lat) / (t1 - t0), "cpu_ms": (c1 - c0) * 1e3 / max(len(lat), 1),
                    "p50_ms": quantile(lat, 0.5), "p90_ms": quantile(lat, 0.9), "p99_ms": quantile(lat, 0.99)})
    return out


def main(argv: list[str]) -> None:
    """Load-generator process: ``serveload.py WORKLOAD SEED SECONDS PORT``.

    Prints one JSON line: attempted, failed, check verdict, lateness.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from checks import check_responses

    workload, seed, seconds, port = argv[0], int(argv[1]), float(argv[2]), int(argv[3])
    run = drive(workload, seed, seconds, port)
    failed, problems = check_responses(run["requests"], run["responses"], seed)
    print(json.dumps({
        "attempted": len(run["requests"]), "failed": failed,
        "correct": not problems, "problems": problems[:20],
        "late_p90_ms": quantile(run["late_s"], 0.9) * 1e3 if run["late_s"] else 0.0,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
