"""Seeded request streams for the two serve workloads.

Every stream is a pure function of the workload seed: the program only
ever sees the generated wire messages.  Request seeds, deviant specs,
tenants and arrival times all come from one ``numpy`` generator seeded
with ``(seed, workload tag)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Open loop: offered rate (requests/s) on the key-sharing workload, under
#: half the saturation rate the reference sweep finds (about 1,000 req/s),
#: so that a spell of hypervisor steal does not push it into a backlog.
KEYSHARE_RATE = 450.0
#: Open loop: every request is a chain or star with this many links.
KEYSHARE_M = 8
#: Open loop: offered rate (requests/s) on the pooled workload, under a
#: third of what two workers complete with 16 requests kept in flight
#: (about 850 req/s).
MIXED_RATE = 250.0
#: A key is never reused within this many consecutive requests, so a
#: flush (at most 8 requests) never stacks two rows into one group.
MIXED_KEY_GAP = 16

ARRAY_KINDS = ("misbid", "slow", "overcharge")
LANE_KINDS = ("accuse", "contradict", "tamper", "shed", "miscompute")
TREE_KINDS = ("misbid", "slow")
_PARAMS = {
    "misbid": (0.5, 0.8, 1.25, 1.5, 2.0),
    "slow": (1.25, 1.5, 2.0, 3.0),
    "overcharge": (0.5, 1.0, 2.0),
}
_TENANTS = ("alpha", "alpha", "beta")


@dataclass(frozen=True)
class Request:
    """One generated request: the wire message plus what the checks need."""

    rid: int
    msg: dict

    @property
    def line(self) -> bytes:
        return json.dumps(self.msg).encode() + b"\n"

    @property
    def topology(self) -> str:
        return self.msg["topology"]

    @property
    def kind(self) -> str | None:
        deviant = self.msg.get("deviant")
        return None if deviant is None else deviant.split(":")[1]


def _deviant(rng: np.random.Generator, m: int, kinds: tuple[str, ...]) -> str:
    kind = kinds[int(rng.integers(len(kinds)))]
    spec = f"{int(rng.integers(1, m + 1))}:{kind}"
    params = _PARAMS.get(kind)
    if params is not None:
        spec += f":{params[int(rng.integers(len(params)))]:g}"
    return spec


def _message(rid: int, topology: str, m: int, seed: int, q: float, deviant, tenant=None) -> dict:
    msg = {"op": "run", "topology": topology, "m": m, "seed": seed,
           "audit_probability": q, "request_id": rid}
    if deviant is not None:
        msg["deviant"] = deviant
    if tenant is not None:
        msg["tenant"] = tenant
    return msg


def _poisson(rng: np.random.Generator, seconds: float, rate: float,
             requests: Iterator[Request]) -> list[tuple[float, Request]]:
    """Poisson arrivals at ``rate`` over ``seconds``: ``(offset_s, request)`` pairs."""
    out: list[tuple[float, Request]] = []
    t = float(rng.exponential(1.0 / rate))
    while t < seconds:
        out.append((t, next(requests)))
        t += float(rng.exponential(1.0 / rate))
    return out


def keyshare_stream(seed: int, seconds: float, rate: float = KEYSHARE_RATE) -> list[tuple[float, Request]]:
    """Poisson arrivals at ``rate`` over ``seconds``: ``(offset_s, request)`` pairs.

    Chain and star in equal shares at ``m = 8`` and one audit
    probability, so all requests fall on two batch keys.  Half are
    truthful; the rest carry one array-expressible deviant.
    """
    rng = np.random.default_rng([seed, 1])

    def requests() -> Iterator[Request]:
        rid = 0
        while True:
            topology = "chain" if rng.random() < 0.5 else "star"
            deviant = _deviant(rng, KEYSHARE_M, ARRAY_KINDS) if rng.random() < 0.5 else None
            yield Request(rid, _message(rid, topology, KEYSHARE_M, int(rng.integers(2**31)), 0.25, deviant))
            rid += 1

    return _poisson(rng, seconds, rate, requests())


def mixed_schedule(seed: int, seconds: float, rate: float = MIXED_RATE) -> list[tuple[float, Request]]:
    """Poisson arrivals at ``rate`` over ``seconds`` of :func:`mixed_stream`."""
    return _poisson(np.random.default_rng([seed, 3]), seconds, rate, mixed_stream(seed))


def mixed_stream(seed: int) -> Iterator[Request]:
    """Endless request stream over 30 batch keys.

    Keys are (chain|star|tree) x m in 4..8 x q in {0.25, 0.5}; each key
    is drawn among those unused in the last ``MIXED_KEY_GAP`` requests.
    Chain/star rows are a third truthful, the rest grievance-lane
    deviants; tree rows are half truthful, half misbid/slow.  Tenants
    ``alpha``:``beta`` are 2:1.
    """
    rng = np.random.default_rng([seed, 2])
    keys = [(t, m, q) for t in ("chain", "star", "tree") for m in range(4, 9) for q in (0.25, 0.5)]
    recent: list[int] = []
    rid = 0
    while True:
        free = [k for k in range(len(keys)) if k not in recent]
        k = free[int(rng.integers(len(free)))]
        recent = (recent + [k])[-MIXED_KEY_GAP:]
        topology, m, q = keys[k]
        if topology == "tree":
            deviant = _deviant(rng, m, TREE_KINDS) if rng.random() < 0.5 else None
        else:
            deviant = _deviant(rng, m, LANE_KINDS) if rng.random() < 2 / 3 else None
        tenant = _TENANTS[int(rng.integers(len(_TENANTS)))]
        yield Request(rid, _message(rid, topology, m, int(rng.integers(2**31)), q, deviant, tenant))
        rid += 1


def warmup_requests(workload: str) -> list[Request]:
    """Fixed warm-up pass, answered before a server counts as ready.

    It touches every engine path the workload uses; on the pooled
    server its distinct keys become separate groups, so both workers
    start.
    """
    if workload == "serve_keyshare_open":
        specs = [(t, KEYSHARE_M, 0.25, d) for t in ("chain", "star")
                 for d in (None, "2:misbid:1.5", "3:slow:2", "4:overcharge:1")]
    else:
        specs = [("chain", 4, 0.25, None), ("star", 5, 0.25, "2:accuse"),
                 ("tree", 6, 0.25, None), ("chain", 7, 0.5, "3:shed"),
                 ("star", 8, 0.5, "1:contradict"), ("tree", 8, 0.5, "2:slow:2"),
                 ("chain", 6, 0.25, "2:tamper"), ("star", 4, 0.5, "3:miscompute")]
    base = 1_000_000_000
    return [Request(base + i, _message(base + i, t, m, 7 + i, q, d))
            for i, (t, m, q, d) in enumerate(specs)]
