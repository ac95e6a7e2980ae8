"""Output checks computed apart from the program.

Truthful chain and star makespans are recomputed here from the
generated network with the closed forms (Algorithm 1's recursion; the
star's equal-finish ratios in non-decreasing ``z`` order).  The
properties below must hold row by row, and a fixed seeded sample of
rows must equal the program's own solo recipe bitwise.
"""

from __future__ import annotations

import numpy as np

from streams import Request

REL_TOL = 1e-12
SOLO_SAMPLE = 120


def _network(msg: dict):
    from repro.network.generators import random_linear_network, random_star_network

    rng = np.random.default_rng(msg["seed"])
    draw = random_star_network if msg["topology"] == "star" else random_linear_network
    net = draw(msg["m"], rng)
    return [float(x) for x in net.w], [float(x) for x in net.z]


def chain_makespan(w: list[float], z: list[float]) -> float:
    """Algorithm 1: w̄_m = w_m; w̄_i = w_i (w̄_{i+1} + z_{i+1}) / (w_i + w̄_{i+1} + z_{i+1})."""
    wbar = w[-1]
    for i in range(len(w) - 2, -1, -1):
        wbar = w[i] * (wbar + z[i]) / (w[i] + wbar + z[i])
    return wbar


def star_makespan(w: list[float], z: list[float]) -> float:
    """Equal finish times, children served in non-decreasing link time."""
    prev, ratio, total = w[0], 1.0, 0.0
    for c in sorted(range(len(z)), key=z.__getitem__):
        ratio *= prev / (z[c] + w[c + 1])
        total += ratio
        prev = w[c + 1]
    return w[0] / (1.0 + total)


def truthful_makespan(msg: dict) -> float:
    w, z = _network(msg)
    return star_makespan(w, z) if msg["topology"] == "star" else chain_makespan(w, z)


def _row_problem(req: Request, summary: dict) -> str | None:
    msg, kind = req.msg, req.kind
    for key in ("topology", "m", "seed"):
        if summary.get(key) != msg[key]:
            return f"{key} echo {summary.get(key)!r} != {msg[key]!r}"
    closed_form = msg["topology"] in ("chain", "star") and kind in (None, "misbid", "slow")
    if kind is None:
        if not summary["completed"] or summary["fines_total"] != 0.0 or summary["n_grievances"] != 0:
            return "truthful row fined, aggrieved or incomplete"
        if closed_form:
            ref = truthful_makespan(msg)
            if abs(summary["makespan"] - ref) > REL_TOL * ref:
                return f"makespan {summary['makespan']!r} != closed form {ref!r}"
    elif kind in ("misbid", "slow") and closed_form:
        ref = truthful_makespan(msg)
        if summary["makespan"] < ref * (1.0 - REL_TOL):
            return f"{kind} makespan {summary['makespan']!r} below truthful {ref!r}"
    elif kind == "accuse" and msg["topology"] == "chain":
        if summary["fines_total"] <= 0.0 or summary["n_grievances"] < 1:
            return "false accuser neither fined nor on record"
    elif kind == "contradict":
        if summary["completed"] or summary["fines_total"] <= 0.0:
            return "contradictory bidder not aborted with a fine"
        if msg["topology"] == "chain" and summary["aborted_phase"] != 1:
            return f"contradiction aborted in phase {summary['aborted_phase']!r}, not 1"
    return None


def check_responses(requests: list[Request], responses: dict[int, dict], seed: int) -> tuple[int, list[str]]:
    """Check every response against its request.

    Returns ``(failed, problems)``: ``failed`` counts requests with no
    ``ok`` response, ``problems`` lists wrong outputs (an empty list
    means every answered row passed).
    """
    from repro.serve.engine import solo_summary
    from repro.serve.request import MechanismRequest

    failed, problems = 0, []
    answered: list[Request] = []
    for req in requests:
        resp = responses.get(req.rid)
        if resp is None or not resp.get("ok"):
            failed += 1
            continue
        problem = _row_problem(req, resp["summary"])
        if problem is not None:
            problems.append(f"request {req.rid}: {problem}")
        answered.append(req)
    rng = np.random.default_rng([seed, 3])
    sample = rng.choice(len(answered), size=min(SOLO_SAMPLE, len(answered)), replace=False) if answered else []
    for k in sorted(int(i) for i in sample):
        req = answered[k]
        solo = solo_summary(MechanismRequest.from_wire(req.msg))
        if responses[req.rid]["summary"] != solo:
            problems.append(f"request {req.rid}: response differs from solo_summary")
        if req.topology == "tree" and req.kind in ("misbid", "slow"):
            truthful = dict(req.msg)
            del truthful["deviant"]
            ref = solo_summary(MechanismRequest.from_wire(truthful))["makespan"]
            if solo["makespan"] < ref * (1.0 - REL_TOL):
                problems.append(f"request {req.rid}: tree {req.kind} makespan below truthful")
    return failed, problems


def check_suite(results: list[dict]) -> list[str]:
    """Every experiment passed; T5.3's own tables show no gain from lying."""
    problems = [f"{r['id']} did not pass" for r in results if not r["passed"]]
    t53 = [r for r in results if r["id"] == "T5.3"]
    if not t53:
        return problems + ["T5.3 missing from the suite"]
    seen = 0
    for table in t53[0]["tables"]:
        cols = list(table["columns"])
        adv = [j for j, c in enumerate(cols) if str(c).startswith("max advantage")]
        vio = [j for j, c in enumerate(cols) if c == "violations"]
        if not adv or not vio:
            continue
        for row in table["rows"]:
            seen += 1
            if not float(row[adv[0]]) <= 0.0:
                problems.append(f"T5.3 {table['title']}: lying gained {row[adv[0]]!r}")
            if row[vio[0]] != 0:
                problems.append(f"T5.3 {table['title']}: {row[vio[0]]} violations")
    if seen == 0:
        problems.append("T5.3 has no advantage/violations table")
    return problems
