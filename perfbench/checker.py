"""Output checks for benchmark results, independent of the library under test.

Every check works on the network dict as generated (or as loaded from the
JSON file) and on plain {pipe id: value} mappings, so a defect in the
library's own bookkeeping cannot hide itself here.
"""

from __future__ import annotations

import math

M3H_PER_M3S = 3600.0

# Brute-force continuity tolerance, m³/s (the library's own feasibility
# tolerance).
NODE_BALANCE_TOL_M3S = 1e-9
# Flow agreement between methods and against recorded references, m³/h:
# the solvers' default convergence tolerance on successive flows.
FLOW_TOL_M3H = 0.01
# Diameter agreement against recorded references, m.
DIAMETER_TOL_M = 1e-6
# The library's default sizing bounds, m.
DIAMETER_BOUNDS_M = (0.01, 2.0)


def node_imbalance_m3s(net: dict, flows_m3s: dict) -> float:
    """Largest |net inflow - demand| over all nodes, m³/s.

    A flow that is missing or not finite reports an infinite imbalance.
    """
    residual = {n["id"]: -n["demand_m3h"] / M3H_PER_M3S for n in net["nodes"]}
    for p in net["pipes"]:
        q = flows_m3s.get(p["id"])
        if q is None or not math.isfinite(q):
            return math.inf
        residual[p["to"]] += q
        residual[p["from"]] -= q
    return max(abs(r) for r in residual.values())


def max_flow_difference_m3h(a_m3s: dict, b_m3s: dict) -> float:
    """Largest per-pipe difference between two flow mappings (m³/s in), m³/h."""
    if a_m3s.keys() != b_m3s.keys():
        return math.inf
    diffs = [abs(a_m3s[pid] - b_m3s[pid]) for pid in a_m3s]
    if not all(math.isfinite(d) for d in diffs):
        return math.inf
    return max(diffs) * M3H_PER_M3S


def check_flows(net: dict, flows_m3s: dict,
                reference_m3h: list[float] | None) -> list[str]:
    """Problems with one converged flow result; empty when it is correct.

    `reference_m3h` lists recorded flows in the file's pipe order, or None
    when no reference was recorded for this input.
    """
    problems = []
    imbalance = node_imbalance_m3s(net, flows_m3s)
    if not imbalance <= NODE_BALANCE_TOL_M3S:
        problems.append(f"node balance off by {imbalance:.3e} m3/s")
    if reference_m3h is not None:
        expected = {p["id"]: q / M3H_PER_M3S
                    for p, q in zip(net["pipes"], reference_m3h)}
        diff = max_flow_difference_m3h(flows_m3s, expected)
        if not diff <= FLOW_TOL_M3H:
            problems.append(f"flows differ from the reference by {diff:.3e} m3/h")
    return problems


def check_diameters(net: dict, diameters_m: dict,
                    reference_m: list[float] | None) -> list[str]:
    """Problems with one converged sizing result; empty when it is correct."""
    problems = []
    lo, hi = DIAMETER_BOUNDS_M
    if diameters_m.keys() != {p["id"] for p in net["pipes"]}:
        return ["sizing result does not cover exactly the network's pipes"]
    outside = [pid for pid, d in diameters_m.items() if not lo <= d <= hi]
    if outside:
        problems.append(f"diameters outside [{lo}, {hi}] m on pipes {outside[:5]}")
    if reference_m is not None:
        diffs = [abs(diameters_m[p["id"]] - d)
                 for p, d in zip(net["pipes"], reference_m)]
        diff = max(diffs) if all(math.isfinite(d) for d in diffs) else math.inf
        if not diff <= DIAMETER_TOL_M:
            problems.append(f"diameters differ from the reference by {diff:.3e} m")
    return problems
