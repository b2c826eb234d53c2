"""Seeded synthetic pipe networks, written in the loopflow network-file format.

The generators use only the standard library, so the benchmark's inputs do
not depend on the code they measure.  Each one takes a `random.Random` and
returns a plain dict ready for `json.dump`:

* `grid` -- a rows x cols street grid;
* `ring_with_chords` -- a ring main with random cross connections;
* `tree_with_closures` -- a deep branched network with a few extra pipes
  that close long loops.

Demands are whole m³/h and node 1 supplies the sum of all others, so the
demands balance exactly in floating point.  Pipe orientation is random, so
solvers see negative reference flows from the first pass on.
"""

from __future__ import annotations

import random
from collections import deque

GAS_FLUID = {"kind": "gas", "rel_density": 0.6,
             "operating_pressure_pa": 400000.0, "normal_pressure_pa": 100000.0}
WATER_FLUID = {"kind": "water", "density_kg_m3": 1000.0,
               "viscosity_pa_s": 0.00089, "operating_pressure_pa": 400000.0}
FLUIDS = {"gas": GAS_FLUID, "water": WATER_FLUID}
ROUGHNESS_M = {"gas": 2e-05, "water": 5e-05}

# Commercial inner diameters, m.
DIAMETERS_M = (0.0508, 0.0762, 0.1016, 0.1524, 0.2032, 0.254, 0.3048,
               0.4064, 0.508, 0.6096, 0.762, 0.9144)
MESH_DIAMETERS_M = DIAMETERS_M[2:8]

# Design velocity for sizing tree pipes by the demand they carry, m/s
# (gas at operating pressure, water as is).
DESIGN_VELOCITY = {"gas": 10.0, "water": 2.0}


def grid(rows: int, cols: int, kind: str, rng: random.Random) -> dict:
    """Street grid of rows x cols junctions with random pipe sizes."""
    def node(r, c):
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                edges.append((node(r, c), node(r + 1, c)))
    rng.shuffle(edges)
    return _meshed_network(rows * cols, edges, kind, rng)


def ring_with_chords(n_nodes: int, n_chords: int, kind: str,
                     rng: random.Random) -> dict:
    """Ring main through n_nodes junctions plus n_chords random cross pipes."""
    edges = [(k, k % n_nodes + 1) for k in range(1, n_nodes + 1)]
    present = {frozenset(e) for e in edges}
    while len(edges) < n_nodes + n_chords:
        a, b = rng.sample(range(1, n_nodes + 1), 2)
        if frozenset((a, b)) not in present:
            present.add(frozenset((a, b)))
            edges.append((a, b))
    return _meshed_network(n_nodes, edges, kind, rng)


def tree_with_closures(n_nodes: int, n_closures: int, kind: str,
                       rng: random.Random, window: int = 20) -> dict:
    """Branched network fed from node 1, plus n_closures loop-closing pipes.

    Each new junction hangs off one of the `window` most recent ones, which
    makes the tree deep and the closed loops long.  Tree pipes are sized
    for the demand downstream of them at the fluid's design velocity.
    """
    parent = {k: rng.randint(max(1, k - window), k - 1)
              for k in range(2, n_nodes + 1)}
    demands = _demands(n_nodes, rng)
    downstream = {k: demands[k] for k in range(1, n_nodes + 1)}
    for k in range(n_nodes, 1, -1):
        downstream[parent[k]] += downstream[k]

    specs = [(parent[k], k, _design_diameter(downstream[k], kind))
             for k in range(2, n_nodes + 1)]
    present = {frozenset(e[:2]) for e in specs}
    while len(specs) < n_nodes - 1 + n_closures:
        a, b = rng.sample(range(2, n_nodes + 1), 2)
        if frozenset((a, b)) not in present:
            present.add(frozenset((a, b)))
            diameter = min(_design_diameter(downstream[a], kind),
                           _design_diameter(downstream[b], kind))
            specs.append((a, b, diameter))
    return _network(demands, specs, kind, rng)


def balanced_flows(net: dict, rng: random.Random) -> dict[int, float]:
    """A flow pattern (m³/h per pipe id) that meets every node demand.

    Pipes outside the breadth-first spanning tree get a random nonzero
    flow; `complete_flows` fills in the tree pipes.
    """
    demand = [abs(n["demand_m3h"]) for n in net["nodes"]]
    scale = max(demand) / len(demand) ** 0.5
    return complete_flows(net, {
        pid: rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0) * scale
        for pid in link_pipes(net)})


def link_pipes(net: dict) -> list[int]:
    """Ids of the pipes outside the breadth-first spanning tree, ascending.

    Their flows determine every other flow of a balanced pattern.
    """
    _, parent_pipe, _ = _spanning_tree(net)
    tree = {p["id"] for p in parent_pipe.values() if p is not None}
    return sorted(p["id"] for p in net["pipes"] if p["id"] not in tree)


def complete_flows(net: dict, link_flows: dict[int, float]) -> dict[int, float]:
    """Extend flows on the `link_pipes` (m³/h) to the one balanced pattern.

    Tree pipes carry whatever balances each node, leaves inward.
    """
    order, parent_pipe, incident = _spanning_tree(net)
    demand = {n["id"]: n["demand_m3h"] for n in net["nodes"]}
    flows = dict(link_flows)
    for node in reversed(order[1:]):
        up = parent_pipe[node]
        inflow = sum(flows[p["id"]] if p["to"] == node else -flows[p["id"]]
                     for p in incident[node] if p is not up)
        missing = demand[node] - inflow
        flows[up["id"]] = missing if up["to"] == node else -missing
    return flows


def _spanning_tree(net: dict):
    """Breadth-first visiting order from the first node, each node's pipe
    towards the root (None for the root), and the pipes at each node."""
    incident: dict[int, list[dict]] = {n["id"]: [] for n in net["nodes"]}
    for p in net["pipes"]:
        incident[p["from"]].append(p)
        incident[p["to"]].append(p)
    root = net["nodes"][0]["id"]
    order, parent_pipe = [root], {root: None}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for p in incident[node]:
            other = p["to"] if p["from"] == node else p["from"]
            if other not in parent_pipe:
                parent_pipe[other] = p
                order.append(other)
                queue.append(other)
    return order, parent_pipe, incident


def _meshed_network(n_nodes: int, edges: list[tuple[int, int]], kind: str,
                    rng: random.Random) -> dict:
    specs = [(a, b, rng.choice(MESH_DIAMETERS_M)) for a, b in edges]
    return _network(_demands(n_nodes, rng), specs, kind, rng)


def _demands(n_nodes: int, rng: random.Random) -> dict[int, float]:
    demands = {k: float(rng.randint(0, 10)) for k in range(2, n_nodes + 1)}
    demands[1] = -sum(demands.values())
    return demands


def _design_diameter(flow_m3h: float, kind: str) -> float:
    actual = flow_m3h / 3600.0
    if kind == "gas":
        actual *= GAS_FLUID["normal_pressure_pa"] / GAS_FLUID["operating_pressure_pa"]
    area = actual / DESIGN_VELOCITY[kind]
    for d in DIAMETERS_M:
        if 0.785398 * d * d >= area:
            return d
    return DIAMETERS_M[-1]


def _network(demands: dict[int, float], specs, kind: str,
             rng: random.Random) -> dict:
    pipes = []
    for pid, (a, b, diameter) in enumerate(specs, start=1):
        if rng.random() < 0.5:
            a, b = b, a
        pipes.append({"id": pid, "from": a, "to": b, "diameter_m": diameter,
                      "length_m": float(rng.randint(50, 400)),
                      "roughness_m": ROUGHNESS_M[kind]})
    return {
        "fluid": dict(FLUIDS[kind]),
        "nodes": [{"id": k, "demand_m3h": demands[k]} for k in sorted(demands)],
        "pipes": pipes,
    }
