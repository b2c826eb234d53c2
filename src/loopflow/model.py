"""Domain types for looped pipe networks: pipes, nodes, fluids, flow states.

Unit conventions (see README): geometry in m, pressures in Pa, node demands
in m³/h (the customary reporting unit), pipe flows in m³/s everywhere inside
the library.  The 3600 factor is applied only at file and report boundaries.

A `Network` indexes itself once, when it is constructed: the end nodes of
every pipe as node indices, the incident pipes of every node as pipe
indices (compressed rows, in `incident_pipes` order), the pipes in id
order, the reference node's index, and read-only geometry arrays
(`PipeArrays.of`).  Validation, the spanning tree, the loop basis, the
start and the node balances all work on these integer arrays.  Nothing
derived from a tree, a basis or a flow is kept: each call derives its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import isfinite
from operator import eq

import numpy as np

NodeId = str | int
PipeId = int

M3H_PER_M3S = 3600.0

# Accepted imbalance of the network-wide demand sum, m³/h.
DEMAND_BALANCE_TOL_M3H = 1e-9
# Accepted per-node residual of a feasible flow pattern, m³/s.
NODE_BALANCE_TOL_M3S = 1e-9

GAS = "gas"
WATER = "water"


def m3h_to_m3s(value: float) -> float:
    return value / M3H_PER_M3S


def m3s_to_m3h(value: float) -> float:
    return value * M3H_PER_M3S


@dataclass(frozen=True)
class Pipe:
    """One conduit with a fixed reference orientation from_node -> to_node.

    Signed flows are positive when running along the reference orientation;
    a negative flow means the fluid currently runs against it.
    """
    id: PipeId
    from_node: NodeId
    to_node: NodeId
    diameter: float      # inner diameter, m
    length: float        # m
    roughness: float = 0.0   # absolute inner-surface roughness, m


@dataclass(frozen=True)
class NodeSpec:
    """A junction with its fixed demand (consumption > 0, supply < 0), m³/h."""
    id: NodeId
    demand_m3h: float = 0.0


@dataclass(frozen=True)
class FluidSpec:
    """Fluid selection plus the physical properties the chosen model needs.

    Gas networks need `rel_density` and both pressures (flows are stated at
    normal conditions, velocities at operating pressure).  Water networks
    need `density` and `viscosity`; their pressure fields only serve as the
    default head for pressure propagation.
    """
    kind: str                           # GAS or WATER
    rel_density: float | None = None    # gas: density relative to air
    density: float | None = None        # water: kg/m³
    viscosity: float | None = None      # water: dynamic viscosity, Pa·s
    operating_pressure: float = 4e5     # absolute, Pa
    normal_pressure: float = 1e5        # Pa

    @property
    def pressure_ratio(self) -> float:
        """normal/operating pressure for gas velocity rescaling; 1 for water."""
        if self.kind == GAS:
            return self.normal_pressure / self.operating_pressure
        return 1.0


@dataclass(frozen=True)
class Network:
    """Immutable pipe network; shareable across threads once constructed."""
    pipes: tuple[Pipe, ...]
    nodes: tuple[NodeSpec, ...]
    fluid: FluidSpec
    explicit_loops: tuple[tuple[int, ...], ...] | None = None
    reference_node: NodeId | None = None
    initial_flows_m3h: dict[PipeId, float] | None = None

    def __init__(self, pipes, nodes, fluid, explicit_loops=None,
                 reference_node=None, initial_flows_m3h=None):
        object.__setattr__(self, "pipes", tuple(pipes))
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "fluid", fluid)
        object.__setattr__(
            self, "explicit_loops",
            tuple(tuple(loop) for loop in explicit_loops) if explicit_loops else None)
        if reference_node is None and nodes:
            reference_node = max(n.id for n in self.nodes)
        object.__setattr__(self, "reference_node", reference_node)
        object.__setattr__(
            self, "initial_flows_m3h",
            dict(initial_flows_m3h) if initial_flows_m3h else None)
        # The integer incidence.  An end that names no node gets index -1,
        # so malformed input still constructs and `validate` reports it; a
        # repeated node id indexes its last node, as `incident_pipes` keys it.
        index = {n.id: i for i, n in enumerate(self.nodes)}
        ends = np.array([[index.get(p.from_node, -1) for p in self.pipes],
                         [index.get(p.to_node, -1) for p in self.pipes]],
                        dtype=np.int32).reshape(2, -1)
        # Per node, its pipes in pipe order, each at its tail before its
        # head: the ends listed tail, head per pipe and sorted stably by
        # node, less the unknown ones, which sort first.
        flat = ends.T.ravel()
        by_node = np.argsort(flat, kind="stable")[np.count_nonzero(flat < 0):]
        start = np.searchsorted(flat[by_node], np.arange(len(self.nodes) + 1)).astype(np.int32)
        incident = (by_node // 2).astype(np.int32)
        # Pipe indices in ascending id order (repeated ids of unvalidated
        # input in pipe order), and each pipe's rank in that order.
        ids = tuple(p.id for p in self.pipes)
        id_order = np.argsort(np.array(ids), kind="stable").astype(np.int32)
        id_rank = np.empty_like(id_order)
        id_rank[id_order] = np.arange(len(ids), dtype=np.int32)
        arrays = PipeArrays(ids, np.array([p.length for p in self.pipes]),
                            np.array([p.diameter for p in self.pipes]),
                            np.array([p.roughness for p in self.pipes]))
        for array in (ends, start, incident, id_order, id_rank, arrays.length,
                      arrays.diameter, arrays.roughness):
            array.setflags(write=False)
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "_incident_start", start)
        object.__setattr__(self, "_incident", incident)
        object.__setattr__(self, "_id_order", id_order)
        object.__setattr__(self, "_id_rank", id_rank)
        object.__setattr__(self, "_reference_index", index.get(reference_node, -1))
        object.__setattr__(self, "_pipe_arrays", arrays)

    def __reduce__(self):
        # Copies and unpickled networks build their own read-only index.
        return Network, (self.pipes, self.nodes, self.fluid, self.explicit_loops,
                         self.reference_node, self.initial_flows_m3h)

    @property
    def node_ids(self) -> list[NodeId]:
        return [n.id for n in self.nodes]

    @property
    def pipe_ids(self) -> list[PipeId]:
        return [p.id for p in self.pipes]

    def pipe(self, pipe_id: PipeId) -> Pipe:
        for p in self.pipes:
            if p.id == pipe_id:
                return p
        raise KeyError(f"no pipe {pipe_id!r} in network")

    def node(self, node_id: NodeId) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(f"no node {node_id!r} in network")

    def incident_pipes(self) -> dict[NodeId, list[Pipe]]:
        """Per node id, the pipes ending there, in pipe order."""
        _, _, start, incident = self._adjacency()
        pipes = [self.pipes[j] for j in incident]
        return {n.id: pipes[start[i]:start[i + 1]] for i, n in enumerate(self.nodes)}

    def _adjacency(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """The incidence as lists, which walk faster item by item than
        arrays: tail and head node index per pipe, then the row offsets
        and pipe indices of the incident pipes (node i's are
        `incident[start[i]:start[i + 1]]`)."""
        tails, heads = self._ends.tolist()
        return tails, heads, self._incident_start.tolist(), self._incident.tolist()

    @property
    def loop_count(self) -> int:
        """Independent loops of a connected graph: pipes - nodes + 1."""
        return len(self.pipes) - len(self.nodes) + 1


class SpanningTree(tuple):
    """`(tree pipes, attach order)` as `spanning_tree` returns it; `steps`
    holds the attach order again as (node index, pipe index) pairs, so the
    helpers that walk the tree look nothing up by id."""
    steps: list[tuple[int, int]]


@dataclass(frozen=True)
class FlowState:
    """Signed flow per pipe in m³/s, relative to each pipe's orientation."""
    flows: dict[PipeId, float]

    def __getitem__(self, pipe_id: PipeId) -> float:
        return self.flows[pipe_id]

    def as_m3h(self) -> dict[PipeId, float]:
        return {pid: m3s_to_m3h(q) for pid, q in self.flows.items()}

    def max_change_m3h(self, other: "FlowState") -> float:
        """Largest per-pipe flow difference vs `other`, in m³/h."""
        return max(abs(m3s_to_m3h(self.flows[pid] - other.flows[pid]))
                   for pid in self.flows)


@dataclass(frozen=True)
class PipeArrays:
    """Pipe geometry as arrays in `Network.pipe_ids` order.

    The geometry fields have the names of `Pipe`'s, so the fluid models
    evaluate one `Pipe` or every pipe of a network with the same call.
    """
    ids: tuple[PipeId, ...]
    length: np.ndarray
    diameter: np.ndarray
    roughness: np.ndarray

    @classmethod
    def of(cls, net: Network) -> "PipeArrays":
        """The network's own read-only arrays, built with it."""
        return net._pipe_arrays

    def flows(self, state: FlowState) -> np.ndarray:
        """Signed flows of `state` in pipe order, m³/s."""
        return np.array([state.flows[pid] for pid in self.ids])

    def by_id(self, values: np.ndarray) -> dict[PipeId, float]:
        """Per-pipe values keyed by pipe id."""
        return dict(zip(self.ids, values.tolist()))


@dataclass
class SolveReport:
    """Iteration trace and final state of one solver run.

    `iterations[0]` is the initial (feasible) pattern; each further entry is
    the state after one solver pass.  `loop_residuals[k]` holds |sum of
    pressure functions| per loop at `iterations[k]` (Pa² for gas, Pa for
    water).

    A run that ends "diverged" keeps only finite states: a pass whose
    flows or residuals are not finite is dropped, and `stop_reason` says on
    which pass the run stopped and why ("diverged at pass N: ..."); it is
    empty for every other termination.
    """
    method: str
    iterations: list[FlowState]
    loop_residuals: list[list[float]]
    termination: str      # converged | max-iterations | singular-system | diverged
    velocities: dict[PipeId, float] = field(default_factory=dict)
    node_pressures: dict[NodeId, float] | None = None
    damped_iterations: list[int] = field(default_factory=list)
    stop_reason: str = ""

    @property
    def final_flows(self) -> FlowState:
        return self.iterations[-1]

    @property
    def iteration_count(self) -> int:
        """Solver passes performed (the initial pattern is not counted)."""
        return len(self.iterations) - 1

    def reversed_pipes(self) -> set[PipeId]:
        """Pipes whose converged direction opposes the initial pattern."""
        first = self.iterations[0].flows
        last = self.iterations[-1].flows
        return {pid for pid, q in last.items() if q * first[pid] < 0.0}


def validate(net: Network) -> list[str]:
    """Check all network invariants; returns human-readable violations.

    An empty list means the network is solvable: consistent ids, finite
    numbers, positive geometry, balanced demands, connected graph with at
    least one loop.
    """
    violations: list[str] = []
    node_ids = [n.id for n in net.nodes]
    total_demand = sum(n.demand_m3h for n in net.nodes)
    arrays = PipeArrays.of(net)
    tails, heads = net._ends.tolist()
    diameter, length, roughness = (arrays.diameter.tolist(), arrays.length.tolist(),
                                   arrays.roughness.tolist())
    # The record-by-record checks run only when a check of whole columns
    # fails (a sum is finite only if its terms are, and NaN fails it).
    records_ok = (len(set(node_ids)) == len(node_ids) and isfinite(total_demand)
                  and len(set(arrays.ids)) == len(arrays.ids)
                  and min(tails + heads, default=0) >= 0 and not any(map(eq, tails, heads))
                  and min(diameter, default=1.0) > 0 and min(length, default=1.0) > 0
                  and min(roughness, default=0.0) >= 0
                  and isfinite(sum(diameter) + sum(length) + sum(roughness)))
    if not records_ok:
        violations += _record_violations(net)

    violations.extend(_fluid_violations(net.fluid))

    if abs(total_demand) > DEMAND_BALANCE_TOL_M3H:
        violations.append(
            f"unbalanced demands: node demands sum to {total_demand:+g} m3/h, expected 0")

    if net._reference_index < 0:
        violations.append(f"reference node {net.reference_node!r} does not exist")

    if net.explicit_loops:
        pipe_ids = set(arrays.ids)
        for k, loop in enumerate(net.explicit_loops):
            for signed in loop:
                if abs(signed) not in pipe_ids:
                    violations.append(
                        f"loop {k + 1} references unknown pipe {abs(signed)}")

    if net.initial_flows_m3h is not None:
        violations += _flow_violations(net, net.initial_flows_m3h)

    # Structural checks only make sense on otherwise well-formed input.
    if not violations:
        if net.loop_count < 1:
            violations.append(
                f"network has no loops ({len(net.pipes)} pipes, {len(net.nodes)} nodes)")
        unreached = _unreachable_nodes(net)
        if unreached:
            names = ", ".join(repr(u) for u in sorted(unreached, key=str))
            violations.append(f"disconnected graph: cannot reach node(s) {names}")
    return violations


def _flow_violations(net: Network, flows: dict[PipeId, float],
                     what: str = "initial flow") -> list[str]:
    """Problems of flows given per pipe id (a start, or sizing's fixed
    flows): one flow per pipe, all finite."""
    pipe_ids, given = set(PipeArrays.of(net).ids), set(flows)
    violations = [f"{what} given for unknown pipe {pid}" for pid in sorted(given - pipe_ids)]
    violations += [f"{what} missing for pipe {pid}" for pid in sorted(pipe_ids - given)]
    violations += [f"{what} of pipe {pid} must be finite, got {q!r}"
                   for pid, q in flows.items() if not isfinite(q)]
    return violations


def _record_violations(net: Network) -> list[str]:
    """`validate`'s checks of the node and pipe records, one at a time."""
    violations: list[str] = []
    node_ids = set()
    for n in net.nodes:
        if n.id in node_ids:
            violations.append(f"duplicate node id {n.id!r}")
        node_ids.add(n.id)
        if not isfinite(n.demand_m3h):
            violations.append(f"node {n.id!r} demand must be finite, got {n.demand_m3h!r}")

    pipe_ids = set()
    for p in net.pipes:
        if p.id in pipe_ids:
            violations.append(f"duplicate pipe id {p.id}")
        pipe_ids.add(p.id)
        if p.from_node == p.to_node:
            violations.append(f"self-loop pipe {p.id} at node {p.from_node!r}")
        for end in (p.from_node, p.to_node):
            if end not in node_ids:
                violations.append(f"pipe {p.id} references unknown node {end!r}")
        if p.diameter <= 0:
            violations.append(f"pipe {p.id} diameter must be > 0 m")
        if p.length <= 0:
            violations.append(f"pipe {p.id} length must be > 0 m")
        if p.roughness < 0:
            violations.append(f"pipe {p.id} roughness must be >= 0 m")
        if not (isfinite(p.diameter) and isfinite(p.length) and isfinite(p.roughness)):
            violations += [f"pipe {p.id} {name} must be finite, got {value!r}"
                           for name, value in (("diameter", p.diameter), ("length", p.length),
                                               ("roughness", p.roughness)) if not isfinite(value)]
    return violations


def _fluid_violations(fluid: FluidSpec) -> list[str]:
    violations = []
    if fluid.kind not in (GAS, WATER):
        return [f"unknown fluid kind {fluid.kind!r}"]
    if fluid.kind == GAS:
        if fluid.rel_density is None or fluid.rel_density <= 0:
            violations.append("gas fluid needs rel_density > 0")
    else:
        if fluid.density is None or fluid.density <= 0:
            violations.append("water fluid needs density > 0 kg/m3")
        if fluid.viscosity is None or fluid.viscosity <= 0:
            violations.append("water fluid needs viscosity > 0 Pa*s")
    if fluid.operating_pressure <= 0:
        violations.append("operating pressure must be > 0 Pa")
    if fluid.normal_pressure <= 0:
        violations.append("normal pressure must be > 0 Pa")
    for name, value in vars(fluid).items():
        if isinstance(value, float) and not isfinite(value):
            violations.append(f"fluid {name} must be finite, got {value!r}")
    return violations


def _unreachable_nodes(net: Network) -> set[NodeId]:
    """Nodes outside the reference node's component, found on the arrays:
    each root of a tree of nodes hooks onto the smallest root it shares a
    pipe with, if smaller than itself, then pointer jumping flattens the
    trees, until no pipe links two trees."""
    tails, heads = net._ends
    parent = np.arange(len(net.nodes))
    while True:
        a, b = parent[tails], parent[heads]
        apart = a != b
        if not apart.any():
            break
        # Sorted by root to hook, then by target: the first of each run is
        # the smallest target (hooking onto any one would leave a star of
        # roots to unravel one per round).
        root, onto = np.maximum(a, b)[apart], np.minimum(a, b)[apart]
        order = np.lexsort((onto, root))
        root, onto = root[order], onto[order]
        first = np.concatenate(([True], root[1:] != root[:-1]))
        parent[root[first]] = onto[first]
        while True:
            grandparent = parent[parent]
            if (grandparent == parent).all():
                break
            parent = grandparent
    outside = np.flatnonzero(parent != parent[net._reference_index])
    return {net.nodes[i].id for i in outside.tolist()}


def spanning_tree(net: Network) -> SpanningTree:
    """Deterministic spanning tree grown from the reference node.

    At each step the lowest-id pipe linking the tree to a new node is taken.
    Returns the tree pipes and the attachment order as (new node, pipe)
    pairs; pipes outside the tree are the network's links.
    """
    root = net._reference_index
    if root < 0:
        raise ValueError(f"reference node {net.reference_node!r} does not exist")
    tails, heads, start, incident = net._adjacency()
    # Heap keys are the pipes' ranks in ascending id order.
    order, rank = net._id_order.tolist(), net._id_rank.tolist()
    # The extra last entry stands for index -1, an unknown end: it counts
    # as joined, so no pipe attaches it.
    joined = [False] * len(net.nodes) + [True]
    joined[root] = True
    steps: list[tuple[int, int]] = []
    # Pipes from the tree to a node outside it.  A pipe enters the heap
    # once, from the first of its ends to join, and is skipped on popping
    # if its far end joined.
    frontier = [rank[j] for j in incident[start[root]:start[root + 1]]]
    heapify(frontier)
    for _ in range(len(net.nodes) - 1):
        while True:
            if not frontier:
                raise ValueError("disconnected graph: no spanning tree exists")
            pipe = order[heappop(frontier)]
            new_node = heads[pipe] if joined[tails[pipe]] else tails[pipe]
            if not joined[new_node]:
                break
        joined[new_node] = True
        steps.append((new_node, pipe))
        for j in incident[start[new_node]:start[new_node + 1]]:
            if not joined[heads[j] if tails[j] == new_node else tails[j]]:
                heappush(frontier, rank[j])
    pipes, node_ids = net.pipes, net.node_ids
    tree = SpanningTree(([pipes[j] for _, j in steps],
                         [(node_ids[i], pipes[j]) for i, j in steps]))
    tree.steps = steps
    return tree


def feasible_initial_flows(net: Network, seed: int = 0) -> FlowState:
    """Flow pattern satisfying every node balance exactly.

    Link pipes (outside the deterministic spanning tree) get zero flow for
    seed 0 and seeded random flows otherwise; tree-pipe flows then follow
    from the node demands by back-substitution, leaves inward.  Any seed
    yields a valid starting state for the solvers.
    """
    violations = validate(net)
    if violations:
        raise ValueError("invalid network: " + "; ".join(violations))
    return FlowState(dict(zip(PipeArrays.of(net).ids, _tree_flows(net, spanning_tree(net), seed))))


def _tree_flows(net: Network, tree: SpanningTree, seed: int) -> list[float]:
    """`feasible_initial_flows` of a validated network on its `spanning_tree`,
    in pipe order."""
    tails, heads, start, incident = net._adjacency()
    flows = [0.0] * len(net.pipes)
    if seed != 0:
        in_tree = [False] * len(net.pipes)
        for _, j in tree.steps:
            in_tree[j] = True
        demand_scale = max((abs(n.demand_m3h) for n in net.nodes), default=0.0)
        rng = random.Random(seed)
        for j, tree_pipe in enumerate(in_tree):
            if not tree_pipe:
                flows[j] = m3h_to_m3s(rng.uniform(-demand_scale, demand_scale) / 2.0)

    # Last-attached nodes are leaves of the attachment order, so every
    # incident pipe except the one toward the root is already resolved.
    demand = m3h_to_m3s(np.array([n.demand_m3h for n in net.nodes], dtype=float)).tolist()
    for node, parent_pipe in reversed(tree.steps):
        known_net_inflow = 0.0
        for j in incident[start[node]:start[node + 1]]:
            if j != parent_pipe:
                known_net_inflow += flows[j] if heads[j] == node else -flows[j]
        residual = demand[node] - known_net_inflow
        flows[parent_pipe] = residual if heads[parent_pipe] == node else -residual
    return flows


def node_imbalances(net: Network, flows: FlowState) -> dict[NodeId, float]:
    """Net inflow minus demand per node, m³/s (zero for a feasible state)."""
    q = [flows.flows[pid] for pid in PipeArrays.of(net).ids]
    return dict(zip(net.node_ids, _imbalances(net, q)))


def _imbalances(net: Network, q: list[float]) -> list[float]:
    """`node_imbalances` per node index, for flows `q` in pipe order; an end
    that names no node counts nowhere."""
    residual = [-m3h_to_m3s(n.demand_m3h) for n in net.nodes] + [0.0]
    tails, heads = net._ends.tolist()
    for tail, head, flow in zip(tails, heads, q):
        residual[head] += flow
        residual[tail] -= flow
    return residual[:-1]
