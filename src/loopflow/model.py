"""Domain types for looped pipe networks: pipes, nodes, fluids, flow states.

Unit conventions (see README): geometry in m, pressures in Pa, node demands
in m³/h (the customary reporting unit), pipe flows in m³/s everywhere inside
the library.  The 3600 factor is applied only at file and report boundaries.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from math import isfinite

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
        incident: dict[NodeId, list[Pipe]] = {n.id: [] for n in self.nodes}
        for p in self.pipes:
            incident[p.from_node].append(p)
            incident[p.to_node].append(p)
        return incident

    @property
    def loop_count(self) -> int:
        """Independent loops of a connected graph: pipes - nodes + 1."""
        return len(self.pipes) - len(self.nodes) + 1


SpanningTree = tuple[list[Pipe], list[tuple[NodeId, Pipe]]]   # see `spanning_tree`


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
        return cls(tuple(net.pipe_ids),
                   np.array([p.length for p in net.pipes]),
                   np.array([p.diameter for p in net.pipes]),
                   np.array([p.roughness for p in net.pipes]))

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
    """
    method: str
    iterations: list[FlowState]
    loop_residuals: list[list[float]]
    termination: str                      # converged | max-iterations | singular-system
    velocities: dict[PipeId, float] = field(default_factory=dict)
    node_pressures: dict[NodeId, float] | None = None
    damped_iterations: list[int] = field(default_factory=list)

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

    violations.extend(_fluid_violations(net.fluid))

    total_demand = sum(n.demand_m3h for n in net.nodes)
    if abs(total_demand) > DEMAND_BALANCE_TOL_M3H:
        violations.append(
            f"unbalanced demands: node demands sum to {total_demand:+g} m3/h, expected 0")

    if net.reference_node not in node_ids:
        violations.append(f"reference node {net.reference_node!r} does not exist")

    if net.explicit_loops:
        for k, loop in enumerate(net.explicit_loops):
            for signed in loop:
                if abs(signed) not in pipe_ids:
                    violations.append(
                        f"loop {k + 1} references unknown pipe {abs(signed)}")

    if net.initial_flows_m3h is not None:
        given = set(net.initial_flows_m3h)
        for pid in sorted(given - pipe_ids):
            violations.append(f"initial flow given for unknown pipe {pid}")
        for pid in sorted(pipe_ids - given):
            violations.append(f"initial flow missing for pipe {pid}")
        for pid, q in net.initial_flows_m3h.items():
            if not isfinite(q):
                violations.append(f"initial flow of pipe {pid} must be finite, got {q!r}")

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
    incident = net.incident_pipes()
    seen = {net.reference_node}
    stack = [net.reference_node]
    while stack:
        node = stack.pop()
        for p in incident[node]:
            other = p.to_node if p.from_node == node else p.from_node
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return set(net.node_ids) - seen


def spanning_tree(net: Network) -> SpanningTree:
    """Deterministic spanning tree grown from the reference node.

    At each step the lowest-id pipe linking the tree to a new node is taken.
    Returns the tree pipes and the attachment order as (new node, pipe)
    pairs; pipes outside the tree are the network's links.
    """
    incident = net.incident_pipes()
    visited = {net.reference_node}
    tree: list[Pipe] = []
    attach_order: list[tuple[NodeId, Pipe]] = []
    # Pipes from the tree to a node outside it, by id; `tie` orders repeated
    # ids of unvalidated input.  A pipe enters the heap once, from the first
    # of its ends to join, and is skipped on popping if its far end joined.
    tie = itertools.count()
    frontier = [(p.id, next(tie), p) for p in incident[net.reference_node]]
    heapq.heapify(frontier)
    while len(visited) < len(net.nodes):
        if not frontier:
            raise ValueError("disconnected graph: no spanning tree exists")
        _, _, pipe = heapq.heappop(frontier)
        new_node = pipe.to_node if pipe.from_node in visited else pipe.from_node
        if new_node in visited:
            continue
        visited.add(new_node)
        tree.append(pipe)
        attach_order.append((new_node, pipe))
        for p in incident[new_node]:
            if (p.to_node if p.from_node == new_node else p.from_node) not in visited:
                heapq.heappush(frontier, (p.id, next(tie), p))
    return tree, attach_order


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
    return _tree_flows(net, spanning_tree(net), seed)


def _tree_flows(net: Network, tree: SpanningTree, seed: int) -> FlowState:
    """`feasible_initial_flows` of a validated network on its `spanning_tree`."""
    tree_pipes, attach_order = tree
    tree_ids = {p.id for p in tree_pipes}
    demand_scale = max((abs(n.demand_m3h) for n in net.nodes), default=0.0)

    flows: dict[PipeId, float] = {}
    rng = random.Random(seed)
    for p in net.pipes:
        if p.id not in tree_ids:
            if seed == 0:
                flows[p.id] = 0.0
            else:
                flows[p.id] = m3h_to_m3s(rng.uniform(-demand_scale, demand_scale) / 2.0)

    incident = net.incident_pipes()
    demand_m3h = {n.id: n.demand_m3h for n in net.nodes}
    # Last-attached nodes are leaves of the attachment order, so every
    # incident pipe except the one toward the root is already resolved.
    for node, parent_pipe in reversed(attach_order):
        demand = m3h_to_m3s(demand_m3h[node])
        known_net_inflow = 0.0
        for p in incident[node]:
            if p.id == parent_pipe.id:
                continue
            sign = 1.0 if p.to_node == node else -1.0
            known_net_inflow += sign * flows[p.id]
        residual = demand - known_net_inflow
        flows[parent_pipe.id] = residual if parent_pipe.to_node == node else -residual
    return FlowState(flows)


def node_imbalances(net: Network, flows: FlowState) -> dict[NodeId, float]:
    """Net inflow minus demand per node, m³/s (zero for a feasible state)."""
    residual = {n.id: -m3h_to_m3s(n.demand_m3h) for n in net.nodes}
    for p in net.pipes:
        q = flows.flows[p.id]
        residual[p.to_node] += q
        residual[p.from_node] -= q
    return residual
