"""Domain types for looped pipe networks: pipes, nodes, fluids, flow states.

Unit conventions (see README): geometry in m, pressures in Pa, node demands
in m³/h (the customary reporting unit), pipe flows in m³/s everywhere inside
the library.  The 3600 factor is applied only at file and report boundaries.

A `Network` indexes itself once, when it is constructed: the end nodes of
every pipe as node indices, the incident pipes of every node as pipe
indices (compressed rows, each in pipe order), the pipes in id
order, the reference node's index, and read-only geometry arrays
(`PipeArrays.of`).  Validation, the spanning tree, the loop basis, the
start and the node balances all work on these integer arrays.

A network derives each fact that depends on it alone once, when it is
first asked for, and keeps it: its `validate` violations, and as read-only
arrays its demands in m³/s, its tree walk from the reference node, that
tree's fundamental cycles and its seed-0 flows.  One walk gives both the
nodes `validate` finds unreachable and the spanning tree, which every tree
request takes from it (and refuses while it misses a node).  A copy, a
pickle or a `dataclasses.replace` goes through the constructor
(`__reduce__`), so it derives them afresh.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import isfinite
from types import MappingProxyType

import numpy as np

NodeId = str | int
PipeId = int
Adjacency = tuple[list[int], list[int], list[int], list[int]]  # see `Network._adjacency`

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
    need `density` and `viscosity`; their pressure fields are only checked
    to be > 0 and enter no result (pressure propagation takes its source
    pressure as an argument, `--source-pressure-pa` on the command line).
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
    """Immutable pipe network; shareable across threads once constructed.
    Its `initial_flows_m3h` is a read-only mapping (a copy of the one given)."""
    pipes: tuple[Pipe, ...]
    nodes: tuple[NodeSpec, ...]
    fluid: FluidSpec
    explicit_loops: tuple[tuple[int, ...], ...] | None = None
    reference_node: NodeId | None = None
    initial_flows_m3h: Mapping[PipeId, float] | None = None

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
            MappingProxyType(dict(initial_flows_m3h)) if initial_flows_m3h else None)
        # The integer incidence.  An end that names no node gets index -1,
        # so malformed input still constructs and `validate` reports it; a
        # repeated node id indexes its last node.
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
        # Copies and unpickled networks index and check themselves afresh;
        # the flows go as a dict, since a mapping proxy does not pickle.
        flows = self.initial_flows_m3h and dict(self.initial_flows_m3h)
        return Network, (self.pipes, self.nodes, self.fluid, self.explicit_loops,
                         self.reference_node, flows)

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

    def _adjacency(self) -> Adjacency:
        """The incidence as lists, which walk faster item by item than
        arrays: tail and head node index per pipe, then the row offsets
        and pipe indices of the incident pipes (node i's are
        `incident[start[i]:start[i + 1]]`)."""
        tails, heads = self._ends.tolist()
        return tails, heads, self._incident_start.tolist(), self._incident.tolist()

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        """What `validate` reports, found on the first ask and kept."""
        return tuple(_check(self))

    @cached_property
    def _demands(self) -> np.ndarray:
        """Node demands in m³/s, per node index."""
        return _frozen(m3h_to_m3s(np.array([n.demand_m3h for n in self.nodes], dtype=float)))

    @cached_property
    def _walk(self) -> np.ndarray:
        """The tree walk from the reference node, as its new nodes over their
        pipes; on a disconnected graph it ends where the pipes stop reaching."""
        return _frozen(np.array(_grow_tree(self, self._adjacency()), dtype=np.int32))

    @property
    def _tree(self) -> np.ndarray:
        """The spanning tree: the walk, which must reach every node."""
        if self._walk.shape[1] < len(self.nodes) - 1:
            raise ValueError("disconnected graph: no spanning tree exists")
        return self._walk

    @cached_property
    def _cycles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tree's fundamental cycles as `LoopBasis` columns, signs and starts."""
        return _fundamental_cycles(self, *self._tree.tolist())

    @cached_property
    def _start(self) -> np.ndarray:
        """The seed-0 tree flows in pipe order, m³/s; only meaningful on a
        valid network."""
        return _frozen(np.array(_tree_flows(self, self._adjacency(), *self._tree.tolist(), 0)))

    @property
    def loop_count(self) -> int:
        """Independent loops of a connected graph: pipes - nodes + 1."""
        return len(self.pipes) - len(self.nodes) + 1


# A spanning tree as its attach order: (node index, pipe index) pairs.
SpanningTree = list[tuple[int, int]]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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
        """Signed flows of `state` in pipe order, m³/s; raises ValueError
        naming the first pipe, in that order, that `state` lacks."""
        try:
            return np.array([state.flows[pid] for pid in self.ids], dtype=float)
        except KeyError as exc:
            raise ValueError(f"flow state has no flow for pipe {exc.args[0]}") from None

    def by_id(self, values: np.ndarray) -> dict[PipeId, float]:
        """Per-pipe values keyed by pipe id."""
        return dict(zip(self.ids, values.tolist()))


class History(Sequence):
    """A read-only sequence kept as arrays: entry k is `build(arrays[k])`,
    built on its first read and kept.  It reads, slices (into lists) and
    compares with lists as the list of its entries, which a copy becomes."""

    def __init__(self, arrays: list[np.ndarray], build: Callable[[np.ndarray], object]):
        self._arrays, self._build, self._entries = arrays, build, [None] * len(arrays)

    def __len__(self) -> int:
        return len(self._arrays)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]
        if self._entries[k] is None:
            self._entries[k] = self._build(self._arrays[k])
        return self._entries[k]

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (list, History)) else NotImplemented

    def __reduce__(self):
        return list, (list(self),)


@dataclass
class SolveReport:
    """Iteration trace and final state of one solver run.

    `iterations[0]` is the initial (feasible) pattern; each further entry is
    the state after one solver pass (a `History` when a solver made it; both
    Hardy Cross methods leave each pipe that lies in no loop at its start).
    `loop_residuals[k]` holds |sum of pressure functions| per loop at
    `iterations[k]` (Pa² for gas, Pa for water).

    A run that ends "diverged" keeps only finite states: a pass whose
    flows or residuals are not finite is dropped, and `stop_reason` says on
    which pass the run stopped and why ("diverged at pass N: ..."); after
    "max-iterations" it gives the pass count, the worst residual against the
    start's, and on how many of the last passes it rose; after
    "singular-system" it names the pass and the linear solver's message
    ("singular-system at pass N: ..."); it is empty exactly when the run
    converged.
    """
    method: str
    iterations: Sequence[FlowState]
    loop_residuals: list[list[float]]
    termination: str      # converged | max-iterations | singular-system | diverged
    velocities: dict[PipeId, float] = field(default_factory=dict)
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
    """Check all network invariants; returns human-readable violations, as
    a new list each call.

    An empty list means consistent ids, finite numbers, positive geometry,
    balanced demands, a connected graph and explicit loops that name only
    its pipes.  Whether those loops are closed, independent cycles is
    judged apart, by `adopt_explicit_loops` (which `solvers.select_basis`
    calls), so the network is solvable only if that passes too.  A tree,
    which has no loop, is solvable: its demands alone fix its flows.  A
    network checks itself on the first call and keeps what it found.
    """
    return list(net._violations)


def _require_valid(net: Network) -> None:
    """Raise ValueError listing `validate`'s violations, if it finds any."""
    violations = validate(net)
    if violations:
        raise ValueError("invalid network: " + "; ".join(violations))


def _check(net: Network) -> list[str]:
    """`validate`'s checks, in the order of its messages."""
    violations = _record_violations(net)
    violations.extend(_fluid_violations(net.fluid))

    total_demand = sum(n.demand_m3h for n in net.nodes)
    if abs(total_demand) > DEMAND_BALANCE_TOL_M3H:
        violations.append(
            f"unbalanced demands: node demands sum to {total_demand:+g} m3/h, expected 0")

    if net._reference_index < 0:
        violations.append(f"reference node {net.reference_node!r} does not exist")

    pipe_ids = set(net.pipe_ids)
    violations += [f"loop {k + 1} references unknown pipe {abs(signed)}"
                   for k, loop in enumerate(net.explicit_loops or ()) for signed in loop
                   if abs(signed) not in pipe_ids]

    if net.initial_flows_m3h is not None:
        violations += _flow_violations(net, net.initial_flows_m3h)

    # Structural checks only make sense on otherwise well-formed input.
    if not violations:
        reached = {net._reference_index, *net._walk[0].tolist()}
        unreached = {n.id for i, n in enumerate(net.nodes) if i not in reached}
        if unreached:
            names = ", ".join(repr(u) for u in sorted(unreached, key=str))
            violations.append(f"disconnected graph: cannot reach node(s) {names}")
    return violations


def _flow_violations(net: Network, flows: Mapping[PipeId, float],
                     what: str = "initial flow") -> list[str]:
    """Problems of flows given per pipe id (a start, or sizing's fixed
    flows): one flow per pipe, all finite."""
    pipe_ids, given = set(PipeArrays.of(net).ids), set(flows)
    violations = [f"{what} given for unknown pipe {pid}" for pid in sorted(given - pipe_ids)]
    violations += [f"{what} missing for pipe {pid}" for pid in sorted(pipe_ids - given)]
    violations += [f"{what} of pipe {pid} must be finite, got {q!r}"
                   for pid, q in flows.items() if not isfinite(q)]
    return violations


def _checked_flows(net: Network, flows: Mapping[PipeId, float], what: str,
                   error: type[ValueError], balanced: bool) -> np.ndarray:
    """Flows given per pipe id, m³/s, in pipe order; raises `error` unless
    `_flow_violations` finds none and, if `balanced`, they meet every node
    balance (a NaN imbalance fails `not <=`)."""
    problems = _flow_violations(net, flows, what)
    if problems:
        raise error(f"invalid {what}s: " + "; ".join(problems))
    q = np.array([flows[pid] for pid in PipeArrays.of(net).ids])
    if balanced:
        worst = np.abs(_imbalances(net, q)).max()
        if not worst <= NODE_BALANCE_TOL_M3S:
            raise error(f"{what}s violate node balances by {worst:.3e} m3/s")
    return q


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


def spanning_tree(net: Network) -> SpanningTree:
    """Deterministic spanning tree grown from the reference node.

    At each step the lowest-id pipe linking the tree to a new node is taken.
    Returns the attachment order as a new list of (new node index, pipe
    index) pairs; the pipes outside the tree are the network's links.
    """
    return list(zip(*net._tree.tolist()))


def _grow_tree(net: Network, adjacency: Adjacency) -> tuple[list[int], list[int]]:
    """`spanning_tree` grown, as its new nodes and their pipes; on a
    disconnected graph, only as far as the pipes reach."""
    root = net._reference_index
    if root < 0:
        raise ValueError(f"reference node {net.reference_node!r} does not exist")
    tails, heads, start, incident = adjacency
    # Heap keys are the pipes' ranks in ascending id order.
    order, rank = net._id_order.tolist(), net._id_rank.tolist()
    # The extra last entry stands for index -1, an unknown end: it counts
    # as joined, so no pipe attaches it.
    joined = [False] * len(net.nodes) + [True]
    joined[root] = True
    nodes, pipes = [], []
    # Pipes from the tree to a node outside it.  A pipe enters the heap
    # once, from the first of its ends to join, and is skipped on popping
    # if its far end joined.
    frontier = [rank[j] for j in incident[start[root]:start[root + 1]]]
    heapify(frontier)
    for _ in range(len(net.nodes) - 1):
        while True:
            if not frontier:
                return nodes, pipes
            pipe = order[heappop(frontier)]
            new_node = heads[pipe] if joined[tails[pipe]] else tails[pipe]
            if not joined[new_node]:
                break
        joined[new_node] = True
        nodes.append(new_node)
        pipes.append(pipe)
        for j in incident[start[new_node]:start[new_node + 1]]:
            if not joined[heads[j] if tails[j] == new_node else tails[j]]:
                heappush(frontier, rank[j])
    return nodes, pipes


def feasible_initial_flows(net: Network, seed: int = 0) -> FlowState:
    """Flow pattern satisfying every node balance exactly.

    Link pipes (outside the deterministic spanning tree) get zero flow for
    seed 0 and seeded random flows otherwise; tree-pipe flows then follow
    from the node demands by back-substitution, leaves inward.  Any seed
    yields a valid starting state for the solvers.
    """
    _require_valid(net)
    flows = (net._start.tolist() if seed == 0 else
             _tree_flows(net, net._adjacency(), *net._tree.tolist(), seed))
    return FlowState(dict(zip(PipeArrays.of(net).ids, flows)))


def _tree_flows(net: Network, adjacency: Adjacency, nodes: list[int], pipes: list[int],
                seed: int) -> list[float]:
    """`feasible_initial_flows` on the tree grown as `nodes` and `pipes`,
    in pipe order."""
    tails, heads, start, incident = adjacency
    flows = [0.0] * len(net.pipes)
    if seed != 0:
        in_tree = set(pipes)
        demand_scale = max((abs(n.demand_m3h) for n in net.nodes), default=0.0)
        rng = random.Random(seed)
        for j in range(len(net.pipes)):
            if j not in in_tree:
                flows[j] = m3h_to_m3s(rng.uniform(-demand_scale, demand_scale) / 2.0)

    # Last-attached nodes are leaves of the attachment order, so every
    # incident pipe except the one toward the root is already resolved.
    demand = net._demands.tolist()
    for node, parent_pipe in zip(reversed(nodes), reversed(pipes)):
        known_net_inflow = 0.0
        for j in incident[start[node]:start[node + 1]]:
            if j != parent_pipe:
                known_net_inflow += flows[j] if heads[j] == node else -flows[j]
        residual = demand[node] - known_net_inflow
        flows[parent_pipe] = residual if heads[parent_pipe] == node else -residual
    return flows


def _fundamental_cycles(net: Network, nodes: list[int],
                        pipes: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`derive_loop_basis`'s loops on the tree grown as `nodes` and
    `pipes`, as `LoopBasis` columns, signs and starts."""
    tails, heads = net._ends.tolist()
    in_tree = set(pipes)
    parent = [0] * len(net.nodes)     # node -> tree pipe toward the root
    above = [0] * len(net.nodes)      # node -> the far end of that pipe
    depth = [0] * len(net.nodes)
    for node, pipe in zip(nodes, pipes):
        parent[node] = pipe
        above[node] = heads[pipe] if tails[pipe] == node else tails[pipe]
        depth[node] = depth[above[node]] + 1
    links = [j for j in net._id_order.tolist() if j not in in_tree]

    columns, signs, starts = [], [], [0]
    for link in links:
        # Climb from both ends of the link to their lowest common ancestor:
        # the cycle goes up from the link's head, then down to its tail.
        columns.append(link)
        signs.append(1)
        down = []
        a, b = heads[link], tails[link]
        while a != b:
            if depth[a] >= depth[b]:
                pipe = parent[a]
                columns.append(pipe)
                signs.append(1 if tails[pipe] == a else -1)
                a = above[a]
            else:
                pipe = parent[b]
                down.append((pipe, 1 if heads[pipe] == b else -1))
                b = above[b]
        for pipe, sign in reversed(down):
            columns.append(pipe)
            signs.append(sign)
        starts.append(len(columns))
    return tuple(_frozen(np.array(a, dtype=np.int32)) for a in (columns, signs, starts))


def node_imbalances(net: Network, flows: FlowState) -> dict[NodeId, float]:
    """Net inflow minus demand per node, m³/s (zero for a feasible state)."""
    return dict(zip(net.node_ids, _imbalances(net, PipeArrays.of(net).flows(flows)).tolist()))


def _imbalances(net: Network, q: np.ndarray) -> np.ndarray:
    """`node_imbalances` per node index, for flows `q` in pipe order; an end
    that names no node counts nowhere (in a spare last slot).  Each pipe
    adds its flow at its head, then subtracts it at its tail, pipe by pipe:
    `np.add.at` applies repeated indices in order, so every node sums its
    terms in the order a loop over the pipes would."""
    residual = np.append(-net._demands, 0.0)
    np.add.at(residual, net._ends[::-1].T.ravel(), np.stack((q, -q), axis=1).ravel())
    return residual[:-1]
