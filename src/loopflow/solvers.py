"""The three iterative flow solvers plus node-pressure back-propagation.

Each solve validates the network once and takes its loop basis
(`select_basis`: derived, or explicit and rank-checked), whose spanning
tree also gives the seed-0 start of `feasible_initial_flows` unless a
start is given.  B is the basis's own signed loop matrix, and node-loop
builds the node matrix A with its demands once per solve.  Every pass then
evaluates all pipes in one call, giving the loop imbalances
r = B·(sign q · drop(|q|)) and the pipe derivatives D = |d drop/d flow|,
and the three methods differ only in the linear system they solve:

* node-loop: [A; B·D] q = [demands; B·D·q - r], all flows at once, in
  one stacked buffer per solve whose loop rows every pass rewrites and
  equilibrates in place;
* hardy-cross-improved: (B D Bᵀ) Δ = -r, then q += BᵀΔ;
* hardy-cross: Δ = -r / diag(B D Bᵀ), one independent correction per
  loop, then q += BᵀΔ; the diagonal is |B|·D, with |B| taken once per
  solve.

A given start (the `initial` argument or the file's initial flows) needs a
finite flow for every pipe, and both Hardy Cross methods, which keep the
start's node balances, need it to meet them.

All three iterate until two successive passes agree everywhere within the
flow tolerance and the loop imbalances are below theirs.  A run that
blows up instead (original Hardy Cross on most meshed networks) ends
"diverged": at the first pass whose flows or loop imbalances are not
finite, which it drops, or once the worst imbalance has risen on each of
the last DIVERGENCE_PASSES passes to over DIVERGENCE_GROWTH times the
start's.  The pass loop runs under one `np.errstate(all="ignore")`, so the
overflow on the way warns of nothing.  Flows are signed
against each pipe's reference orientation and loop membership signs come
from B, which replaces the traditional hand bookkeeping of correction
directions.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .fluids import RESIDUAL_UNIT, make_fluid_model
from .model import (
    GAS,
    NODE_BALANCE_TOL_M3S,
    WATER,
    FlowState,
    Network,
    NodeId,
    PipeArrays,
    PipeId,
    SolveReport,
    _imbalances,
    _flow_violations,
    _tree_flows,
    m3h_to_m3s,
    m3s_to_m3h,
    validate,
)
from .numerics import (DenseSystem, SingularSystemError, condition_estimate, equilibrate,
                       solve_linear)
from .topology import LoopBasis, adopt_explicit_loops, build_node_matrix, derive_loop_basis

NODE_LOOP = "node-loop"
HARDY_CROSS = "hardy-cross"
HARDY_CROSS_IMPROVED = "hardy-cross-improved"
METHODS = (NODE_LOOP, HARDY_CROSS, HARDY_CROSS_IMPROVED)

# Loop-imbalance tolerance at convergence: Pa² for gas, Pa for water.
DEFAULT_RESIDUAL_TOLERANCE = {GAS: 1e3, WATER: 1.0}

# A damped pass is triggered when an iterate inflates the worst loop
# residual by more than this factor (only with SolverConfig.damping).
DAMPING_TRIGGER = 2.0

# A run ends "diverged" when a candidate's worst loop residual or flow
# change is not finite, or when the worst residual rose on each of the last
# DIVERGENCE_PASSES passes and exceeds DIVERGENCE_GROWTH times the start's
# (or the residual tolerance, if the start is already below it).
DIVERGENCE_PASSES = 3
DIVERGENCE_GROWTH = 1e3


log = logging.getLogger(__name__)


class InfeasiblePressureError(ValueError):
    """Gas pressure propagation hit a negative squared pressure."""


@dataclass
class SolverConfig:
    method: str = NODE_LOOP
    flow_tolerance_m3h: float = 0.01
    residual_tolerance: float | None = None   # default picked per fluid
    max_iterations: int = 50
    derivative_flow_floor: float = 1e-7       # m³/s
    damping: bool = False

    def resolved_residual_tolerance(self, fluid_kind: str) -> float:
        if self.residual_tolerance is not None:
            return self.residual_tolerance
        return DEFAULT_RESIDUAL_TOLERANCE[fluid_kind]


@dataclass(frozen=True)
class LoopEval:
    """Loop imbalances and pipe derivatives of one state.

    `residuals` is r = B·(sign q · drop(|q|)), one entry per loop, and
    `dflow` is D = |d drop/d flow| per pipe, evaluated away from zero flow.
    """
    net: Network
    basis: LoopBasis
    flows: np.ndarray          # q, signed, m³/s
    residuals: np.ndarray
    dflow: np.ndarray

    @cached_property
    def member_dflow(self) -> tuple[Mapping[PipeId, float], ...]:
        """Per loop, a read-only map from each member pipe to its entry of D."""
        ids = self.basis.pipe_ids
        return tuple(MappingProxyType({ids[j]: self.dflow[j] for j in np.flatnonzero(row)})
                     for row in self.basis.matrix())

    def worst_residual(self) -> float:
        return float(np.abs(self.residuals).max(initial=0.0))


def select_basis(net: Network) -> LoopBasis:
    """Explicit loops win over derived ones when the file carries them."""
    return adopt_explicit_loops(net) if net.explicit_loops else derive_loop_basis(net)


def evaluate_loops(net: Network, basis: LoopBasis, flows: FlowState | np.ndarray,
                   derivative_flow_floor: float = 1e-7) -> LoopEval:
    """Loop imbalances and pipe derivatives at the given state.

    `flows` is a FlowState, or the signed flows in `net.pipe_ids` order.
    Raises ValueError for a basis whose pipe ids, in order, are not the
    network's.
    """
    pipes = PipeArrays.of(net)
    if basis.pipe_ids != pipes.ids:
        raise ValueError("loop basis does not match the network's pipe order")
    q = flows if isinstance(flows, np.ndarray) else pipes.flows(flows)
    drop, dflow = make_fluid_model(net.fluid).evaluate(pipes, np.abs(q), derivative_flow_floor)
    return LoopEval(net, basis, q, basis.matrix() @ np.copysign(drop, q), dflow)


def assemble_node_loop_system(loop_eval: LoopEval,
                              out: DenseSystem | None = None) -> DenseSystem:
    """Stack continuity rows over linearized loop rows.

    [A; B·D] q = [demands; B·D·q - r]: the loop rows are the first-order
    expansion of the loop equations around the evaluated flows q.  Given
    `out`, a system this function returned for the same network and basis,
    only its loop rows are rewritten, in place, and `out` is returned.
    """
    loops = loop_eval.basis.matrix()
    if out is None:
        node_matrix = build_node_matrix(loop_eval.net)
        n_nodes, n_pipes = node_matrix.entries.shape
        if n_nodes + len(loops) != n_pipes:
            raise ValueError(
                f"dimension mismatch: {n_nodes} node rows + {len(loops)} loop "
                f"rows != {n_pipes} pipe unknowns")
        out = DenseSystem(np.empty((n_pipes, n_pipes)), np.empty(n_pipes))
        out.matrix[:n_nodes] = node_matrix.entries
        out.rhs[:n_nodes] = [m3h_to_m3s(n.demand_m3h) for n in loop_eval.net.nodes
                             if n.id != loop_eval.net.reference_node]
    n_nodes = len(out.rhs) - len(loops)
    loop_rows = np.multiply(loops, loop_eval.dflow, out=out.matrix[n_nodes:])
    out.rhs[n_nodes:] = loop_rows @ loop_eval.flows - loop_eval.residuals
    return out


def solve(net: Network, config: SolverConfig | None = None,
          initial: FlowState | None = None) -> SolveReport:
    """Run the solver selected by `config.method`."""
    config = config or SolverConfig()
    if config.method == NODE_LOOP:
        return solve_node_loop(net, config, initial)
    if config.method == HARDY_CROSS:
        return solve_hardy_cross_original(net, config, initial)
    if config.method == HARDY_CROSS_IMPROVED:
        return solve_hardy_cross_improved(net, config, initial)
    raise ValueError(f"unknown method {config.method!r}; expected one of {METHODS}")


def solve_node_loop(net: Network, config: SolverConfig | None = None,
                    initial: FlowState | None = None) -> SolveReport:
    """Direct flow calculation: each pass solves for all pipe flows at once.

    The stacked system lives in one buffer per solve: every pass rewrites
    its loop rows and equilibrates them in place, so `solve_linear` finds
    unit rows and solves without copying them.
    """
    logged_condition = False
    system: DenseSystem | None = None

    def step(loop_eval: LoopEval) -> np.ndarray:
        nonlocal logged_condition, system
        system = assemble_node_loop_system(loop_eval, out=system)
        if not logged_condition and log.isEnabledFor(logging.DEBUG):
            log.debug("stacked system 1-norm condition estimate: %.3g",
                      condition_estimate(system))
            logged_condition = True
        # The node rows are ±1 and already at unit scale.
        n_nodes = len(system.rhs) - len(loop_eval.residuals)
        equilibrate(system.matrix[n_nodes:], system.rhs[n_nodes:])
        return solve_linear(system)

    return _iterate(net, config or SolverConfig(), initial, NODE_LOOP, step)


def solve_hardy_cross_original(net: Network, config: SolverConfig | None = None,
                               initial: FlowState | None = None) -> SolveReport:
    """One independent flow correction per loop per pass.

    Loop correction Δ = -r / diag(B D Bᵀ), the imbalance over the sum of
    member |d drop/d flow|; q += BᵀΔ gives every member pipe each containing
    loop's correction with its membership sign, which preserves the node
    balances exactly.
    """
    magnitudes = None    # |B|, taken on the first pass

    def step(loop_eval: LoopEval) -> np.ndarray:
        nonlocal magnitudes
        loops = loop_eval.basis.matrix()
        if magnitudes is None:
            magnitudes = np.abs(loops)
        denom = magnitudes @ loop_eval.dflow
        deltas = np.divide(-loop_eval.residuals, denom,
                           out=np.zeros_like(denom), where=~(denom < 1e-30))
        return loop_eval.flows + loops.T @ deltas

    return _iterate(net, config or SolverConfig(), initial, HARDY_CROSS, step)


def solve_hardy_cross_improved(net: Network, config: SolverConfig | None = None,
                               initial: FlowState | None = None) -> SolveReport:
    """All loop corrections solved simultaneously through the loop Jacobian.

    (B D Bᵀ) Δ = -r: the diagonal sums member |d drop/d flow|, and loops
    that share pipes couple with the product of their membership signs.
    Then q += BᵀΔ.
    """

    def step(loop_eval: LoopEval) -> np.ndarray:
        loops = loop_eval.basis.matrix()
        jacobian = (loops * loop_eval.dflow) @ loops.T
        deltas = solve_linear(DenseSystem(jacobian, -loop_eval.residuals))
        return loop_eval.flows + loops.T @ deltas

    return _iterate(net, config or SolverConfig(), initial,
                    HARDY_CROSS_IMPROVED, step)


def _iterate(net: Network, config: SolverConfig, initial: FlowState | None,
             method: str, step) -> SolveReport:
    violations = validate(net)
    if violations:
        raise ValueError("invalid network: " + "; ".join(violations))

    if initial is None and net.initial_flows_m3h is not None:
        initial = FlowState({pid: m3h_to_m3s(q) for pid, q in net.initial_flows_m3h.items()})
    elif initial is not None:
        problems = _flow_violations(net, initial.flows)
        if problems:
            raise ValueError("invalid initial flows: " + "; ".join(problems))
    pipes = PipeArrays.of(net)
    start = None if initial is None else pipes.flows(initial)
    # Both Hardy Cross methods change the flows only around loops
    # (q += BᵀΔ), which leaves every node balance as the start has it.
    if start is not None and method != NODE_LOOP:
        worst = max(map(abs, _imbalances(net, start.tolist())), default=0.0)
        if not worst <= NODE_BALANCE_TOL_M3S:
            raise ValueError(f"initial flows violate node balances by {worst:.3e} m3/s")
    # A start taken from the tree shares the loop basis's tree.
    basis = select_basis(net)
    floor = config.derivative_flow_floor
    if start is None:
        start = np.array(_tree_flows(net, basis.tree, seed=0))
    loop_eval = evaluate_loops(net, basis, start, floor)
    residual_tol = config.resolved_residual_tolerance(net.fluid.kind)
    iterations = [FlowState(pipes.by_id(loop_eval.flows))]
    residual_history = [np.abs(loop_eval.residuals).tolist()]
    start_worst = worst = max(residual_history[0], default=0.0)
    blowup = DIVERGENCE_GROWTH * max(start_worst, residual_tol)
    rises = 0
    damped: list[int] = []
    termination = "max-iterations"
    stop_reason = ""

    # A diverging run overflows; the checks below stop it, so numpy need
    # not warn on the way.
    with np.errstate(all="ignore"):
        while len(iterations) - 1 < config.max_iterations:
            current = loop_eval.flows
            pass_no = len(iterations)
            try:
                candidate_eval = evaluate_loops(net, basis, step(loop_eval), floor)
            except SingularSystemError:
                termination = "singular-system"
                break
            if config.damping:
                before = loop_eval.worst_residual()
                if before > 0.0 and \
                        candidate_eval.worst_residual() > DAMPING_TRIGGER * before:
                    damped.append(pass_no)
                    midpoint = 0.5 * (current + candidate_eval.flows)
                    candidate_eval = evaluate_loops(net, basis, midpoint, floor)
            residuals = np.abs(candidate_eval.residuals).tolist()
            change_m3h = m3s_to_m3h(np.abs(candidate_eval.flows - current).max(initial=0.0))
            # A sum carries every NaN or inf among its terms (max need not);
            # the run keeps its last finite state.
            if not math.isfinite(change_m3h + sum(residuals)):
                termination = "diverged"
                stop_reason = (f"diverged at pass {pass_no}: "
                               f"non-finite flows or loop residuals")
                break
            previous, worst = worst, max(residuals, default=0.0)
            rises = rises + 1 if worst > previous else 0
            loop_eval = candidate_eval
            iterations.append(FlowState(pipes.by_id(loop_eval.flows)))
            residual_history.append(residuals)
            if rises >= DIVERGENCE_PASSES and worst > blowup:
                termination = "diverged"
                unit = RESIDUAL_UNIT[net.fluid.kind]
                stop_reason = (f"diverged at pass {pass_no}: the worst loop residual "
                               f"rose on {rises} passes in a row, to {worst:.3g} {unit} "
                               f"from {start_worst:.3g} {unit} at the start")
                break
            # Converged when successive flows agree everywhere and the loop
            # imbalances are below tolerance (the flow criterion alone can
            # fire while single-adjustment corrections still carry real
            # imbalance).
            if change_m3h <= config.flow_tolerance_m3h and worst <= residual_tol:
                termination = "converged"
                break

    return SolveReport(
        method=method,
        iterations=iterations,
        loop_residuals=residual_history,
        termination=termination,
        velocities=final_velocities(net, iterations[-1]),
        damped_iterations=damped,
        stop_reason=stop_reason,
    )


def final_velocities(net: Network, flows: FlowState) -> dict[PipeId, float]:
    pipes = PipeArrays.of(net)
    speeds = make_fluid_model(net.fluid).velocity(pipes, np.abs(pipes.flows(flows)))
    return pipes.by_id(speeds)


def propagate_pressures(net: Network, flows: FlowState, source_node: NodeId,
                        source_pressure: float) -> dict[NodeId, float]:
    """Node pressures (Pa absolute) from one known source pressure.

    Breadth-first walk from the source, expanding neighbours in ascending
    node-id order; pressure falls along the local flow direction.  Gas
    networks propagate squared pressures (the Renouard drop is a difference
    of squared pressures) and fail if one would go negative.
    """
    if not 0.0 < source_pressure < math.inf:
        raise ValueError(f"source pressure must be finite and > 0 Pa, got {source_pressure!r}")
    node_ids = net.node_ids
    if source_node not in node_ids:
        raise KeyError(f"no node {source_node!r} in network")
    pipes = PipeArrays.of(net)
    q = pipes.flows(flows)
    drops = make_fluid_model(net.fluid).drop(pipes, np.abs(q)).tolist()
    q = q.tolist()
    squared = net.fluid.kind == GAS
    tails, heads, start, incident = net._adjacency()

    source = node_ids.index(source_node)
    potentials = {source: source_pressure ** 2 if squared else source_pressure}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        neighbours = []
        for j in incident[start[node]:start[node + 1]]:
            other = heads[j] if tails[j] == node else tails[j]
            neighbours.append((str(node_ids[other]), pipes.ids[j], other, j))
        for _, _, other, j in sorted(neighbours, key=lambda t: (t[0], t[1])):
            if other in potentials:
                continue
            leaving = (q[j] >= 0.0) == (tails[j] == node)
            value = potentials[node] - drops[j] if leaving else potentials[node] + drops[j]
            if squared and value < 0.0:
                raise InfeasiblePressureError(
                    f"negative squared pressure at node {node_ids[other]!r}: the network "
                    f"is infeasible at source pressure {source_pressure:g} Pa")
            potentials[other] = value
            queue.append(other)

    return {node_ids[i]: math.sqrt(v) if squared else v for i, v in potentials.items()}
