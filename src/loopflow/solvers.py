"""The three iterative flow solvers plus node-pressure back-propagation.

Each solve validates the network once and takes its loop basis
(`select_basis`); the start, unless one is given, is the seed-0 tree
flows the network keeps.  Every pass evaluates the basis's core (the
pipes in a loop) in one call, giving r = B·(sign q · drop(|q|)) and
D = |d drop/d flow| on the core, and the three methods differ only in the
linear system they solve:

* node-loop: [A; B·D] q = [demands; B·D·q - r], all flows at once, from
  one stacked (matrix, rhs) pair per solve whose loop rows every pass rewrites;
* hardy-cross-improved: (B D Bᵀ) Δ = -r, then q += BᵀΔ;
* hardy-cross: Δ = -r / (|B|·D) per loop, then q += BᵀΔ.

Both Hardy Cross methods change only the core flows and keep the start's
node balances, which a given start must meet.  A run stops when two
successive passes agree within the flow tolerance and the imbalances are
below theirs, or ends "diverged": at the first pass whose flows or
imbalances are not finite, which it drops, or once the worst imbalance has
risen on each of the last DIVERGENCE_PASSES passes to over
DIVERGENCE_GROWTH times the start's.
"""

from __future__ import annotations

import logging
import math
import numbers
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .fluids import RESIDUAL_UNIT, make_fluid_model
from .model import (
    GAS,
    WATER,
    FlowState,
    History,
    Network,
    NodeId,
    PipeArrays,
    PipeId,
    SolveReport,
    _checked_flows,
    _require_valid,
    m3h_to_m3s,
    m3s_to_m3h,
)
from .numerics import SingularSystemError, _row_scales, condition_estimate, solve_linear
from .topology import LoopBasis, adopt_explicit_loops, build_node_matrix, derive_loop_basis

NODE_LOOP = "node-loop"
HARDY_CROSS = "hardy-cross"
HARDY_CROSS_IMPROVED = "hardy-cross-improved"
METHODS = (NODE_LOOP, HARDY_CROSS, HARDY_CROSS_IMPROVED)

# Loop-imbalance tolerance at convergence: Pa² for gas, Pa for water.
DEFAULT_RESIDUAL_TOLERANCE = {GAS: 1e3, WATER: 1.0}

# A run ends "diverged" when a candidate's worst loop residual or flow
# change is not finite, or when the worst residual rose on each of the last
# DIVERGENCE_PASSES passes and exceeds DIVERGENCE_GROWTH times the start's
# (or the residual tolerance, if the start is already below it).
DIVERGENCE_PASSES = 3
DIVERGENCE_GROWTH = 1e3

# D is evaluated at no smaller a flow magnitude (m³/s), so it is never zero.
DERIVATIVE_FLOW_FLOOR = 1e-7


log = logging.getLogger(__name__)


class InfeasiblePressureError(ValueError):
    """Gas pressure propagation hit a negative squared pressure."""


@dataclass
class SolverConfig:
    method: str = NODE_LOOP
    flow_tolerance_m3h: float = 0.01
    residual_tolerance: float | None = None   # default picked per fluid
    max_iterations: int = 50
    derivative_flow_floor: float = DERIVATIVE_FLOW_FLOOR   # m³/s

    def check(self) -> None:
        """Raise ValueError naming the first setting out of range:
        `max_iterations` is an integer >= 0, each tolerance is >= 0 (a
        residual tolerance of None is the fluid's default) and the floor is
        finite and >= 0, so NaN fails each.  `SizingConfig` shares this
        check for the settings it has."""
        if not (isinstance(self.max_iterations, numbers.Integral) and self.max_iterations >= 0):
            raise ValueError(
                f"max_iterations must be an integer >= 0, got {self.max_iterations!r}")
        flow_tolerance = getattr(self, "flow_tolerance_m3h", 0.0)
        if not flow_tolerance >= 0.0:
            raise ValueError(f"flow_tolerance_m3h must be >= 0, got {flow_tolerance!r}")
        if self.residual_tolerance is not None and not self.residual_tolerance >= 0.0:
            raise ValueError(
                f"residual_tolerance must be >= 0 or None, got {self.residual_tolerance!r}")
        floor = getattr(self, "derivative_flow_floor", 0.0)
        if not 0.0 <= floor < math.inf:
            raise ValueError(f"derivative_flow_floor must be finite and >= 0, got {floor!r}")

    def resolved_residual_tolerance(self, fluid_kind: str) -> float:
        if self.residual_tolerance is not None:
            return self.residual_tolerance
        return DEFAULT_RESIDUAL_TOLERANCE[fluid_kind]


@dataclass(frozen=True)
class LoopEval:
    """Loop imbalances and pipe derivatives of one state.

    `flows` is q on every pipe, `residuals` is r = B·(sign q · drop(|q|)),
    one entry per loop, and `dflow` is D = |d drop/d flow|, evaluated away
    from zero flow, on the core only (in `basis.core` order): it holds
    nothing for a pipe in no loop, which enters neither r nor B D Bᵀ.
    """
    net: Network
    basis: LoopBasis
    flows: np.ndarray          # q, signed, m³/s
    residuals: np.ndarray
    dflow: np.ndarray

    @cached_property
    def member_dflow(self) -> tuple[Mapping[PipeId, float], ...]:
        """Per loop, a read-only map from each member pipe to its entry of D."""
        ids = self.basis.core_ids
        return tuple(MappingProxyType({ids[c]: self.dflow[c] for c in np.flatnonzero(row)})
                     for row in self.basis.core_matrix)


def select_basis(net: Network) -> LoopBasis:
    """Explicit loops win over derived ones when the file carries them."""
    return adopt_explicit_loops(net) if net.explicit_loops else derive_loop_basis(net)


def evaluate_loops(net: Network, basis: LoopBasis, flows: FlowState | np.ndarray,
                   derivative_flow_floor: float = DERIVATIVE_FLOW_FLOOR) -> LoopEval:
    """Loop imbalances and pipe derivatives at the given state.

    `flows` is a FlowState, or the signed flows in `net.pipe_ids` order, on
    a network that passes `validate` (the fluid models do not check the
    geometry again); only the basis's core is evaluated.  Raises ValueError
    for a basis built on another network (`LoopBasis.check_network`).
    """
    pipes = PipeArrays.of(net)
    basis.check_network(net)
    q = flows if isinstance(flows, np.ndarray) else pipes.flows(flows)
    q_core = q if basis.spans_all else q[basis.core]
    drop, dflow = make_fluid_model(net.fluid).evaluate(
        basis.core_pipes(pipes), np.abs(q_core), derivative_flow_floor)
    return LoopEval(net, basis, q, basis.sums(np.copysign(drop, q_core)), dflow)


def assemble_node_loop_system(loop_eval: LoopEval,
                              out: tuple[np.ndarray, np.ndarray] | None = None,
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Stack continuity rows over linearized loop rows, as (matrix, rhs).

    [A; B·D] q = [demands; B·D·q - r]: the loop rows are the first-order
    expansion of the loop equations around the evaluated flows q.  Given
    `out`, a system this function returned for the same network and basis,
    only its loop rows are rewritten, in place (zero off the core), and
    `out` is returned.
    """
    basis = loop_eval.basis
    if out is None:
        node_matrix = build_node_matrix(loop_eval.net)
        n_nodes, n_pipes = node_matrix.shape
        if n_nodes + len(basis) != n_pipes:
            raise ValueError(
                f"dimension mismatch: {n_nodes} node rows + {len(basis)} loop "
                f"rows != {n_pipes} pipe unknowns")
        out = np.zeros((n_pipes, n_pipes)), np.empty(n_pipes)
        out[0][:n_nodes] = node_matrix
        net = loop_eval.net
        out[1][:n_nodes] = net._demands[[n.id != net.reference_node for n in net.nodes]]
    matrix, rhs = out
    n_nodes = len(rhs) - len(basis)
    loop_rows = matrix[n_nodes:]
    if basis.spans_all:
        np.multiply(basis.core_matrix, loop_eval.dflow, out=loop_rows)
    else:
        loop_rows[:, basis.core] = basis.core_matrix * loop_eval.dflow
    rhs[n_nodes:] = loop_rows @ loop_eval.flows - loop_eval.residuals
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
    its loop rows and divides them by their largest entries in place (none
    if one is zero, which `solve_linear` names), so it copies no rows.
    """
    system = None

    def step(loop_eval: LoopEval) -> np.ndarray:
        nonlocal system
        matrix, rhs = assemble_node_loop_system(loop_eval, out=system)
        if system is None and log.isEnabledFor(logging.DEBUG):
            log.debug("stacked system 1-norm condition estimate: %.3g",
                      condition_estimate(matrix))
        system = matrix, rhs
        # The node rows are ±1 and already at unit scale.
        n_nodes = len(rhs) - len(loop_eval.residuals)
        scale = _row_scales(matrix[n_nodes:])
        if scale.all():
            matrix[n_nodes:] /= scale[:, None]
            rhs[n_nodes:] /= scale
        return solve_linear(matrix, rhs)

    return _iterate(net, config or SolverConfig(), initial, NODE_LOOP, step)


def solve_hardy_cross_original(net: Network, config: SolverConfig | None = None,
                               initial: FlowState | None = None) -> SolveReport:
    """One independent flow correction per loop per pass.

    Loop correction Δ = -r / diag(B D Bᵀ), the imbalance over the sum of
    member |d drop/d flow|; q += BᵀΔ gives every member pipe each containing
    loop's correction with its membership sign, which preserves the node
    balances exactly.
    """

    def step(loop_eval: LoopEval) -> np.ndarray:
        basis = loop_eval.basis
        return basis.corrected(loop_eval.flows, basis.diagonal_corrections(
            -loop_eval.residuals, loop_eval.dflow))

    return _iterate(net, config or SolverConfig(), initial, HARDY_CROSS, step)


def solve_hardy_cross_improved(net: Network, config: SolverConfig | None = None,
                               initial: FlowState | None = None) -> SolveReport:
    """All loop corrections solved simultaneously through the loop Jacobian.

    (B D Bᵀ) Δ = -r: the diagonal sums member |d drop/d flow|, and loops
    that share pipes couple with the product of their membership signs.
    Then q += BᵀΔ.
    """

    def step(loop_eval: LoopEval) -> np.ndarray:
        loops = loop_eval.basis.core_matrix
        jacobian = (loops * loop_eval.dflow) @ loops.T
        deltas = solve_linear(jacobian, -loop_eval.residuals)
        return loop_eval.basis.corrected(loop_eval.flows, deltas)

    return _iterate(net, config or SolverConfig(), initial,
                    HARDY_CROSS_IMPROVED, step)


# Diverging runs and extreme starts overflow; the checks stop them, unwarned.
@np.errstate(all="ignore")
def _iterate(net: Network, config: SolverConfig, initial: FlowState | None,
             method: str, step) -> SolveReport:
    config.check()
    _require_valid(net)
    if initial is None and net.initial_flows_m3h is not None:
        initial = FlowState({pid: m3h_to_m3s(q) for pid, q in net.initial_flows_m3h.items()})
    # Both Hardy Cross methods change the flows only around loops
    # (q += BᵀΔ), which leaves every node balance as the start has it.
    start = net._start if initial is None else _checked_flows(
        net, initial.flows, "initial flow", ValueError, balanced=method != NODE_LOOP)
    pipes = PipeArrays.of(net)
    basis = select_basis(net)
    floor = config.derivative_flow_floor
    loop_eval = evaluate_loops(net, basis, start, floor)
    residual_tol = config.resolved_residual_tolerance(net.fluid.kind)
    flow_history = [loop_eval.flows]
    residual_history = [np.abs(loop_eval.residuals).tolist()]
    # A start that is not finite gives no step to take.
    finite_start = math.isfinite(sum(residual_history[0]) + loop_eval.dflow.sum())
    start_worst = worst = max(residual_history[0], default=0.0)
    blowup = DIVERGENCE_GROWTH * max(start_worst, residual_tol)
    rises = 0
    unit = RESIDUAL_UNIT[net.fluid.kind]
    stop_reason = ""
    while finite_start and len(flow_history) - 1 < config.max_iterations:
        pass_no = len(flow_history)
        try:
            candidate_eval = evaluate_loops(net, basis, step(loop_eval), floor)
        except SingularSystemError as exc:
            termination = "singular-system"
            stop_reason = f"singular-system at pass {pass_no}: {exc}"
            break
        residuals = np.abs(candidate_eval.residuals).tolist()
        change_m3h = m3s_to_m3h(np.abs(candidate_eval.flows - loop_eval.flows).max(initial=0.0))
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
        flow_history.append(loop_eval.flows)
        residual_history.append(residuals)
        if rises >= DIVERGENCE_PASSES and worst > blowup:
            termination = "diverged"
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
    else:
        termination = "max-iterations" if finite_start else "diverged"
        stop_reason = (f"max-iterations after {len(flow_history) - 1} passes: the worst "
                       f"loop residual is {worst:.3g} {unit}, from {start_worst:.3g} "
                       f"{unit} at the start, and rose on the last {rises} passes"
                       if finite_start else "diverged at pass 0: the start's loop "
                       "residuals or pipe derivatives are not finite")

    return SolveReport(
        method=method,
        iterations=History(flow_history, lambda q: FlowState(pipes.by_id(q))),
        loop_residuals=residual_history,
        termination=termination,
        velocities=final_velocities(net, flow_history[-1]),
        stop_reason=stop_reason,
    )


def final_velocities(net: Network, flows: FlowState | np.ndarray) -> dict[PipeId, float]:
    pipes = PipeArrays.of(net)
    q = flows if isinstance(flows, np.ndarray) else pipes.flows(flows)
    speeds = make_fluid_model(net.fluid).velocity(pipes, np.abs(q))
    return pipes.by_id(speeds)


def check_source_pressure(pressure: float) -> None:
    """Raise ValueError unless `pressure` is finite, > 0 Pa and has a finite square."""
    try:
        pressure = float(pressure)
    except OverflowError:    # an int past the float range
        pressure = math.inf if pressure > 0 else -math.inf
    if not 0.0 < pressure < math.inf:
        raise ValueError(f"source pressure must be finite and > 0 Pa, got {pressure!r}")
    if pressure * pressure == math.inf:
        raise ValueError(f"source pressure {pressure:g} Pa overflows when squared")


@np.errstate(over="ignore")    # a huge diameter's drop: x / inf = 0
def propagate_pressures(net: Network, flows: FlowState, source_node: NodeId,
                        source_pressure: float) -> dict[NodeId, float]:
    """Node pressures (Pa absolute) from one known source pressure.

    Breadth-first walk from the source, expanding neighbours in ascending
    node-id order; pressure falls along the local flow direction.  Gas
    networks propagate squared pressures (the Renouard drop is a difference
    of squared pressures) and fail if one would go negative.
    """
    check_source_pressure(source_pressure)
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
