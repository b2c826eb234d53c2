"""The three iterative flow solvers plus node-pressure back-propagation.

Each solve validates the network once and takes its loop basis
(`select_basis`), which the network keeps, with all that the basis derives,
from solve to solve; it starts from the flows given (`initial`, else the
file's) or from the network's own, its kept linear-theory flows (Wood and
Charles 1972).  Every pass evaluates the basis's core (the pipes in a loop)
in one call, giving r = B·(sign q · drop(|q|)) and D = |d drop/d flow| on
the core, and the three methods differ only in the linear system they solve:

* node-loop: [A; B·D] q = [demands; B·D·q - r], all flows at once, on pass 1
  from a given start, which it balances; a balanced iterate's node rows admit
  only changes Bᵀy, so each remaining pass takes the improved method's step;
* hardy-cross-improved: (B D Bᵀ) Δ = -r, then q += BᵀΔ;
* hardy-cross: Δ = -r / (|B|·D) per loop, then q += BᵀΔ.

The Newton correction Bᵀ(B D Bᵀ)⁻¹B g, for g the signed drops on the core,
is the same on every basis of the cycle space.  A basis that keeps B
(`LoopBasis.dense`, where 64·Σ c_j² > L²·n: c_j loops hold core pipe j; L
loops, n core pipes) takes it on its own B, with the loop Jacobian the
dense product (B·D) @ Bᵀ.  Any other takes it on the network's short
cycle basis (`topology.short_loop_basis`), with B D Bᵀ scattered from D
onto its nonzero pattern, and solved densely below BLOCK_SOLVE_LOOPS loops
and by `numerics.solve_sparse` from there on.  Residuals, stop tests and
traces keep the solve's own basis, and so do original Hardy Cross's
corrections.  A basis without B takes r, BᵀΔ and |B|·D over each loop's
members, and every basis takes |B|·D that way.

Both Hardy Cross methods change only the core flows and keep the start's
node balances, which a given start must meet.  A run stops when two
successive passes agree within the flow tolerance and the imbalances are
below theirs, or ends "diverged": at the first pass whose flows or
imbalances are not finite, which it drops, or once the worst imbalance has
risen on each of the last DIVERGENCE_PASSES passes to over
DIVERGENCE_GROWTH times the start's.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral, Real
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
    _check_balance,
    _checked_flows,
    _frozen,
    _require_valid,
    m3s_to_m3h,
)
from .numerics import SingularSystemError, solve_linear, solve_sparse
from .topology import (
    LoopBasis,
    adopt_explicit_loops,
    build_node_matrix,
    derive_loop_basis,
    short_loop_basis,
)

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

# A start from linear theory weighs each pipe by its D at this velocity, m/s.
START_VELOCITY = 1.0

# From this many loops on, the short basis's Newton step is solved by
# `solve_sparse` rather than densely.  On gas and water grids, the dense
# solve of the laid-out J is faster at 81 and 100 loops, about even at 121
# (0.9-1.4× the block solve's time) and slower from 144 on (1.5-2.8× at
# 144, 8.6× at 841).
BLOCK_SOLVE_LOOPS = 110


class InfeasiblePressureError(ValueError):
    """Gas pressure propagation hit a negative squared pressure."""


# Per setting: its range as messages name it, and whether a value is in it.
_SETTING_RULES = {
    "max_iterations": ("an integer >= 0", lambda v: isinstance(v, Integral) and v >= 0),
    "flow_tolerance_m3h": (">= 0", lambda v: isinstance(v, Real) and v >= 0),
    "residual_tolerance": (">= 0 or None", lambda v: v is None or isinstance(v, Real) and v >= 0),
}


@dataclass
class SolverConfig:
    method: str = NODE_LOOP
    flow_tolerance_m3h: float = 0.01
    residual_tolerance: float | None = None   # default picked per fluid
    max_iterations: int = 50

    def check(self) -> None:
        """Raise ValueError naming the first setting, in field order, out of range:
        `max_iterations` is an integer >= 0 and each tolerance a number >= 0 (a
        residual tolerance of None is the fluid's default), so NaN, a string or
        a bool (as in `fileio.KINDS`) fails each.  `SizingConfig` shares this."""
        for name in [f.name for f in fields(self) if f.name in _SETTING_RULES]:
            rule, in_range = _SETTING_RULES[name]
            value = getattr(self, name)
            if isinstance(value, bool) or not in_range(value):
                raise ValueError(f"{name} must be {rule}, got {value!r}")

    def resolved_residual_tolerance(self, fluid_kind: str) -> float:
        if self.residual_tolerance is not None:
            return self.residual_tolerance
        return DEFAULT_RESIDUAL_TOLERANCE[fluid_kind]


@dataclass(frozen=True)
class LoopEval:
    """Loop imbalances and pipe derivatives of one state.

    `flows` is q on every pipe, `residuals` is r = B·g, one entry per loop,
    for the signed drops g = sign q · drop(|q|), and `dflow` is D = |d drop/d
    flow|, evaluated away from zero flow.  `drops` (g) and `dflow` are on the
    core only (in `basis.core` order): they hold nothing for a pipe in no
    loop, which enters neither r nor B D Bᵀ.
    """
    net: Network
    basis: LoopBasis
    flows: np.ndarray          # q, signed, m³/s
    residuals: np.ndarray
    dflow: np.ndarray
    drops: np.ndarray

    @cached_property
    def member_dflow(self) -> tuple[Mapping[PipeId, float], ...]:
        """Per loop, a read-only map from each member pipe to its entry of D."""
        ids, starts = self.basis.core_ids, self.basis.starts.tolist()
        cores = self.basis.members[1].tolist()
        return tuple(MappingProxyType({ids[c]: self.dflow[c] for c in cores[a:b]})
                     for a, b in zip(starts, starts[1:]))


def select_basis(net: Network) -> LoopBasis:
    """Explicit loops win over derived ones when the file carries them."""
    return adopt_explicit_loops(net) if net.explicit_loops else derive_loop_basis(net)


def evaluate_loops(net: Network, basis: LoopBasis, flows: FlowState | np.ndarray) -> LoopEval:
    """Loop imbalances and pipe derivatives at the given state.

    `flows` is a FlowState, or the signed flows in `net.pipe_ids` order, on
    a network that passes `validate` (the fluid models do not check the
    geometry again); only the basis's core is evaluated.  Raises ValueError
    for a basis built on another network (`LoopBasis.check_network`).
    """
    evaluate = _evaluator(net, basis)
    return evaluate(flows if isinstance(flows, np.ndarray) else PipeArrays.of(net).flows(flows))


def _evaluator(net: Network, basis: LoopBasis):
    """`evaluate_loops` as a function of the flows array, set up once."""
    basis.check_network(net)
    evaluate = make_fluid_model(net.fluid).evaluate
    pipes = basis.core_pipes(PipeArrays.of(net))
    core = slice(None) if basis.spans_all else basis.core

    def at(q: np.ndarray) -> LoopEval:
        q_core = q[core]
        drop, dflow = evaluate(pipes, np.abs(q_core), DERIVATIVE_FLOW_FLOOR)
        drops = np.copysign(drop, q_core)
        return LoopEval(net, basis, q, basis.sums(drops), dflow, drops)
    return at


def _linear_start(net: Network, basis: LoopBasis, evaluate) -> np.ndarray:
    """The linear-theory start, kept by the network: q₀ + Bᵀy with (B W Bᵀ) y =
    -B W q₀ for the tree flows q₀ and W each pipe's D at START_VELOCITY, the
    balanced flows of least Σ W q² on any basis; else (no loop, or a system
    singular or not finite) q₀."""
    if len(basis) and "_linear_start" not in vars(net):
        q, speed = net._start, make_fluid_model(net.fluid).velocity(PipeArrays.of(net), 1.0)
        # One Newton step from q₀ solves the network whose drops are W q.  W,
        # and so that system, may not be finite; a singular one raises.
        with suppress(ValueError):
            w = evaluate(START_VELOCITY / speed).dflow
            drops = w * q[basis.core]
            linear = LoopEval(net, basis, q, basis.sums(drops), w, drops)
            q = _frozen(_loop_newton_step(linear))
        object.__setattr__(net, "_linear_start", q)
    return vars(net).get("_linear_start", net._start)


def assemble_node_loop_system(loop_eval: LoopEval) -> tuple[np.ndarray, np.ndarray]:
    """Stack continuity rows over linearized loop rows, as (matrix, rhs).

    [A; B·D] q = [demands; B·D·q - r]: the loop rows are the first-order
    expansion of the loop equations around the evaluated flows q.
    """
    net, basis = loop_eval.net, loop_eval.basis
    node_matrix = build_node_matrix(net)
    n_nodes, n_pipes = node_matrix.shape
    if n_nodes + len(basis) != n_pipes:
        raise ValueError(
            f"dimension mismatch: {n_nodes} node rows + {len(basis)} loop "
            f"rows != {n_pipes} pipe unknowns")
    matrix, rhs = np.zeros((n_pipes, n_pipes)), np.empty(n_pipes)
    matrix[:n_nodes] = node_matrix
    rhs[:n_nodes] = net._demands[np.arange(len(net._demands)) != net._reference_index]
    loop_rows = matrix[n_nodes:]
    rows, cores, signs = basis.members
    loop_rows[rows, basis.core.take(cores)] = signs * loop_eval.dflow.take(cores)
    rhs[n_nodes:] = loop_rows @ loop_eval.flows - loop_eval.residuals
    return matrix, rhs


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
    """Direct flow calculation: Newton's method on all pipe flows at once.

    Pass 1 from a given start (`initial` or the file's flows) solves the
    stacked [A; B·D] system, which balances it.  A balanced iterate's node
    rows admit only changes Bᵀy, so any other pass, such as each from the
    network's own start, is the loop step (B D Bᵀ) y = -r, q += Bᵀy.
    """
    steps = iter([] if _derives_start(net, initial) else [_stacked_step])
    return _iterate(net, config or SolverConfig(), initial, NODE_LOOP,
                    lambda loop_eval: next(steps, _loop_newton_step)(loop_eval))


def _stacked_step(loop_eval: LoopEval) -> np.ndarray:
    """The flows that solve `assemble_node_loop_system(loop_eval)`."""
    size = len(loop_eval.flows)
    with _naming_memory(f"node-loop's {size} × {size} stacked system"):
        return solve_linear(*assemble_node_loop_system(loop_eval))


@contextmanager
def _naming_memory(system: str):
    """Name `system` in a MemoryError raised while it is built or solved."""
    try:
        yield
    except MemoryError as exc:
        raise MemoryError(f"building {system}: {exc}") from None


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
    """All loop corrections solved simultaneously through the loop Jacobian."""
    return _iterate(net, config or SolverConfig(), initial,
                    HARDY_CROSS_IMPROVED, _loop_newton_step)


def _loop_newton_step(loop_eval: LoopEval) -> np.ndarray:
    """q + BᵀΔ with (B D Bᵀ) Δ = -B g: the diagonal sums member |d drop/d
    flow|, and loops that share pipes couple with the product of their
    membership signs.

    The correction Bᵀ(B D Bᵀ)⁻¹B g is the same on every basis of the cycle
    space.  A `dense` basis takes it on its own B, with J the dense product
    (B·D) @ Bᵀ.  Any other takes it on the network's short basis
    (`short_loop_basis`), with J scattered from D on its nonzero pattern:
    solved dense below BLOCK_SOLVE_LOOPS loops, else by `solve_sparse`,
    which forms no L × L array.
    """
    basis = loop_eval.basis
    with _naming_memory(f"the loop Jacobian of {len(basis)} loops"):
        if basis.dense:
            deltas = solve_linear(basis.jacobian(loop_eval.dflow), -loop_eval.residuals)
            return basis.corrected(loop_eval.flows, deltas)
        short = short_loop_basis(loop_eval.net)
        rhs = -short.sums(loop_eval.drops)
        if len(short) < BLOCK_SOLVE_LOOPS:
            deltas = solve_linear(short.jacobian(loop_eval.dflow), rhs)
        else:
            deltas = solve_sparse(short.pair_index[0], short.jacobian_values(loop_eval.dflow), rhs)
        return short.corrected(loop_eval.flows, deltas)


def _derives_start(net: Network, initial: FlowState | None) -> bool:
    """Whether a solve starts from the network's own flows: no `initial`, no file flows."""
    return initial is None and not net.initial_flows_m3h


# Diverging runs and extreme starts overflow; the checks stop them, unwarned.
@np.errstate(all="ignore")
def _iterate(net: Network, config: SolverConfig, initial: FlowState | None,
             method: str, step) -> SolveReport:
    config.check()
    _require_valid(net)
    start, worst = ((None, 0.0) if _derives_start(net, initial)
                    else _checked_flows(net, initial.flows, "initial flow", ValueError)
                    if initial is not None else net._file_start)
    # Both Hardy Cross methods change the flows only around loops
    # (q += BᵀΔ), which leaves every node balance as the start has it.
    if method != NODE_LOOP:
        _check_balance(worst, "initial flow", ValueError)
    pipes = PipeArrays.of(net)
    basis = select_basis(net)
    evaluate = _evaluator(net, basis)
    loop_eval = evaluate(_linear_start(net, basis, evaluate) if start is None else start)
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
            candidate_eval = evaluate(step(loop_eval))
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
