"""Inverse problem: fix the flows, iterate pipe diameters to loop balance.

The loop corrections are the original Hardy Cross method's, by the same
code (`LoopBasis.diagonal_corrections` and `spread`), with the diameter as
the variable: with r(d) = B·(sign q · drop(|q|, d)), loop k's correction is
Δ_k = r_k / (|B|·|d drop/d diameter|)_k, applied to each member with its
membership and flow signs (d += sign q · BᵀΔ) and clamped to the bounds;
drops fall as diameters grow, so this is the Newton step for the diameter.
Only the core (the pipes in a loop) is sized and evaluated; the others are
unconstrained by the loop equations and keep their input diameter.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .fluids import RESIDUAL_UNIT, make_fluid_model
from .model import (FlowState, History, Network, PipeArrays, PipeId, _check_balance,
                    _checked_flows, _require_valid)
from .solvers import SolverConfig
from .topology import LoopBasis

DEFAULT_DIAMETER_BOUNDS = (0.01, 2.0)

CONVERGED = "converged"
MAX_ITERATIONS = "max-iterations"
STALLED = "stalled"
INFEASIBLE_BOUNDS = "infeasible-bounds"

STEP_HALVINGS = 30     # of a pass's step, before the run stalls


class SizingInfeasibleError(ValueError):
    """Inputs rule the sizing problem out before iteration starts."""


@dataclass
class SizingConfig:
    fixed_flows: FlowState
    diameter_bounds: tuple[float, float] | dict[PipeId, tuple[float, float]] = \
        DEFAULT_DIAMETER_BOUNDS
    residual_tolerance: float | None = None
    max_iterations: int = 200
    resolved_residual_tolerance = SolverConfig.resolved_residual_tolerance  # not a field
    check = SolverConfig.check                                               # not a field

    def bounds_for(self, pipe_id: PipeId | None = None) -> tuple[float, float]:
        """Pipe `pipe_id`'s diameter bounds: its dict entry, or the global pair."""
        bounds, where = self.diameter_bounds, ""
        if isinstance(bounds, dict):
            if pipe_id not in bounds:
                raise SizingInfeasibleError(f"no diameter bounds for loop pipe {pipe_id}")
            bounds, where = bounds[pipe_id], f" for pipe {pipe_id}"
        lo, hi = bounds
        if not (0.0 < lo < hi):
            raise ValueError(
                f"diameter bounds{where} must satisfy 0 < lower < upper, got ({lo}, {hi})")
        return lo, hi


@dataclass
class SizingReport:
    """`diameter_history[k]` is every pipe's diameter after k passes, a `History`
    of the core's arrays; `tree_pipes`, the pipes in no loop, keep theirs.
    A run in which no step lowers the worst loop residual ends "stalled",
    one that uses up its passes "max-iterations", and either ends
    "infeasible-bounds" instead if a pipe is at a bound; a start whose loop
    residuals are not finite ends one of those two after 0 passes.
    `stop_reason` is empty exactly when the run converged; otherwise it
    names the pass, the worst loop residual (or that the start's are not
    finite) and, for bounds, the pipes at one ("stalled at pass N: ...",
    "max-iterations after N passes: ...", "infeasible within bounds after
    N passes: ...")."""
    diameters: dict[PipeId, float]
    diameter_history: Sequence[dict[PipeId, float]]
    loop_residual_history: list[list[float]]
    termination: str      # converged | max-iterations | stalled | infeasible-bounds
    tree_pipes: set[PipeId] = field(default_factory=set)
    bounded_pipes: set[PipeId] = field(default_factory=set)
    stop_reason: str = ""

    @property
    def iteration_count(self) -> int:
        return len(self.diameter_history) - 1

    @property
    def max_residual(self) -> float:
        """The last worst loop residual: NaN or inf if any loop's is (`max` need not)."""
        return float(np.max(self.loop_residual_history[-1], initial=0.0))


# Extreme diameters overflow the drops; a residual that is not finite never converges.
@np.errstate(all="ignore")
def optimize_diameters(net: Network, basis: LoopBasis,
                       config: SizingConfig) -> SizingReport:
    """Adjust member-pipe diameters until every loop imbalance is below
    tolerance, never leaving the configured bounds.

    The fixed flows must give one finite flow per pipe of the network,
    balance every node and be nonzero on every pipe that belongs to a loop
    (a zero-flow pipe has zero diameter sensitivity).  Raises ValueError
    for a basis whose pipe ids, in order, are not the network's, or for a
    setting out of range (`SolverConfig.check`).
    """
    config.check()
    _require_valid(net)
    pipes = PipeArrays.of(net)
    basis.check_network(net)
    q, worst = _checked_flows(net, config.fixed_flows.flows, "fixed flow", SizingInfeasibleError)
    _check_balance(worst, "fixed flow", SizingInfeasibleError)

    # Everything below runs on the core: its flows, geometry and diameters.
    q = q[basis.core]
    core_ids = basis.core_ids
    idle = np.flatnonzero(q == 0.0).tolist()
    if idle:
        raise SizingInfeasibleError(
            f"pipe {min(core_ids[c] for c in idle)} lies in a loop but carries zero fixed flow")
    tree_pipes = set(pipes.ids) - set(core_ids)

    model = make_fluid_model(net.fluid)
    tolerance = config.resolved_residual_tolerance(net.fluid.kind)
    core_pipes = basis.core_pipes(pipes)
    magnitude = np.abs(q)
    sign = np.where(q < 0.0, -1.0, 1.0)
    # Sized pipes start inside their bounds; tree pipes keep the input value.
    # A global pair is judged once and broadcast, a dict pipe by pipe.
    if isinstance(config.diameter_bounds, dict):
        lower, upper = np.array([config.bounds_for(pid) for pid in core_ids]).reshape(-1, 2).T
    else:
        lower, upper = np.full((len(core_ids), 2), config.bounds_for()).T
    diameters = np.clip(core_pipes.diameter, lower, upper)

    def loop_residuals(diam: np.ndarray):
        """Loop residuals at `diam`, with the friction factor (water) that
        the drops took, for the derivative once `diam` is accepted."""
        friction = model.friction(core_pipes, magnitude, diam)
        drops = sign * model.drop_at_diameter(core_pipes, magnitude, diam, friction)
        return basis.sums(drops), friction

    history = [diameters]
    residuals, friction = loop_residuals(diameters)
    # A start that is not finite gives no step to take.
    finite_start = bool(np.isfinite(residuals).all())
    residual_history = [np.abs(residuals).tolist()]
    worst = max(residual_history[0], default=0.0) if finite_start else np.nan
    unit = RESIDUAL_UNIT[net.fluid.kind]
    stop_reason = ""

    # `not <=` keeps a NaN residual from passing for convergence.
    while not worst <= tolerance:
        if not finite_start:
            termination = STALLED
            stop_reason = "stalled at pass 0: the start's loop residuals are not finite"
            break
        if len(history) > config.max_iterations:
            termination = MAX_ITERATIONS
            stop_reason = (f"max-iterations after {len(history) - 1} passes: the worst loop "
                           f"residual is {worst:.3g} {unit}, above the tolerance "
                           f"{tolerance:.3g} {unit}")
            break
        sensitivity = np.abs(model.ddrop_ddiam(core_pipes, magnitude, diameters, friction))
        step = sign * basis.spread(basis.diagonal_corrections(residuals, sensitivity))

        # Backtrack on overshoot: the drop grows steeply for shrinking
        # diameters, so a full multi-loop step can overshoot badly.
        scale = 1.0
        for _ in range(STEP_HALVINGS):
            candidate = np.minimum(np.maximum(diameters + scale * step, lower), upper)
            cand_residuals, cand_friction = loop_residuals(candidate)
            if np.abs(cand_residuals).max() < worst:
                break
            scale *= 0.5
        else:
            termination = STALLED
            stop_reason = (f"stalled at pass {len(history)}: no step of {STEP_HALVINGS} "
                           f"halvings lowered the worst loop residual "
                           f"({worst:.3g} {unit})")
            break

        diameters, residuals, friction = candidate, cand_residuals, cand_friction
        history.append(diameters)
        residual_history.append(np.abs(residuals).tolist())
        worst = max(residual_history[-1], default=0.0)
    else:
        termination = CONVERGED

    bounded = {core_ids[c] for c in np.flatnonzero((diameters <= lower) | (diameters >= upper))}
    if termination != CONVERGED and bounded:
        termination = INFEASIBLE_BOUNDS
        state = (f"the worst loop residual is {worst:.3g} {unit}" if finite_start
                 else "the start's loop residuals are not finite,")
        stop_reason = (f"infeasible within bounds after {len(history) - 1} passes: {state} "
                       f"with {len(bounded)} of {len(core_ids)} sized pipes at a bound "
                       f"(lowest id {min(bounded)})")

    def every_pipe(diam: np.ndarray) -> dict[PipeId, float]:
        full = pipes.diameter.copy()
        full[basis.core] = diam
        return pipes.by_id(full)

    return SizingReport(
        diameters=every_pipe(diameters),
        diameter_history=History(history, every_pipe),
        loop_residual_history=residual_history,
        termination=termination,
        tree_pipes=tree_pipes,
        bounded_pipes=bounded,
        stop_reason=stop_reason,
    )
