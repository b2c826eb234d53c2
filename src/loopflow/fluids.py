"""Pressure functions of the two supported fluids, over arrays of pipes.

`GasModel` and `WaterModel` turn pipe geometry and flow magnitudes into the
pressure function used by the network equations: the squared-pressure
(Renouard) drop for distribution gas, the Colebrook/Darcy-Weisbach drop
for water.  Both are stateless and offer the same six methods, so the two
fluids share every solver path.  `pipe` is either one `Pipe` with scalar
flows or the `PipeArrays` of a whole network with one flow per pipe, so a
solver pass evaluates every pipe in one call.  `evaluate(pipe, flow,
dflow_floor)` gives the drop at the flow magnitude `flow` and |d drop/d
flow| at the magnitude floored to `dflow_floor` > 0 (a zero derivative
would zero out a loop row), for water with λ's own slope below Re 4000, as
EPANET 2's gradient has it; `ddrop_ddiam` is the drop's diameter
sensitivity at fixed flow and λ, for sizing.  `friction(pipe, flow,
diameter)` is the friction factor those inputs give: the Colebrook
solution for water, `None` for gas, whose drop takes none.
`drop_at_diameter` and `ddrop_ddiam` take the model's own friction factor
of their pipe, flow and diameter as a required last argument and never
solve for it; `drop` passes it itself.  Sizing hands the factor of the
drops it accepted on to the next diameter derivative, so it solves
Colebrook once per diameter vector.

The models trust their input: the pipes of a network that `model.validate`
has passed and flow magnitudes |q|, so they call the kernels' unchecked
bodies.  Only the public functions of `kernels` check their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .kernels import LAMINAR_RE_LIMIT, TURBULENT_RE_LIMIT, Values
from .model import GAS, WATER, FluidSpec

# Residual units of the loop equations per fluid kind.
RESIDUAL_UNIT = {GAS: "Pa2", WATER: "Pa"}


@dataclass(frozen=True)
class GasModel:
    rel_density: float
    pressure_ratio: float

    def evaluate(self, pipe, flow, dflow_floor):
        return (kernels._renouard_drop(self.rel_density, pipe.length, flow, pipe.diameter),
                kernels._renouard_drop_dflow(self.rel_density, pipe.length,
                                             np.maximum(flow, dflow_floor), pipe.diameter))

    def drop(self, pipe, flow):
        return self.drop_at_diameter(pipe, flow, pipe.diameter,
                                     self.friction(pipe, flow, pipe.diameter))

    def friction(self, pipe, flow, diameter):
        return None

    def drop_at_diameter(self, pipe, flow, diameter, friction):
        return kernels._renouard_drop(self.rel_density, pipe.length, flow, diameter)

    def ddrop_ddiam(self, pipe, flow, diameter, friction):
        return kernels._renouard_drop_ddiam(self.rel_density, pipe.length, flow, diameter)

    def velocity(self, pipe, flow):
        return kernels._flow_velocity(self.pressure_ratio, flow, pipe.diameter)


@dataclass(frozen=True)
class WaterModel:
    density: float
    viscosity: float

    def friction(self, pipe, flow: Values, diameter: Values) -> Values:
        # A zero flow has zero drop and zero derivatives whatever its
        # friction factor; a unit stand-in flow keeps that factor defined.
        re = kernels._reynolds_number(self.density, self.viscosity,
                                      np.where(flow > 0.0, flow, 1.0), diameter)
        return kernels._colebrook_friction_factor(re, pipe.roughness / diameter)[0]

    def evaluate(self, pipe, flow, dflow_floor):
        floored = np.maximum(flow, dflow_floor)
        re = kernels._reynolds_number(self.density, self.viscosity, floored, pipe.diameter)
        lam, turbulent = kernels._colebrook_friction_factor(re, pipe.roughness / pipe.diameter)
        ddrop = kernels._darcy_weisbach_drop_dflow(
            lam, pipe.length, floored, pipe.diameter, self.density)
        if re.min(initial=np.inf) < TURBULENT_RE_LIMIT:
            # Below Re 4000 λ follows the flow (Rossman 2000): D = d(Kλq²)/dq is
            # Kλq in the laminar range, 2Kλq + Kq·Re·(λ_T - 64/2300)/1700 above it.
            span = TURBULENT_RE_LIMIT - LAMINAR_RE_LIMIT
            rise = re * (turbulent - 64.0 / LAMINAR_RE_LIMIT) / (2.0 * span * lam)
            ddrop = np.where(re < LAMINAR_RE_LIMIT, 0.5 * ddrop,
                             np.where(re < TURBULENT_RE_LIMIT, ddrop + ddrop * rise, ddrop))
        if ((flow > 0.0) & (floored > flow)).any():
            # The drop of a flow under the floor takes its own friction factor.
            lam = self.friction(pipe, flow, pipe.diameter)
        drop = kernels._darcy_weisbach_drop(lam, pipe.length, flow, pipe.diameter,
                                            self.density)
        return drop, ddrop

    def drop(self, pipe, flow):
        return self.drop_at_diameter(pipe, flow, pipe.diameter,
                                     self.friction(pipe, flow, pipe.diameter))

    def drop_at_diameter(self, pipe, flow, diameter, friction):
        return kernels._darcy_weisbach_drop(friction, pipe.length, flow, diameter, self.density)

    def ddrop_ddiam(self, pipe, flow, diameter, friction):
        # Friction factor frozen at the current state: only the explicit
        # diameter dependence is followed.
        return kernels._darcy_weisbach_drop_ddiam(friction, pipe.length, flow, diameter,
                                                  self.density)

    def velocity(self, pipe, flow):
        return kernels._flow_velocity(1.0, flow, pipe.diameter)


def make_fluid_model(fluid: FluidSpec) -> GasModel | WaterModel:
    if fluid.kind == GAS:
        return GasModel(rel_density=fluid.rel_density,
                        pressure_ratio=fluid.pressure_ratio)
    return WaterModel(density=fluid.density, viscosity=fluid.viscosity)
