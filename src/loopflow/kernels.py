"""Hydraulic kernels: pressure functions, their derivatives, Colebrook.

Every function evaluates elementwise over numpy arrays (one element per
pipe) and also accepts plain scalars.  A public kernel raises ValueError
for any element outside its domain, NaN included, then calls the private
body holding its formula, which the fluid models call unchecked on
validated networks.  Colebrook takes three Newton steps from the
Swamee-Jain seed, within 6.7e-16 relative of the root for every turbulent
Re up to 1e300.

Units are strict SI throughout: flows in m³/s, lengths and diameters in m,
pressures in Pa (gas pressure functions are differences of squared
pressures, Pa²).
"""

import math

import numpy as np

# Renouard relation for distribution-pressure natural gas:
#   p1² - p2² = 4810 · rho_r · L · Q^1.82 / d^4.82
RENOUARD_COEFF = 4810.0
RENOUARD_FLOW_EXP = 1.82
RENOUARD_DIAM_EXP = 4.82

# Friction-factor regimes: laminar below, Colebrook above, linear blend
# in between (solver iterates may transit low flows even when the final
# state is fully turbulent).
LAMINAR_RE_LIMIT = 2300.0
TURBULENT_RE_LIMIT = 4000.0

_TWO_OVER_LN10 = 2.0 / math.log(10.0)

# A scalar, or an array with one element per pipe.
Values = float | np.ndarray


def _reject(values: Values, bad, message: str) -> None:
    """Raise ValueError naming the first element flagged in `bad`."""
    if bad.any():
        raise ValueError(f"{message}, got {np.asarray(values)[bad].flat[0]}")


def _check_pipe(length: Values, diameter: Values, flow: Values) -> None:
    _reject(diameter, ~np.greater(diameter, 0.0), "pipe diameter must be > 0 m")
    _reject(length, ~np.greater(length, 0.0), "pipe length must be > 0 m")
    _check_flow(flow)


def _check_flow(flow: Values) -> None:
    _reject(flow, ~np.greater_equal(flow, 0.0), "flow magnitude must be >= 0 m3/s")


def renouard_drop(rel_density: Values, length: Values, flow: Values,
                  diameter: Values) -> Values:
    """Gas pseudo-pressure drop p1² - p2² (Pa²) at flow magnitude `flow`."""
    _check_pipe(length, diameter, flow)
    return _renouard_drop(rel_density, length, flow, diameter)


def _renouard_drop(rho_r, length, flow, diam):
    return RENOUARD_COEFF * rho_r * length * flow ** RENOUARD_FLOW_EXP / diam ** RENOUARD_DIAM_EXP


def renouard_drop_dflow(rel_density: Values, length: Values, flow: Values,
                        diameter: Values) -> Values:
    """Flow derivative of `renouard_drop` (Pa²·s/m³)."""
    _check_pipe(length, diameter, flow)
    return _renouard_drop_dflow(rel_density, length, flow, diameter)


def _renouard_drop_dflow(rho_r, length, flow, diam):
    return (RENOUARD_FLOW_EXP * RENOUARD_COEFF * rho_r * length
            * flow ** (RENOUARD_FLOW_EXP - 1.0) / diam ** RENOUARD_DIAM_EXP)


def renouard_drop_ddiam(rel_density: Values, length: Values, flow: Values,
                        diameter: Values) -> Values:
    """Diameter derivative of `renouard_drop` (Pa²/m); negative for flow > 0."""
    _check_pipe(length, diameter, flow)
    return _renouard_drop_ddiam(rel_density, length, flow, diameter)


def _renouard_drop_ddiam(rho_r, length, flow, diam):
    return (-RENOUARD_DIAM_EXP * RENOUARD_COEFF * rho_r * length
            * flow ** RENOUARD_FLOW_EXP / diam ** (RENOUARD_DIAM_EXP + 1.0))


def reynolds_number(density: Values, viscosity: Values, flow: Values,
                    diameter: Values) -> Values:
    """Reynolds number Re = 4·rho·Q / (pi·d·mu) of circular-pipe flow."""
    _reject(viscosity, ~np.greater(viscosity, 0.0), "viscosity must be > 0 Pa*s")
    _reject(diameter, ~np.greater(diameter, 0.0), "pipe diameter must be > 0 m")
    _check_flow(flow)
    return _reynolds_number(density, viscosity, flow, diameter)


def _reynolds_number(density, viscosity, flow, diameter):
    return 4.0 * density * flow / (math.pi * diameter * viscosity)


def colebrook_friction_factor(reynolds: Values, rel_roughness: Values) -> Values:
    """Darcy friction factor from the implicit Colebrook-White relation.

    Solves 1/sqrt(lam) = -2·log10(2.51/(Re·sqrt(lam)) + rr/3.71) for
    x = 1/sqrt(lam) by three Newton steps from the Swamee-Jain seed, which
    end within 6.7e-16 relative of the root for Re from 4000 to 1e300 and
    rr 0 or 1e-8 to 1.  Below Re = 2300 the laminar value 64/Re is
    returned; between 2300 and 4000 the two regimes are blended linearly
    in Re.  Re must be finite and > 0, and rr finite and >= 0.
    """
    re = np.asarray(reynolds, dtype=float)
    _reject(re, ~np.greater(re, 0.0), "Reynolds number must be > 0")
    _reject(re, np.isinf(re), "Reynolds number must be finite")
    _reject(rel_roughness, ~np.greater_equal(rel_roughness, 0.0),
            "relative roughness must be >= 0")
    _reject(rel_roughness, np.isinf(rel_roughness), "relative roughness must be finite")
    return _colebrook_friction_factor(re, rel_roughness)[0]


def _colebrook_friction_factor(reynolds, rel_roughness):
    """`colebrook_friction_factor`, and the Colebrook array at max(Re, 4000) it blends."""
    re = np.asarray(reynolds, dtype=float)
    # Transition elements take the turbulent value at Re = 4000 for the blend.
    lam = turbulent = _colebrook_turbulent(np.maximum(re, TURBULENT_RE_LIMIT), rel_roughness)
    if re.min(initial=np.inf) < TURBULENT_RE_LIMIT:
        t = (re - LAMINAR_RE_LIMIT) / (TURBULENT_RE_LIMIT - LAMINAR_RE_LIMIT)
        blend = (1.0 - t) * (64.0 / LAMINAR_RE_LIMIT) + t * lam
        lam = np.where(re < LAMINAR_RE_LIMIT, 64.0 / re,
                       np.where(re < TURBULENT_RE_LIMIT, blend, lam))
    return lam[()], turbulent


def _colebrook_turbulent(reynolds: Values, rel_roughness: Values) -> Values:
    # Newton on f(x) = x + 2·log10(a·x + b) from the explicit Swamee-Jain
    # seed.  f is increasing and concave, so after the first step the
    # iterates approach the root from below; two steps leave 5.8e-12, three
    # 6.7e-16.  A NaN Re, or an infinite one on a smooth pipe, gives NaN.
    a = 2.51 / reynolds
    b = rel_roughness / 3.71
    slope = _TWO_OVER_LN10 * a         # f'(x) = 1 + slope / (a·x + b)
    x = -2.0 * np.log10(b + 5.74 / reynolds ** 0.9)
    for _ in range(3):
        s = a * x + b
        x = x - (x + 2.0 * np.log10(s)) / (1.0 + slope / s)
    return 1.0 / (x * x)


def darcy_weisbach_drop(friction_factor: Values, length: Values, flow: Values,
                        diameter: Values, density: Values) -> Values:
    """Liquid pressure drop (Pa): lam · L/d⁵ · 8·Q²/pi² · rho."""
    _check_pipe(length, diameter, flow)
    return _darcy_weisbach_drop(friction_factor, length, flow, diameter, density)


def _darcy_weisbach_drop(lam, length, flow, diam, density):
    return 8.0 * density / (math.pi * math.pi) * lam * length * flow * flow / diam ** 5


def darcy_weisbach_drop_dflow(friction_factor: Values, length: Values,
                              flow: Values, diameter: Values,
                              density: Values) -> Values:
    """Flow derivative of `darcy_weisbach_drop` (Pa·s/m³), friction factor
    held constant."""
    _check_pipe(length, diameter, flow)
    return _darcy_weisbach_drop_dflow(friction_factor, length, flow, diameter, density)


def _darcy_weisbach_drop_dflow(lam, length, flow, diam, density):
    return 16.0 * density / (math.pi * math.pi) * lam * length * flow / diam ** 5


def darcy_weisbach_drop_ddiam(friction_factor: Values, length: Values,
                              flow: Values, diameter: Values,
                              density: Values) -> Values:
    """Diameter derivative of `darcy_weisbach_drop` (Pa/m), friction factor
    held constant; negative for flow > 0."""
    _check_pipe(length, diameter, flow)
    return _darcy_weisbach_drop_ddiam(friction_factor, length, flow, diameter, density)


def _darcy_weisbach_drop_ddiam(lam, length, flow, diam, density):
    return -5.0 * 8.0 * density / (math.pi * math.pi) * lam * length * flow * flow / diam ** 6


def flow_velocity(pressure_ratio: Values, flow: Values, diameter: Values) -> Values:
    """Mean velocity (m/s) in a circular pipe: 4·ratio·Q / (d²·pi).

    `pressure_ratio` rescales a flow stated at normal (standard) pressure to
    the operating pressure (p_normal / p_operating for gas, 1 for liquids).
    """
    _reject(diameter, ~np.greater(diameter, 0.0), "pipe diameter must be > 0 m")
    _check_flow(flow)
    return _flow_velocity(pressure_ratio, flow, diameter)


def _flow_velocity(pressure_ratio, flow, diameter):
    return 4.0 * pressure_ratio * flow / (diameter * diameter * math.pi)
