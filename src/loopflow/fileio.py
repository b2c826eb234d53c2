"""Network file format (JSON), flow tables, and iteration-trace CSV output.

A network file holds the sections `fluid`, `nodes`, `pipes`, optional
`loops` (signed pipe-id cycles), optional `initial_flows`, and an optional
`reference_node`.  Units are fixed by the key suffixes: `_m3h`, `_m`,
`_pa`.  Unknown keys are rejected so typos cannot silently change a run.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .model import (
    FluidSpec,
    FlowState,
    Network,
    NodeId,
    NodeSpec,
    Pipe,
    PipeId,
    SolveReport,
    validate,
)

FLUID_KEYS = {
    "kind": (str, True),
    "rel_density": (float, False),
    "density_kg_m3": (float, False),
    "viscosity_pa_s": (float, False),
    "operating_pressure_pa": (float, False),
    "normal_pressure_pa": (float, False),
}
NODE_KEYS = {"id": (NodeId, True), "demand_m3h": (float, True)}
PIPE_KEYS = {
    "id": (int, True),
    "from": (NodeId, True),
    "to": (NodeId, True),
    "diameter_m": (float, True),
    "length_m": (float, True),
    "roughness_m": (float, False),
}
TOP_KEYS = {"fluid", "nodes", "pipes", "loops", "initial_flows", "reference_node"}


class NetworkFileError(ValueError):
    """Malformed or invalid network file; message carries the context."""


def parse_network(path: str | Path) -> Network:
    """Load and fully validate a network file.

    Raises NetworkFileError naming the offending section/element for both
    structural problems and network-invariant violations.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFileError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    net = network_from_dict(raw, context=str(path))
    violations = validate(net)
    if violations:
        detail = "; ".join(violations)
        raise NetworkFileError(f"{path}: invalid network: {detail}")
    return net


def network_from_dict(raw: dict, context: str = "network") -> Network:
    if not isinstance(raw, dict):
        raise NetworkFileError(f"{context}: top level must be an object")
    unknown = set(raw) - TOP_KEYS
    if unknown:
        raise NetworkFileError(
            f"{context}: unknown section(s) {sorted(unknown)}")
    for section in ("fluid", "nodes", "pipes"):
        if section not in raw:
            raise NetworkFileError(f"{context}: missing section '{section}'")

    fluid = _parse_fluid(raw["fluid"], context)
    nodes = [_parse_node(n, f"{context}: nodes[{i}]")
             for i, n in enumerate(_as_list(raw["nodes"], f"{context}: nodes"))]
    pipes = [_parse_pipe(p, f"{context}: pipes[{i}]")
             for i, p in enumerate(_as_list(raw["pipes"], f"{context}: pipes"))]

    loops = None
    if "loops" in raw:
        loops = []
        for i, loop in enumerate(_as_list(raw["loops"], f"{context}: loops")):
            seq = _as_list(loop, f"{context}: loops[{i}]")
            for v in seq:
                if isinstance(v, bool) or not isinstance(v, int) or v == 0:
                    raise NetworkFileError(
                        f"{context}: loops[{i}]: entries must be nonzero "
                        f"signed pipe ids, got {v!r}")
            loops.append(tuple(seq))

    initial = None
    if "initial_flows" in raw:
        initial = {}
        for i, row in enumerate(_as_list(raw["initial_flows"],
                                         f"{context}: initial_flows")):
            ctx = f"{context}: initial_flows[{i}]"
            _reject_unknown(row, {"pipe", "flow_m3h"}, ctx)
            pid = _get(row, "pipe", int, ctx)
            initial[pid] = _get(row, "flow_m3h", float, ctx)

    reference = raw.get("reference_node")
    if reference is not None:
        reference = _get(raw, "reference_node", NodeId, context)
    elif len({isinstance(n.id, str) for n in nodes}) > 1:
        # The default reference node is the largest id, and strings and
        # integers do not compare.
        raise NetworkFileError(
            f"{context}: node ids mix strings and integers, so "
            f"'reference_node' must be given")

    return Network(pipes=pipes, nodes=nodes, fluid=fluid,
                   explicit_loops=loops,
                   reference_node=reference,
                   initial_flows_m3h=initial)


def _as_list(value, context: str) -> list:
    if not isinstance(value, list):
        raise NetworkFileError(f"{context}: expected a list")
    return value


def _reject_unknown(obj: dict, allowed: set[str], context: str) -> None:
    if not isinstance(obj, dict):
        raise NetworkFileError(f"{context}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise NetworkFileError(f"{context}: unknown key(s) {sorted(unknown)}")


def _get(obj: dict, key: str, kind, context: str, default=None,
         required: bool = True):
    if key not in obj:
        if required:
            raise NetworkFileError(f"{context}: missing key '{key}'")
        return default
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise NetworkFileError(f"{context}: '{key}' must be a number")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise NetworkFileError(f"{context}: '{key}' must be an integer")
        return value
    if kind is str and not isinstance(value, str):
        raise NetworkFileError(f"{context}: '{key}' must be a string")
    if kind is NodeId and (isinstance(value, bool) or not isinstance(value, NodeId)):
        raise NetworkFileError(
            f"{context}: '{key}' must be a string or an integer")
    return value


def _parse_fluid(obj, context: str) -> FluidSpec:
    ctx = f"{context}: fluid"
    _reject_unknown(obj, set(FLUID_KEYS), ctx)
    kind = _get(obj, "kind", str, ctx)
    spec = FluidSpec(
        kind=kind,
        rel_density=_get(obj, "rel_density", float, ctx, required=False),
        density=_get(obj, "density_kg_m3", float, ctx, required=False),
        viscosity=_get(obj, "viscosity_pa_s", float, ctx, required=False),
        operating_pressure=_get(obj, "operating_pressure_pa", float, ctx,
                                default=4e5, required=False),
        normal_pressure=_get(obj, "normal_pressure_pa", float, ctx,
                             default=1e5, required=False),
    )
    return spec


def _parse_node(obj, context: str) -> NodeSpec:
    _reject_unknown(obj, set(NODE_KEYS), context)
    return NodeSpec(id=_get(obj, "id", NodeId, context),
                    demand_m3h=_get(obj, "demand_m3h", float, context))


def _parse_pipe(obj, context: str) -> Pipe:
    _reject_unknown(obj, set(PIPE_KEYS), context)
    return Pipe(
        id=_get(obj, "id", int, context),
        from_node=_get(obj, "from", NodeId, context),
        to_node=_get(obj, "to", NodeId, context),
        diameter=_get(obj, "diameter_m", float, context),
        length=_get(obj, "length_m", float, context),
        roughness=_get(obj, "roughness_m", float, context, default=0.0,
                       required=False),
    )


def network_to_dict(net: Network) -> dict:
    fluid: dict = {"kind": net.fluid.kind}
    if net.fluid.rel_density is not None:
        fluid["rel_density"] = net.fluid.rel_density
    if net.fluid.density is not None:
        fluid["density_kg_m3"] = net.fluid.density
    if net.fluid.viscosity is not None:
        fluid["viscosity_pa_s"] = net.fluid.viscosity
    fluid["operating_pressure_pa"] = net.fluid.operating_pressure
    fluid["normal_pressure_pa"] = net.fluid.normal_pressure

    out = {
        "fluid": fluid,
        "reference_node": net.reference_node,
        "nodes": [{"id": n.id, "demand_m3h": n.demand_m3h} for n in net.nodes],
        "pipes": [{
            "id": p.id, "from": p.from_node, "to": p.to_node,
            "diameter_m": p.diameter, "length_m": p.length,
            "roughness_m": p.roughness,
        } for p in net.pipes],
    }
    if net.explicit_loops is not None:
        out["loops"] = [list(loop) for loop in net.explicit_loops]
    if net.initial_flows_m3h is not None:
        out["initial_flows"] = [{"pipe": pid, "flow_m3h": q}
                                for pid, q in net.initial_flows_m3h.items()]
    return out


def write_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net), indent=2) + "\n",
                          encoding="utf-8")


def trace_rows(report: SolveReport, net: Network) -> list[list[str]]:
    """Iteration table in the customary print layout.

    One row per pipe: assumed flow, then one column per solver pass, then
    the final velocity.  Flows are m³/h at two decimals, and each cell's
    sign is relative to the previous column's direction (a negative cell
    marks the pass where a pipe's flow reversed).
    """
    states = [state.as_m3h() for state in report.iterations]
    header = ["pipe", "initial"]
    header += [str(k) for k in range(1, len(states))]
    header.append("velocity_m_s")

    rows = [header]
    for p in net.pipes:
        cells = [str(p.id)]
        previous = None
        for state in states:
            q_m3h = state[p.id]
            if previous is None:
                cells.append(f"{q_m3h:.2f}")
            else:
                relative = q_m3h if previous >= 0.0 else -q_m3h
                cells.append(f"{relative:.2f}")
            previous = q_m3h
        cells.append(f"{report.velocities[p.id]:.2f}")
        rows.append(cells)
    return rows


def write_trace(report: SolveReport, net: Network, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(trace_rows(report, net))


def format_trace(report: SolveReport, net: Network) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(trace_rows(report, net))
    return buffer.getvalue()


def write_sizing_trace(report, net: Network, path: str | Path) -> None:
    """Per-iteration diameter table: one row per pipe, one column per pass."""
    header = ["pipe", "initial"]
    header += [str(k) for k in range(1, len(report.diameter_history))]
    rows = [header]
    for p in net.pipes:
        cells = [str(p.id)]
        cells += [f"{diam[p.id]:.6f}" for diam in report.diameter_history]
        rows.append(cells)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def read_flows_csv(path: str | Path) -> dict[PipeId, float]:
    """Fixed-flow table for the sizing command: columns pipe, flow_m3h."""
    flows: dict[PipeId, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or \
                {"pipe", "flow_m3h"} - set(reader.fieldnames):
            raise NetworkFileError(
                f"{path}: expected CSV header with columns 'pipe,flow_m3h'")
        for i, row in enumerate(reader):
            try:
                flows[int(row["pipe"])] = float(row["flow_m3h"])
            except (TypeError, ValueError) as exc:
                raise NetworkFileError(f"{path}: bad row {i + 2}: {exc}") from exc
    return flows


def write_flows_csv(flows: FlowState, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pipe", "flow_m3h"])
        for pid, q in flows.as_m3h().items():
            writer.writerow([pid, f"{q:.6f}"])
