"""Network file format (JSON), flow tables, and iteration-trace CSV output.

A network file holds the sections `fluid`, `nodes`, `pipes`, optional
`loops` (signed pipe-id cycles), optional `initial_flows`, and an optional
`reference_node`.  Units are fixed by the key suffixes: `_m3h`, `_m`,
`_pa`.  Unknown keys, non-finite numbers and repeated flow rows are
rejected so typos cannot silently change a run.

The key tables `FLUID_KEYS`, `NODE_KEYS` and `PIPE_KEYS` are the one
declaration of the fluid, node and pipe records: each maps a JSON key to
(model field, value kind, required) in the order of the model's fields,
which is the order keys are checked and written.  Reading gives a missing
optional key the model's default; writing leaves out fields that are None.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Set as AbstractSet
from math import isfinite
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
    "kind": ("kind", str, True),
    "rel_density": ("rel_density", float, False),
    "density_kg_m3": ("density", float, False),
    "viscosity_pa_s": ("viscosity", float, False),
    "operating_pressure_pa": ("operating_pressure", float, False),
    "normal_pressure_pa": ("normal_pressure", float, False),
}
NODE_KEYS = {"id": ("id", NodeId, True), "demand_m3h": ("demand_m3h", float, True)}
PIPE_KEYS = {
    "id": ("id", int, True),
    "from": ("from_node", NodeId, True),
    "to": ("to_node", NodeId, True),
    "diameter_m": ("diameter", float, True),
    "length_m": ("length", float, True),
    "roughness_m": ("roughness", float, False),
}
TOP_KEYS = {"fluid", "nodes", "pipes", "loops", "initial_flows", "reference_node"}


class NetworkFileError(ValueError):
    """Malformed or invalid network file; message carries the context."""


def parse_network(path: str | Path) -> Network:
    """Load and fully validate a network file.

    Raises NetworkFileError naming the offending section/element for both
    structural problems and network-invariant violations.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise NetworkFileError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    # Not UTF-8, an integer too long to convert, or arrays nested too deep.
    except (ValueError, RecursionError) as exc:
        raise NetworkFileError(f"{path}: parse error: {exc}") from exc
    net = network_from_dict(raw, context=str(path))
    violations = validate(net)
    if violations:
        raise NetworkFileError(f"{path}: invalid network: {'; '.join(violations)}")
    return net


def network_from_dict(raw: dict, context: str = "network") -> Network:
    if not isinstance(raw, dict):
        raise NetworkFileError(f"{context}: top level must be an object")
    unknown = set(raw) - TOP_KEYS
    if unknown:
        raise NetworkFileError(f"{context}: unknown section(s) {sorted(unknown)}")
    for section in ("fluid", "nodes", "pipes"):
        if section not in raw:
            raise NetworkFileError(f"{context}: missing section '{section}'")

    fluid = _parse_record(raw["fluid"], FLUID_KEYS, FluidSpec, f"{context}: fluid")
    nodes = [_parse_record(n, NODE_KEYS, NodeSpec, f"{context}: nodes[{i}]")
             for i, n in enumerate(_as_list(raw["nodes"], f"{context}: nodes"))]
    pipes = [_parse_record(p, PIPE_KEYS, Pipe, f"{context}: pipes[{i}]")
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
            flow = _get(row, "flow_m3h", float, ctx)
            if pid in initial:
                raise NetworkFileError(f"{ctx}: second flow for pipe {pid}")
            initial[pid] = flow

    reference = raw.get("reference_node")
    if reference is not None:
        reference = _get(raw, "reference_node", NodeId, context)
    elif len({isinstance(n.id, str) for n in nodes}) > 1:
        # The default reference node is the largest id, and strings and
        # integers do not compare.
        raise NetworkFileError(
            f"{context}: node ids mix strings and integers, so "
            f"'reference_node' must be given")

    return Network(pipes=pipes, nodes=nodes, fluid=fluid, explicit_loops=loops,
                   reference_node=reference, initial_flows_m3h=initial)


def _as_list(value, context: str) -> list:
    if not isinstance(value, list):
        raise NetworkFileError(f"{context}: expected a list")
    return value


def _reject_unknown(obj: dict, allowed: AbstractSet[str], context: str) -> None:
    if not isinstance(obj, dict):
        raise NetworkFileError(f"{context}: expected an object")
    if not obj.keys() <= allowed:
        raise NetworkFileError(f"{context}: unknown key(s) {sorted(obj.keys() - allowed)}")


def _get(obj: dict, key: str, kind, context: str):
    if key not in obj:
        raise NetworkFileError(f"{context}: missing key '{key}'")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise NetworkFileError(f"{context}: '{key}' must be a number")
        try:
            value = float(value)
        except OverflowError:
            raise NetworkFileError(
                f"{context}: '{key}' is too large for a floating-point number") from None
        if not isfinite(value):
            raise NetworkFileError(f"{context}: '{key}' must be finite, got {value!r}")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise NetworkFileError(f"{context}: '{key}' must be an integer")
        return value
    if kind is str and not isinstance(value, str):
        raise NetworkFileError(f"{context}: '{key}' must be a string")
    if kind is NodeId and (isinstance(value, bool) or not isinstance(value, NodeId)):
        raise NetworkFileError(f"{context}: '{key}' must be a string or an integer")
    # A JSON escape can spell a lone surrogate, which no UTF-8 output can encode.
    if isinstance(value, str) and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise NetworkFileError(
                f"{context}: '{key}' is not valid UTF-8 text (a lone surrogate)") from None
    return value


def _parse_record(obj, keys: dict, cls, context: str):
    """One fluid, node or pipe record, checked and passed on in table order
    (by position, which is faster than by keyword); a missing optional key
    takes the field's default, which a dataclass keeps as a class attribute."""
    _reject_unknown(obj, keys.keys(), context)
    values = []
    for key, (name, kind, required) in keys.items():
        values.append(_get(obj, key, kind, context) if required or key in obj
                      else getattr(cls, name))
    return cls(*values)


def network_to_dict(net: Network) -> dict:
    out = {
        "fluid": _record_dict(net.fluid, FLUID_KEYS),
        "reference_node": net.reference_node,
        "nodes": [_record_dict(n, NODE_KEYS) for n in net.nodes],
        "pipes": [_record_dict(p, PIPE_KEYS) for p in net.pipes],
    }
    if net.explicit_loops is not None:
        out["loops"] = [list(loop) for loop in net.explicit_loops]
    if net.initial_flows_m3h is not None:
        out["initial_flows"] = [{"pipe": pid, "flow_m3h": q}
                                for pid, q in net.initial_flows_m3h.items()]
    return out


def _record_dict(record, keys: dict) -> dict:
    values = {key: getattr(record, name) for key, (name, _, _) in keys.items()}
    return {key: value for key, value in values.items() if value is not None}


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
    Path(path).write_text(format_trace(report, net), encoding="utf-8", newline="")


def format_trace(report: SolveReport, net: Network) -> str:
    return _csv_text(trace_rows(report, net))


def write_sizing_trace(report, net: Network, path: str | Path) -> None:
    """Per-iteration diameter table: one row per pipe, one column per pass."""
    header = ["pipe", "initial"]
    header += [str(k) for k in range(1, len(report.diameter_history))]
    rows = [header]
    for p in net.pipes:
        cells = [str(p.id)]
        cells += [f"{diam[p.id]:.6f}" for diam in report.diameter_history]
        rows.append(cells)
    Path(path).write_text(_csv_text(rows), encoding="utf-8", newline="")


def _csv_text(rows) -> str:
    """The rows as CSV text, with the CRLF line ends that `csv` writes."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def read_flows_csv(path: str | Path) -> dict[PipeId, float]:
    """Fixed-flow table for the sizing command: columns pipe, flow_m3h."""
    flows: dict[PipeId, float] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or \
                    {"pipe", "flow_m3h"} - set(reader.fieldnames):
                raise NetworkFileError(
                    f"{path}: expected CSV header with columns 'pipe,flow_m3h'")
            for i, row in enumerate(reader, start=2):
                try:
                    pid, flow = int(row["pipe"]), float(row["flow_m3h"])
                except (TypeError, ValueError) as exc:
                    raise NetworkFileError(f"{path}: bad row {i}: {exc}") from exc
                if not isfinite(flow):
                    raise NetworkFileError(
                        f"{path}: row {i}: 'flow_m3h' must be finite, got {flow!r}")
                if pid in flows:
                    raise NetworkFileError(f"{path}: row {i}: second flow for pipe {pid}")
                flows[pid] = flow
    except (csv.Error, UnicodeDecodeError) as exc:    # a field over the csv limit, or not UTF-8
        raise NetworkFileError(f"{path}: unreadable table: {exc}") from exc
    return flows


def write_flows_csv(flows: FlowState, path: str | Path) -> None:
    rows = [["pipe", "flow_m3h"]] + [[pid, f"{q:.6f}"] for pid, q in flows.as_m3h().items()]
    Path(path).write_text(_csv_text(rows), encoding="utf-8", newline="")
