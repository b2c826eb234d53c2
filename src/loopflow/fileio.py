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
Sections are checked a column at a time (record by record only to name the
first bad one) and reach `Network` as columns.  A UTF-8 byte-order mark is skipped.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import suppress
from itertools import islice
from math import isfinite
from operator import itemgetter
from pathlib import Path

import numpy as np

from .model import (
    M3H_PER_M3S,
    FluidSpec,
    FlowState,
    History,
    Network,
    NodeId,
    NodeSpec,
    Pipe,
    PipeArrays,
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
FLOW_KEYS = {"pipe": ("pipe", int, True), "flow_m3h": ("flow_m3h", float, True)}
# Per value kind, the types it takes (a bool is none of them) and its name.
KINDS = {float: ((int, float), "a number"), int: ((int,), "an integer"),
         str: ((str,), "a string"), NodeId: ((str, int), "a string or an integer")}
TOP_KEYS = {"fluid", "nodes", "pipes", "loops", "initial_flows", "reference_node"}


class NetworkFileError(ValueError):
    """Malformed or invalid network file; message carries the context."""


def parse_network(path: str | Path) -> Network:
    """Load and fully validate a network file.

    Raises NetworkFileError naming the offending section/element for both
    structural problems and network-invariant violations.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
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
    nodes = _parse_columns(raw["nodes"], NODE_KEYS, NodeSpec, f"{context}: nodes")
    pipes = _parse_columns(raw["pipes"], PIPE_KEYS, Pipe, f"{context}: pipes")

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
        initial, where = {}, f"{context}: initial_flows"
        records = _as_list(raw["initial_flows"], where)
        columns = _columns(records, FLOW_KEYS, None)    # every key is required
        # Row by row on either path, so a repeated pipe is named before a later bad row.
        rows = zip(*columns) if columns is not None else (
            _parse_record(r, FLOW_KEYS, lambda *row: row, f"{where}[{i}]")
            for i, r in enumerate(records))
        for pid, flow in rows:
            if pid in initial:
                raise NetworkFileError(f"{where}[{len(initial)}]: second flow for pipe {pid}")
            initial[pid] = flow

    reference = raw.get("reference_node")
    if reference is not None:
        reference = _get(raw, "reference_node", NodeId, context)
    elif len(set(map(type, nodes[0]))) > 1:
        # The default reference node is the largest id, and strings and
        # integers do not compare.
        raise NetworkFileError(
            f"{context}: node ids mix strings and integers, so "
            f"'reference_node' must be given")

    return Network._of_columns(pipes, nodes, fluid, loops, reference, initial)


def _as_list(value, context: str) -> list:
    if not isinstance(value, list):
        raise NetworkFileError(f"{context}: expected a list")
    return value


def _get(obj: dict, key: str, kind, context: str):
    if key not in obj:
        raise NetworkFileError(f"{context}: missing key '{key}'")
    value = obj[key]
    types, name = KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise NetworkFileError(f"{context}: '{key}' must be {name}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:
            raise NetworkFileError(
                f"{context}: '{key}' is too large for a floating-point number") from None
        if not isfinite(value):
            raise NetworkFileError(f"{context}: '{key}' must be finite, got {value!r}")
    # A JSON escape can spell a lone surrogate, which no UTF-8 output can encode.
    elif isinstance(value, str) and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise NetworkFileError(
                f"{context}: '{key}' is not valid UTF-8 text (a lone surrogate)") from None
    return value


def _parse_record(obj, keys: dict, cls, context: str):
    """One fluid, node, pipe or flow record, checked and passed on in table order
    (by position, which is faster than by keyword); a missing optional key
    takes the field's default, which a dataclass keeps as a class attribute."""
    if not isinstance(obj, dict):
        raise NetworkFileError(f"{context}: expected an object")
    if not obj.keys() <= keys.keys():
        raise NetworkFileError(f"{context}: unknown key(s) {sorted(obj.keys() - keys.keys())}")
    values = []
    for key, (name, kind, required) in keys.items():
        values.append(_get(obj, key, kind, context) if required or key in obj
                      else getattr(cls, name))
    return cls(*values)


def _parse_columns(records, keys: dict, cls, context: str) -> list[list]:
    """A section's `cls` field values, one column per key: checked a column at a time,
    or one record at a time when a column check fails, so that the first bad one is named."""
    columns = _columns(_as_list(records, context), keys, cls)
    if columns is None:
        built = [_parse_record(r, keys, cls, f"{context}[{i}]") for i, r in enumerate(records)]
        columns = [[getattr(r, name) for r in built] for name, _, _ in keys.values()]
    return columns


def _columns(records: list, keys: dict, cls) -> list[list] | None:
    """The values `_parse_record` would pass on, one column per key, or None
    where it could reject a record or must check a non-ASCII string."""
    if not (set(map(type, records)) <= {dict} and set().union(*records) <= keys.keys()):
        return None
    columns = []
    for key, (name, kind, required) in keys.items():
        # A missing required key reads as None, which is of no kind.
        column = [r.get(key, None if required else getattr(cls, name)) for r in records]
        types = set(map(type, column))
        if not types <= set(KINDS[kind][0]) or str in types and \
                not "".join([v for v in column if type(v) is str]).isascii():
            return None
        try:    # numbers as `_get` converts them, so 2**53 + 1 rounds the same
            columns.append(list(map(float, column)) if kind is float else column)
        except OverflowError:
            return None
        if kind is float and not all(map(isfinite, columns[-1])):
            return None
    return columns


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
    pipes, passes = PipeArrays.of(net), report.iterations
    # A solver's `History` holds the passes as arrays in its network's pipe order.
    if isinstance(passes, History) and tuple(passes[0].flows) == pipes.ids:
        q = np.array(passes._arrays) * M3H_PER_M3S
    else:
        q = np.array([pipes.flows(state) for state in passes]) * M3H_PER_M3S
    q[1:] = np.where(q[:-1] >= 0.0, q[1:], -q[1:])
    header = ["pipe", "initial", *map(str, range(1, len(q))), "velocity_m_s"]
    return [header] + [[str(pid), *(f"{v:.2f}" for v in flows), f"{report.velocities[pid]:.2f}"]
                       for pid, flows in zip(pipes.ids, q.T.tolist())]


def write_trace(report: SolveReport, net: Network, path: str | Path) -> None:
    Path(path).write_text(format_trace(report, net), encoding="utf-8", newline="")


def format_trace(report: SolveReport, net: Network) -> str:
    return _csv_text(trace_rows(report, net))


def write_sizing_trace(report, net: Network, path: str | Path) -> None:
    """Per-iteration diameter table: one row per pipe, one column per pass."""
    history = report.diameter_history
    rows = [["pipe", "initial", *map(str, range(1, len(history)))]]
    rows += [[str(p.id), *(f"{diam[p.id]:.6f}" for diam in history)] for p in net.pipes]
    Path(path).write_text(_csv_text(rows), encoding="utf-8", newline="")


def _csv_text(rows) -> str:
    """The rows as CSV text, with the CRLF line ends that `csv` writes."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def read_flows_csv(path: str | Path) -> dict[PipeId, float]:
    """Fixed-flow table for the sizing command: columns pipe, flow_m3h, found
    by name in the header; blank lines are skipped and not counted as rows.
    Read a column at a time, or row by row where a check fails, to name the row."""
    try:
        # Decoded whole, so a table not in UTF-8 is refused at any size, and
        # read as `csv.DictReader` reads, a short row as None.
        text = Path(path).read_bytes().decode("utf-8-sig")
        header = next(csv.reader(io.StringIO(text, newline="")), [])
        column = {name: i for i, name in enumerate(header)}
        if {"pipe", "flow_m3h"} - column.keys():
            raise NetworkFileError(f"{path}: expected CSV header with columns 'pipe,flow_m3h'")
        def rows():     # the rows after the header, less the blank ones
            return filter(None, islice(csv.reader(io.StringIO(text, newline="")), 1, None))
        with suppress(csv.Error, IndexError, ValueError):    # else row by row, below
            body = list(rows())
            pids, flows = (list(map(kind, map(itemgetter(column[key]), body)))
                           for key, kind in (("pipe", int), ("flow_m3h", float)))
            if all(map(isfinite, flows)) and len(set(pids)) == len(pids):
                return dict(zip(pids, flows))
        flows = {}
        for i, row in enumerate(rows(), start=2):
            try:
                cells = row + [None] * len(header)
                pid, flow = int(cells[column["pipe"]]), float(cells[column["flow_m3h"]])
            except (TypeError, ValueError) as exc:
                raise NetworkFileError(f"{path}: bad row {i}: {exc}") from exc
            if not isfinite(flow):
                raise NetworkFileError(f"{path}: row {i}: 'flow_m3h' must be finite, got {flow!r}")
            if pid in flows:
                raise NetworkFileError(f"{path}: row {i}: second flow for pipe {pid}")
            flows[pid] = flow
    except (csv.Error, UnicodeDecodeError) as exc:    # a field over the csv limit, or not UTF-8
        raise NetworkFileError(f"{path}: unreadable table: {exc}") from exc
    return flows


def write_flows_csv(flows: FlowState, path: str | Path) -> None:
    rows = [["pipe", "flow_m3h"]] + [[pid, f"{q:.6f}"] for pid, q in flows.as_m3h().items()]
    Path(path).write_text(_csv_text(rows), encoding="utf-8", newline="")
