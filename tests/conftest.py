import importlib.util
import json
import random
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from loopflow.fileio import network_from_dict


def _load(name: str):
    data = resources.files("loopflow").joinpath(f"data/{name}").read_text()
    return network_from_dict(json.loads(data), context=name)


@pytest.fixture(scope="session")
def gas_network():
    return _load("fixture_gas.json")


@pytest.fixture(scope="session")
def water_network():
    return _load("fixture_water.json")


def node_balance_residuals_m3h(net, flows_m3s: dict) -> dict:
    """Brute-force continuity check: net inflow minus demand per node, m³/h.

    Deliberately independent of the library's own balance bookkeeping.
    """
    residual = {n.id: -n.demand_m3h for n in net.nodes}
    for p in net.pipes:
        q_m3h = flows_m3s[p.id] * 3600.0
        residual[p.to_node] += q_m3h
        residual[p.from_node] -= q_m3h
    return residual


def matrix_by_pipe_id(net, basis) -> np.ndarray:
    """B from `basis.loops`, one (pipe id, sign) entry at a time."""
    column = {pid: j for j, pid in enumerate(net.pipe_ids)}
    out = np.zeros((len(basis.loops), len(net.pipes)))
    for k, loop in enumerate(basis.loops):
        for pid, sign in loop:
            out[k, column[pid]] = sign
    return out


def loop_matrix(basis) -> np.ndarray:
    """B on the basis's core, built from its members in traversal order: the
    oracle for the basis's loop sums, corrections and Jacobian."""
    out = np.zeros((len(basis), len(basis.core)))
    rows = np.repeat(np.arange(len(basis)), np.diff(basis.starts))
    out[rows, np.searchsorted(basis.core, basis.columns)] = basis.signs
    return out


def field_types(net) -> list[tuple[type, ...]]:
    """The type of every field of every node and pipe record, and of every
    initial flow's pipe id and flow, of a parsed network."""
    flows = (net.initial_flows_m3h or {}).items()
    return ([tuple(map(type, vars(record).values())) for record in net.nodes + net.pipes]
            + [(type(pid), type(q)) for pid, q in flows])


def incident_pipes(net) -> dict:
    """Per node id, the pipes ending there, read from the network's
    compressed incidence rows."""
    _, _, start, incident = net._adjacency()
    pipes = [net.pipes[j] for j in incident]
    return {n.id: pipes[start[i]:start[i + 1]] for i, n in enumerate(net.nodes)}


@cache
def perfbench_module(name: str):
    """A stdlib-only module of the benchmark, `perfbench/<name>.py`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_networks():
    """The benchmark's network generators (`perfbench/networks.py`)."""
    return perfbench_module("networks")


@pytest.fixture(params=[(kind, seed) for kind in ("gas", "water") for seed in range(4)],
                ids=lambda p: f"{p[0]}-{p[1]}")
def branched(request):
    """A 300-node tree closed by 5 pipes, so that most pipes lie in no loop,
    and a balanced flow pattern on it (m³/h per pipe id)."""
    networks = perfbench_networks()
    rng = random.Random(request.param[1])
    raw = networks.tree_with_closures(300, 5, request.param[0], rng)
    return network_from_dict(raw), networks.balanced_flows(raw, rng)


@pytest.fixture(params=[(kind, n) for kind in ("gas", "water") for n in (2, 50, 300)],
                ids=lambda p: f"{p[0]}-{p[1]}")
def tree(request):
    """A tree of 2, 50 or 300 nodes, which has no loop, and its flows, which
    the demands alone fix (m³/h per pipe id)."""
    networks = perfbench_networks()
    kind, n_nodes = request.param
    rng = random.Random(n_nodes)
    raw = networks.tree_with_closures(n_nodes, 0, kind, rng)
    return network_from_dict(raw), networks.balanced_flows(raw, rng)
