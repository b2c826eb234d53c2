import importlib.util
import json
from functools import cache
from importlib import resources
from pathlib import Path

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


@cache
def perfbench_networks():
    """The benchmark's stdlib-only network generators (`perfbench/networks.py`)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "networks.py"
    spec = importlib.util.spec_from_file_location("perfbench_networks", path)
    networks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(networks)
    return networks
