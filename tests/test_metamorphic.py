"""Metamorphic relations of the two Newton methods: a change to a network
that leaves its physics as it was leaves the tightly converged flows as
they were, on the bundled fixtures and on the benchmark's generated grids
and ringed mains (`perfbench/networks.py`)."""

import dataclasses
import random

import pytest

from loopflow.fileio import network_from_dict
from loopflow.model import Network, NodeSpec
from loopflow.solvers import HARDY_CROSS_IMPROVED, NODE_LOOP, SolverConfig, solve

from conftest import perfbench_networks

NEWTON_METHODS = (NODE_LOOP, HARDY_CROSS_IMPROVED)
# Flows of two solves agree to this share of the largest flow magnitude.
FLOW_AGREEMENT = 1e-9


def tight(method: str) -> SolverConfig:
    """Passes until successive flows agree to 1e-10 m³/h."""
    return SolverConfig(method=method, flow_tolerance_m3h=1e-10, max_iterations=200)


def generated(shape: str, kind: str, seed: int) -> Network:
    networks, rng = perfbench_networks(), random.Random(seed)
    raw = (networks.grid(6, 6, kind, rng) if shape == "grid"
           else networks.ring_with_chords(60, 15, kind, rng))
    return network_from_dict(raw)


def split_in_series(net: Network, pipe_id: int) -> tuple[Network, int]:
    """`net` with pipe `pipe_id` cut in two halves in series through a new
    zero-demand node, and the id of the second half.  The first half keeps
    the pipe's id and from-node; explicit loops go through the halves in
    the order they traverse the pipe, and the second half starts with the
    pipe's initial flow."""
    pipe = net.pipe(pipe_id)
    second = max(net.pipe_ids) + 1
    middle = "split" if isinstance(pipe.from_node, str) else max(net.node_ids) + 1
    half = pipe.length / 2.0
    pipes = [dataclasses.replace(p, to_node=middle, length=half) if p.id == pipe_id else p
             for p in net.pipes]
    pipes.append(dataclasses.replace(pipe, id=second, from_node=middle, length=half))

    def halves(member: int) -> tuple[int, ...]:
        if abs(member) != pipe_id:
            return (member,)
        return (member, second) if member > 0 else (-second, member)

    loops = net.explicit_loops and [tuple(m for member in loop for m in halves(member))
                                    for loop in net.explicit_loops]
    initial = net.initial_flows_m3h and {**net.initial_flows_m3h,
                                         second: net.initial_flows_m3h[pipe_id]}
    # `replace` keeps the reference node, which the new node would
    # otherwise become on a network with integer node ids.
    return dataclasses.replace(net, pipes=pipes, nodes=[*net.nodes, NodeSpec(middle, 0.0)],
                               explicit_loops=loops, initial_flows_m3h=initial), second


def assert_flows_agree(expected: dict, actual: dict) -> None:
    largest = max(map(abs, expected.values()))
    worst = max(abs(q - actual[pid]) for pid, q in expected.items())
    assert worst <= FLOW_AGREEMENT * largest, (worst, largest)


@pytest.fixture(params=["fixture-gas", "fixture-water", "grid-gas", "grid-water"])
def splittable(request, gas_network, water_network):
    """A network and the pipe to split: pipe 2 of a fixture, which its loops
    traverse once along and once against its orientation, or a grid pipe."""
    if request.param.startswith("fixture"):
        return (gas_network if request.param == "fixture-gas" else water_network), 2
    net = generated("grid", request.param.removeprefix("grid-"), 0)
    return net, net.pipe_ids[0]


@pytest.mark.parametrize("method", NEWTON_METHODS)
def test_splitting_a_pipe_in_series_leaves_the_flows_unchanged(splittable, method):
    net, pipe_id = splittable
    split, second = split_in_series(net, pipe_id)
    whole, halves = solve(net, tight(method)), solve(split, tight(method))
    assert whole.termination == halves.termination == "converged"
    flows = halves.final_flows.flows
    assert flows[pipe_id] != 0.0
    assert_flows_agree(whole.final_flows.flows, flows)
    assert_flows_agree(whole.final_flows.flows, {**flows, pipe_id: flows[second]})


@pytest.mark.parametrize("shape", ["grid", "ring"])
@pytest.mark.parametrize("kind", ["gas", "water"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("method", NEWTON_METHODS)
def test_moving_the_reference_node_leaves_the_flows_unchanged(shape, kind, seed, method):
    # The tree, and with it the start and the derived loops, grows from
    # another node, and another node's continuity row is the omitted one.
    net = generated(shape, kind, seed)
    moved = dataclasses.replace(net, reference_node=min(net.node_ids))
    assert moved.reference_node != net.reference_node
    first, second = solve(net, tight(method)), solve(moved, tight(method))
    assert first.termination == second.termination == "converged"
    assert_flows_agree(first.final_flows.flows, second.final_flows.flows)
