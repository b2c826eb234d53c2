"""Metamorphic relations: a change to a network that leaves its physics as
it was leaves the tightly converged flows of the two Newton methods as they
were, and original Hardy Cross's run as it was, on the bundled fixtures and
on the benchmark's generated grids and ringed mains (`perfbench/networks.py`)."""

import dataclasses
import random

import pytest

from loopflow.fileio import network_from_dict
from loopflow.model import Network, NodeSpec
from loopflow.model import SolveReport
from loopflow.solvers import HARDY_CROSS, HARDY_CROSS_IMPROVED, NODE_LOOP, SolverConfig, solve

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


def reverse_pipe(net: Network, pipe_id: int) -> Network:
    """`net` with pipe `pipe_id` oriented the other way: its ends swapped,
    and its initial flow and its signed id in the explicit loops negated."""
    pipes = [dataclasses.replace(p, from_node=p.to_node, to_node=p.from_node)
             if p.id == pipe_id else p for p in net.pipes]
    loops = net.explicit_loops and [tuple(-m if abs(m) == pipe_id else m for m in loop)
                                    for loop in net.explicit_loops]
    initial = net.initial_flows_m3h and {pid: -q if pid == pipe_id else q
                                         for pid, q in net.initial_flows_m3h.items()}
    return dataclasses.replace(net, pipes=pipes, explicit_loops=loops, initial_flows_m3h=initial)


def assert_flows_agree(expected: dict, actual: dict) -> None:
    largest = max(map(abs, expected.values()))
    worst = max(abs(q - actual[pid]) for pid, q in expected.items())
    assert worst <= FLOW_AGREEMENT * largest, (worst, largest)


def assert_same_run(first: SolveReport, second: SolveReport, reversed_pipe=None) -> None:
    """Both runs end the same way after as many passes, and where they
    converge their flows are identical, but for the sign of `reversed_pipe`."""
    assert (second.termination, second.iteration_count) == \
        (first.termination, first.iteration_count)
    if first.termination == "converged":
        flows = dict(second.final_flows.flows)
        if reversed_pipe is not None:
            flows[reversed_pipe] = -flows[reversed_pipe]
        assert flows == first.final_flows.flows


@pytest.fixture(params=["fixture-gas", "fixture-water", "grid-gas", "grid-water"])
def network_and_pipe(request, gas_network, water_network):
    """A network and the pipe to split or reverse: pipe 2 of a fixture, which
    its loops traverse once along and once against its orientation, or a
    grid pipe."""
    if request.param.startswith("fixture"):
        return (gas_network if request.param == "fixture-gas" else water_network), 2
    net = generated("grid", request.param.removeprefix("grid-"), 0)
    return net, net.pipe_ids[0]


@pytest.mark.parametrize("method", NEWTON_METHODS)
def test_splitting_a_pipe_in_series_leaves_the_flows_unchanged(network_and_pipe, method):
    net, pipe_id = network_and_pipe
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


@pytest.mark.parametrize("method", NEWTON_METHODS)
def test_reversing_a_pipe_negates_its_flow_alone(network_and_pipe, method):
    net, pipe_id = network_and_pipe
    forward, backward = solve(net, tight(method)), solve(reverse_pipe(net, pipe_id), tight(method))
    assert forward.termination == backward.termination == "converged"
    flows = backward.final_flows.flows
    assert flows[pipe_id] != 0.0
    assert_flows_agree(forward.final_flows.flows, {**flows, pipe_id: -flows[pipe_id]})


def test_original_hardy_cross_repeats_its_run_on_a_reversed_pipe(network_and_pipe):
    # Negating a pipe's column of B and its flow leaves every loop sum and
    # correction as it was, so the fixtures converge and the grids diverge
    # exactly as before.
    net, pipe_id = network_and_pipe
    assert_same_run(solve(net, tight(HARDY_CROSS)),
                    solve(reverse_pipe(net, pipe_id), tight(HARDY_CROSS)), pipe_id)


@pytest.mark.parametrize("case", ["fixture-gas", "fixture-water", "grid-gas", "grid-water",
                                  "ring-gas", "ring-water"])
def test_original_hardy_cross_repeats_its_run_from_a_moved_reference_node(case, request):
    # A fixture's explicit loops and file start do not depend on the
    # reference node; a generated network's tree is the same set of pipes
    # from any root, since it takes the lowest pipe id on each step.
    shape, kind = case.split("-")
    net = (request.getfixturevalue(f"{kind}_network") if shape == "fixture"
           else generated(shape, kind, 0))
    moved = dataclasses.replace(net, reference_node=min(net.node_ids))
    assert moved.reference_node != net.reference_node
    first = solve(net, tight(HARDY_CROSS))
    assert (first.termination == "converged") == (shape == "fixture")
    assert_same_run(first, solve(moved, tight(HARDY_CROSS)))
