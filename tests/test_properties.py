"""Properties of the Newton methods on random street grids and ringed mains
drawn from the benchmark's generators (`perfbench/networks.py`)."""

import random

import pytest

from loopflow.fileio import network_from_dict
from loopflow.solvers import HARDY_CROSS_IMPROVED, NODE_LOOP, SolverConfig, solve

from conftest import node_balance_residuals_m3h, perfbench_networks

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def meshed_networks(draw):
    networks = perfbench_networks()
    kind = draw(st.sampled_from(["gas", "water"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        raw = networks.grid(draw(st.integers(2, 6)), draw(st.integers(2, 6)), kind, rng)
    else:
        raw = networks.ring_with_chords(draw(st.integers(6, 40)), draw(st.integers(1, 8)),
                                        kind, rng)
    return network_from_dict(raw)


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(meshed_networks())
def test_node_loop_and_improved_hardy_cross_take_the_same_passes(net):
    # Both are Newton's method on the loop equations from the same start,
    # so they agree pass by pass, and every pass balances every node.
    node_loop = solve(net, SolverConfig(method=NODE_LOOP))
    improved = solve(net, SolverConfig(method=HARDY_CROSS_IMPROVED))
    assert node_loop.termination == improved.termination == "converged"
    assert node_loop.iteration_count == improved.iteration_count
    for a, b in zip(node_loop.iterations, improved.iterations):
        assert max(abs(a[pid] - b[pid]) for pid in net.pipe_ids) * 3600.0 <= 1e-6
        for state in (a, b):
            worst_m3h = max(map(abs, node_balance_residuals_m3h(net, state.flows).values()))
            assert worst_m3h / 3600.0 <= 1e-9
