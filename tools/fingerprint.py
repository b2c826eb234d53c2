"""One SHA-256 over the results of a fixed set of solves, sizings and traces.

Two source trees that print the same hash gave bit-identical results on
every run of the set: each iterate, loop residual, termination, stop
reason and velocity of all three methods and, unless the run diverged,
the node pressures propagated from the supply node that `loopflow solve
--pressures` picks, at 4e5 Pa; each sized diameter history, residual
history and stop reason, also of gas fixture sizings that end
"max-iterations" and "infeasible-bounds"; the `format_trace` bytes from a
seed-0 and a seed-3 start; and the type and message of any error a run
raised, such as those for starts and fixed flows on the fixtures that
are unbalanced, incomplete, not finite or idle a loop pipe.
The inputs are the two bundled fixtures; for seeds 0-2 and both fluids,
the 11 x 11 grids, the 200-node rings with 70 chords and the 1200-node
trees closed by 10 pipes of `perfbench/networks.py`; and for both fluids
its trees of 50 and 300 nodes that no pipe closes, which have no loop;
and the gas fixture with pipe 1 at a diameter of 1e-300 m, whose start is
not finite, and of 1e300 m, solved by each method.

    PYTHONPATH=src python tools/fingerprint.py [-v]

`-v` also prints a digest per run, to find the run where two source trees
part.  The hash depends on the floating point of numpy and of the machine,
so compare it only between source trees run on the same installation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import networks  # noqa: E402

from loopflow import fileio, sizing, solvers  # noqa: E402
from loopflow.model import FlowState, feasible_initial_flows, m3h_to_m3s  # noqa: E402


def inputs():
    """(name, network, fixed flows in m³/h or None) of every input."""
    for kind in ("gas", "water"):
        data = resources.files("loopflow").joinpath(f"data/fixture_{kind}.json").read_text()
        net = fileio.network_from_dict(json.loads(data))
        yield f"fixture-{kind}", net, dict(net.initial_flows_m3h)
    for seed in range(3):
        for kind in ("gas", "water"):
            rng = random.Random(f"fingerprint:{kind}:{seed}")
            yield f"grid-{kind}-{seed}", fileio.network_from_dict(
                networks.grid(11, 11, kind, rng)), None
            yield f"ring-{kind}-{seed}", fileio.network_from_dict(
                networks.ring_with_chords(200, 70, kind, rng)), None
            raw = networks.tree_with_closures(1200, 10, kind, rng)
            yield f"tree-{kind}-{seed}", fileio.network_from_dict(raw), \
                networks.balanced_flows(raw, rng)
    for kind in ("gas", "water"):
        for n_nodes in (50, 300):
            rng = random.Random(f"fingerprint:{kind}:bare-tree:{n_nodes}")
            raw = networks.tree_with_closures(n_nodes, 0, kind, rng)
            yield f"bare-tree-{kind}-{n_nodes}", fileio.network_from_dict(raw), \
                networks.balanced_flows(raw, rng)


def outcome(run) -> str:
    """`run()`'s result as text, or its error's type and message."""
    try:
        return repr(run())
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def solve_text(net, report) -> tuple:
    return ([state.flows for state in report.iterations], report.loop_residuals,
            report.termination, report.stop_reason, report.velocities,
            pressures_text(net, report))


def pressures_text(net, report) -> str:
    """The pressures `loopflow solve --pressures` prints for the run, as
    text, or the error's; nothing for a diverged run, which prints none."""
    if report.termination == "diverged":
        return ""
    source = min(net.nodes, key=lambda n: (n.demand_m3h, str(n.id))).id
    return outcome(lambda: solvers.propagate_pressures(net, report.final_flows, source, 4e5))


def runs():
    """(name, text) of every run of the set."""
    for name, net, fixed in inputs():
        for method in solvers.METHODS:
            config = solvers.SolverConfig(method=method)
            yield f"{name} {method}", outcome(lambda: solve_text(net, solvers.solve(net, config)))
        if not name.startswith("ring"):
            for seed in (0, 3):
                yield f"{name} trace seed {seed}", outcome(lambda: [
                    fileio.format_trace(solvers.solve(
                        net, solvers.SolverConfig(method=method),
                        feasible_initial_flows(net, seed)), net)
                    for method in solvers.METHODS])
        if fixed is not None:
            yield f"{name} size", outcome(lambda: size_text(
                net, {pid: m3h_to_m3s(q) for pid, q in fixed.items()}))
        if name == "fixture-gas":
            yield from unfinished_sizings(name, net)
        if name.startswith("fixture"):
            yield from rejected_flows(name, net)
        if name == "fixture-gas":
            yield from extreme_diameters(name, net)


def size_text(net, flows: dict, **config) -> tuple:
    report = sizing.optimize_diameters(
        net, solvers.select_basis(net), sizing.SizingConfig(FlowState(flows), **config))
    return (list(report.diameter_history), report.loop_residual_history,
            report.termination, report.stop_reason, sorted(report.bounded_pipes))


def unfinished_sizings(name: str, net):
    """Sizings from node-loop's flows that end "max-iterations" (diameters
    off by -8% and +15%, one pass) and "infeasible-bounds" (bounds 11-20 mm)."""
    flows = solvers.solve(net, solvers.SolverConfig()).final_flows.flows
    off = [dataclasses.replace(p, diameter=p.diameter * (1.15 if p.id % 2 else 0.92))
           for p in net.pipes]
    perturbed = dataclasses.replace(net, pipes=off)
    yield f"{name} size one pass", outcome(lambda: size_text(perturbed, flows,
                                                             max_iterations=1))
    yield f"{name} size bounds 0.011-0.02", outcome(lambda: size_text(
        net, flows, diameter_bounds=(0.011, 0.02)))


def rejected_flows(name: str, net):
    """Solves and sizings from given flows that are unbalanced, incomplete,
    not finite or idle a loop pipe."""
    flows = feasible_initial_flows(net).flows
    first, *rest = flows
    # A circulation around loop 1 that stops its first pipe.
    members = dict(solvers.select_basis(net).loops[0])
    pipe, sign = next(iter(members.items()))
    circulation = -sign * flows[pipe]
    cases = {"unbalanced": {**flows, first: flows[first] + 1.0},
             "incomplete": {pid: flows[pid] for pid in rest},
             "non-finite": {**flows, first: float("nan")},
             "idle loop pipe": {pid: q + circulation * members.get(pid, 0)
                                for pid, q in flows.items()}}
    for case, given in cases.items():
        for method in solvers.METHODS:
            yield f"{name} {case} start {method}", outcome(lambda: solve_text(
                net, solvers.solve(net, solvers.SolverConfig(method=method), FlowState(given))))
        yield f"{name} {case} fixed flows", outcome(lambda: size_text(net, given))


def extreme_diameters(name: str, net):
    """Solves with pipe 1 at a diameter whose drop overflows (1e-300 m) and
    at one whose drop vanishes (1e300 m)."""
    for diameter in (1e-300, 1e300):
        pipes = [dataclasses.replace(p, diameter=diameter) if p.id == 1 else p
                 for p in net.pipes]
        extreme = dataclasses.replace(net, pipes=pipes)
        for method in solvers.METHODS:
            yield f"{name} pipe 1 at {diameter:g} m {method}", outcome(lambda: solve_text(
                extreme, solvers.solve(extreme, solvers.SolverConfig(method=method))))


def main(argv: list[str]) -> int:
    total = hashlib.sha256()
    for name, text in runs():
        total.update(f"{name}\n{text}\n".encode())
        if "-v" in argv:
            print(hashlib.sha256(text.encode()).hexdigest()[:16], name)
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
