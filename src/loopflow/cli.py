"""Command-line interface: check, solve, and size subcommands.

Exit codes: 0 success, 1 validation/parse failure, 2 solver did not
converge (a diverged solve prints one error line and no flow table) or the
sizing problem is infeasible, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio, sizing, solvers
from .fluids import RESIDUAL_UNIT
from .kernels import flow_velocity
from .model import GAS, FlowState, Network, m3h_to_m3s
from .solvers import METHODS, NODE_LOOP, InfeasiblePressureError, SolverConfig

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_CONVERGENCE = 2
EXIT_IO = 3

# Advisory gas velocity band, m/s.
VELOCITY_BAND = (10.0, 15.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopflow",
        description="Steady-state flow and diameter solver for looped "
                    "gas/water pipe networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a network file")
    p_check.add_argument("path", help="network file (JSON)")

    p_solve = sub.add_parser("solve", help="solve the flow distribution")
    p_solve.add_argument("path", help="network file (JSON)")
    p_solve.add_argument("--method", choices=METHODS, default=NODE_LOOP)
    p_solve.add_argument("--trace", metavar="CSV",
                         help="write the per-iteration flow table")
    p_solve.add_argument("--pressures", action="store_true",
                         help="print node pressures propagated from the supply node")
    p_solve.add_argument("--source-pressure-pa", type=float, default=4e5,
                         help="absolute pressure at the supply node (default 4e5)")

    p_size = sub.add_parser("size", help="size diameters for fixed flows")
    p_size.add_argument("path", help="network file (JSON)")
    p_size.add_argument("--flows", metavar="CSV",
                        help="fixed flows (pipe,flow_m3h); defaults to the "
                             "file's initial_flows section")
    p_size.add_argument("--bounds", default="0.01,2.0", metavar="LO,HI",
                        help="global diameter bounds in m (default 0.01,2.0)")
    p_size.add_argument("--trace", metavar="CSV",
                        help="write the per-iteration diameter table")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_size(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except fileio.NetworkFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def cmd_check(args) -> int:
    net = fileio.parse_network(args.path)
    print(f"{len(net.pipes)} pipes, {len(net.nodes)} nodes, "
          f"{net.loop_count} loops")
    print("connected: yes")
    if net.explicit_loops:
        try:
            solvers.select_basis(net)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"explicit loops: {len(net.explicit_loops)} valid")
    else:
        print("note: loops will be derived")
    return EXIT_OK


def cmd_solve(args) -> int:
    net = fileio.parse_network(args.path)
    config = SolverConfig(method=args.method)
    try:
        report = solvers.solve(net, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if report.termination == "diverged":
        # The kept passes are finite but meaningless as a result.
        if args.trace:
            fileio.write_trace(report, net, args.trace)
            print(f"trace written: {args.trace}")
        print(f"error: {report.stop_reason}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    unit = RESIDUAL_UNIT[net.fluid.kind]
    print(f"method: {report.method}")
    print(f"fluid: {net.fluid.kind}")
    print(f"iterations: {report.iteration_count} ({report.termination})")
    print(f"max loop residual: {max(report.loop_residuals[-1]):.6g} {unit}")
    if report.damped_iterations:
        print(f"damped iterations: {report.damped_iterations}")

    reversed_pipes = report.reversed_pipes()
    final = report.final_flows.as_m3h()
    print(f"{'pipe':>4}  {'flow_m3h':>12}  {'velocity_m_s':>12}  direction")
    for p in net.pipes:
        direction = "reversed" if p.id in reversed_pipes else "forward"
        print(f"{p.id:>4}  {final[p.id]:>12.2f}  "
              f"{report.velocities[p.id]:>12.2f}  {direction}")

    if args.trace:
        fileio.write_trace(report, net, args.trace)
        print(f"trace written: {args.trace}")

    if args.pressures:
        source = min(net.nodes, key=lambda n: (n.demand_m3h, str(n.id))).id
        try:
            pressures = solvers.propagate_pressures(
                net, report.final_flows, source, args.source_pressure_pa)
        except InfeasiblePressureError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        print(f"node pressures (source {source} at "
              f"{args.source_pressure_pa:.0f} Pa abs):")
        for node in net.nodes:
            print(f"  {node.id}: {pressures[node.id]:.1f} Pa")

    return EXIT_OK if report.termination == "converged" else EXIT_NO_CONVERGENCE


def cmd_size(args) -> int:
    net = fileio.parse_network(args.path)
    fixed = _fixed_flows(net, args)
    try:
        lo, hi = (float(v) for v in args.bounds.split(","))
    except ValueError:
        print(f"error: --bounds expects 'LO,HI', got {args.bounds!r}",
              file=sys.stderr)
        return EXIT_VALIDATION

    basis = solvers.select_basis(net)
    config = sizing.SizingConfig(fixed_flows=fixed, diameter_bounds=(lo, hi))
    try:
        report = sizing.optimize_diameters(net, basis, config)
    except (sizing.SizingInfeasibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    unit = RESIDUAL_UNIT[net.fluid.kind]
    print(f"iterations: {report.iteration_count} ({report.termination})")
    print(f"max loop residual: {report.max_residual:.6g} {unit}")
    print(f"{'pipe':>4}  {'diameter_m':>10}  {'was_m':>10}  notes")
    for p in net.pipes:
        notes = []
        if p.id in report.tree_pipes:
            notes.append("tree (not sized)")
        if p.id in report.bounded_pipes:
            notes.append("at bound")
        notes.extend(_velocity_note(net, fixed, p.id, report.diameters[p.id]))
        print(f"{p.id:>4}  {report.diameters[p.id]:>10.4f}  "
              f"{p.diameter:>10.4f}  {', '.join(notes)}")

    if args.trace:
        fileio.write_sizing_trace(report, net, args.trace)
        print(f"trace written: {args.trace}")

    if report.termination == "converged":
        return EXIT_OK
    if report.termination == sizing.INFEASIBLE_BOUNDS:
        print("error: infeasible within bounds", file=sys.stderr)
    else:
        print("error: sizing did not converge", file=sys.stderr)
    return EXIT_NO_CONVERGENCE


def _fixed_flows(net: Network, args) -> FlowState:
    if args.flows:
        flows_m3h = fileio.read_flows_csv(args.flows)
    elif net.initial_flows_m3h is not None:
        flows_m3h = net.initial_flows_m3h
    else:
        raise fileio.NetworkFileError(
            "no fixed flows: pass --flows or add an initial_flows section")
    return FlowState({pid: m3h_to_m3s(q) for pid, q in flows_m3h.items()})


def _velocity_note(net: Network, fixed: FlowState, pipe_id: int,
                   diameter: float) -> list[str]:
    if net.fluid.kind != GAS:
        return []
    v = flow_velocity(net.fluid.pressure_ratio, abs(fixed.flows[pipe_id]),
                      diameter)
    lo, hi = VELOCITY_BAND
    if v < lo:
        return [f"velocity {v:.2f} m/s below {lo:.0f}-{hi:.0f} band"]
    if v > hi:
        return [f"velocity {v:.2f} m/s above {lo:.0f}-{hi:.0f} band"]
    return [f"velocity {v:.2f} m/s within {lo:.0f}-{hi:.0f} band"]


if __name__ == "__main__":
    sys.exit(main())
