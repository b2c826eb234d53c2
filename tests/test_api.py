"""The public surface: every exported name exists, and so does every
function the benchmark's tracer wraps; README's Library example runs."""

import re
from importlib import resources
from pathlib import Path

import loopflow

from conftest import perfbench_module


def test_every_exported_name_resolves():
    missing = [name for name in loopflow.__all__ if not hasattr(loopflow, name)]
    assert missing == []


def test_exported_names_are_the_public_surface():
    # Plumbing (fluid models, topology builders, linear algebra) stays in its
    # own module: `loopflow.fluids`, `loopflow.topology`, `loopflow.numerics`.
    assert sorted(loopflow.__all__) == sorted([
        "FlowState", "FluidSpec", "HARDY_CROSS", "HARDY_CROSS_IMPROVED",
        "InfeasiblePressureError", "LoopBasis", "METHODS", "Network", "NetworkFileError",
        "NodeSpec", "NODE_LOOP", "Pipe", "SizingConfig", "SizingReport", "SolveReport",
        "SolverConfig", "evaluate_loops", "feasible_initial_flows", "node_imbalances",
        "optimize_diameters", "parse_network", "propagate_pressures", "solve",
        "solve_hardy_cross_improved", "solve_hardy_cross_original", "solve_node_loop",
        "validate", "write_network", "write_trace"])


def test_benchmark_tracer_finds_every_function_it_wraps():
    # The tracer raises MissingFunction for a traced name that is gone.
    with perfbench_module("tracer").Tracer():
        pass


def test_readme_library_example_runs_on_the_gas_fixture(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme,
                        re.MULTILINE | re.DOTALL).group(1)
    fixture = resources.files("loopflow").joinpath("data/fixture_gas.json").read_text()
    (tmp_path / "network.json").write_text(fixture)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(example, scope)
    report = scope["report"]
    assert report.termination == "converged"
    assert capsys.readouterr().out == \
        f"{report.iteration_count} {report.final_flows.as_m3h()}\n"
    assert set(scope["pressures"]) == set(scope["net"].node_ids)
    assert scope["sizing"].termination == "converged"
