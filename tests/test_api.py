"""The public surface: every exported name exists, and so does every
function the benchmark's tracer wraps."""

import loopflow

from conftest import perfbench_module


def test_every_exported_name_resolves():
    missing = [name for name in loopflow.__all__ if not hasattr(loopflow, name)]
    assert missing == []


def test_benchmark_tracer_finds_every_function_it_wraps():
    # The tracer raises MissingFunction for a traced name that is gone.
    with perfbench_module("tracer").Tracer():
        pass
