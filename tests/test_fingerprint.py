"""`tools/fingerprint.py`: its hash, and how far `--against` finds a run
from a `--save`d set, on a few of its inputs."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

SUBSET = {"fixture-water", "grid-gas-0", "bare-tree-water-50"}


@pytest.fixture
def fingerprint(monkeypatch):
    """The tool as a module whose set holds only the runs on SUBSET."""
    monkeypatch.setattr(sys, "path", list(sys.path))    # the tool adds perfbench/
    path = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
    spec = importlib.util.spec_from_file_location("fingerprint_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    every = module.inputs
    monkeypatch.setattr(module, "inputs", lambda: (i for i in every() if i[0] in SUBSET))
    return module


def run(fingerprint, capsys, *argv) -> tuple[int, list[str]]:
    status = fingerprint.main(list(argv))
    return status, capsys.readouterr().out.splitlines()


def test_a_tree_against_itself_is_0_apart_on_every_run(fingerprint, capsys, tmp_path):
    saved = str(tmp_path / "runs.npz")
    status, plain = run(fingerprint, capsys)
    assert (status, len(plain)) == (0, 1)
    status, lines = run(fingerprint, capsys, "--save", saved)
    assert (status, lines) == (0, plain)
    status, lines = run(fingerprint, capsys, "--against", saved, "--bound", "0")
    *report, beyond, digest = lines
    assert (status, beyond, digest) == (0, "0 runs more than 0 apart", plain[0])
    names = [line.partition(" ")[2] for line in report]
    assert len(names) > 3 * len(SUBSET)
    assert {name.split(" ")[0] for name in names} == SUBSET
    assert all(line.startswith("0 ") and ";" not in line for line in report)


def test_a_change_is_reported_and_breaks_only_a_bound_it_exceeds(fingerprint, capsys,
                                                                 tmp_path):
    saved, changed = str(tmp_path / "runs.npz"), str(tmp_path / "changed.npz")
    run(fingerprint, capsys, "--save", saved)
    with np.load(saved) as data:
        arrays = dict(data)
    names = arrays["names"].tolist()
    moved, stopped = names.index("grid-gas-0 node-loop"), names.index("fixture-water size")
    flows = arrays["finals"][arrays["ends"][moved - 1]:arrays["ends"][moved]]
    flows[-1] += 1e-9 * np.abs(flows).max()
    arrays["terminations"][stopped] = "stalled"
    arrays["names"][0] = "gone"
    with open(changed, "wb") as file:
        np.savez(file, **arrays)

    status, lines = run(fingerprint, capsys, "--against", changed)
    assert status == 0
    by_name = {line.partition(" ")[2].partition(";")[0]: line for line in lines[:-1]}
    gap = float(by_name["grid-gas-0 node-loop"].partition(" ")[0])
    assert gap == pytest.approx(1e-9, rel=1e-2)
    assert by_name["fixture-water size"].startswith("0 fixture-water size; "
                                                    "termination stalled -> converged")
    assert by_name["gone"] == "inf gone; only in the saved set"
    assert by_name[names[0]] == f"inf {names[0]}; only in this tree"
    assert sum(not line.startswith("0 ") or ";" in line for line in lines[:-1]) == 4

    assert run(fingerprint, capsys, "--against", changed, "--bound", "1e-6")[1][-2] == \
        "3 runs more than 1e-06 apart"
    status, lines = run(fingerprint, capsys, "--against", changed, "--bound", "1e-12")
    assert (status, lines[-2]) == (1, "4 runs more than 1e-12 apart")


def test_a_stop_kind_keeps_the_words_and_hides_the_numbers(fingerprint):
    reason = ("diverged at pass 3: the worst loop residual rose on 3 passes in a row, "
              "to 1.4e+06 Pa2 from -2.5 Pa2 at the start")
    assert fingerprint.stop_kind(reason) == ("diverged at pass #: the worst loop residual rose "
                                             "on # passes in a row, to # Pa2 from # Pa2 at "
                                             "the start")
    assert fingerprint.stop_kind("") == ""


def test_a_changed_stop_kind_counts_like_a_termination(fingerprint, capsys, tmp_path):
    saved, changed = str(tmp_path / "runs.npz"), str(tmp_path / "changed.npz")
    run(fingerprint, capsys, "--save", saved)
    with np.load(saved) as data:
        arrays = dict(data)
    names, stops = arrays["names"].tolist(), arrays["stops"].tolist()
    diverged = names.index("grid-gas-0 hardy-cross")
    kind = stops[diverged]
    assert kind.startswith("diverged at pass #: ") and not any(c.isdigit() for c in
                                                                kind.replace("Pa2", ""))
    stops[diverged] = "diverged at pass #: other"
    with open(changed, "wb") as file:
        np.savez(file, **{**arrays, "stops": np.array(stops)})

    status, lines = run(fingerprint, capsys, "--against", changed, "--bound", "1")
    assert (status, lines[-2]) == (1, "1 runs more than 1 apart")
    moved = [line for line in lines[:-2] if not line.startswith("0 ") or ";" in line]
    assert moved == [f"0 grid-gas-0 hardy-cross; stop diverged at pass #: other -> {kind}"]


def test_a_changed_loop_closure_is_reported_and_counts_as_nothing(fingerprint, capsys,
                                                                  tmp_path):
    saved, changed = str(tmp_path / "runs.npz"), str(tmp_path / "changed.npz")
    run(fingerprint, capsys, "--save", saved)
    with np.load(saved) as data:
        arrays = dict(data)
    names, closures = arrays["names"].tolist(), arrays["closures"]
    solved = names.index("grid-gas-0 node-loop")
    # A converged solve's residuals are what rounding leaves of its loop sums.
    assert 0.0 < closures[solved] < 1e-9
    assert closures[names.index("bare-tree-water-50 node-loop")] == 0.0
    old = closures[solved] * 2.0
    closures[solved] = old
    with open(changed, "wb") as file:
        np.savez(file, **arrays)

    status, lines = run(fingerprint, capsys, "--against", changed, "--bound", "0")
    assert (status, lines[-2]) == (0, "0 runs more than 0 apart")
    moved = [line for line in lines[:-2] if not line.startswith("0 ") or ";" in line]
    assert moved == [f"0 grid-gas-0 node-loop; closure {old:.3g} -> {old / 2:.3g} (-0.5)"]
