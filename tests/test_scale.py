"""The north-star scale, in child processes under an address-space cap and
a time bound: a 100 x 100 grid (19,800 pipes, 9,801 derived loops)."""

import json

from conftest import run_capped

# The bounds of the 100 x 100 solves.  A solve there peaks near 90 MB
# and takes 1-3 s on a 2-vCPU x86_64 machine; they are not loosened to pass.
ADDRESS_SPACE = 500 * 2**20
TIME_BOUND_S = 30.0

GRID_100_ENDS = """
import json, random
import networks
from loopflow import fileio, solvers

net = fileio.network_from_dict(networks.grid(100, 100, "gas", random.Random(0)))
ends = {}
for method in ("hardy-cross-improved", "hardy-cross"):
    try:
        ends[method] = solvers.solve(net, solvers.SolverConfig(method=method)).termination
    except MemoryError as exc:
        ends[method] = f"MemoryError: {exc}"
print(json.dumps(ends))
"""


def test_a_100_by_100_gas_grid_solves_within_the_bounds():
    child = run_capped(GRID_100_ENDS, address_space=ADDRESS_SPACE, timeout=TIME_BOUND_S)
    assert child.returncode == 0, child.stderr
    ends = json.loads(child.stdout)
    assert ends["hardy-cross-improved"] == "converged"
    # Original Hardy Cross may end any way but out of memory.
    assert not ends["hardy-cross"].startswith("MemoryError")


MASKED_IMPORTS = """
import json, random, sys
import numpy
preloaded = "numpy.ma" in sys.modules
import networks
from loopflow import fileio, solvers

net = fileio.network_from_dict(networks.grid(11, 11, sys.argv[1], random.Random(0)))
print(json.dumps([solvers.solve(net, solvers.SolverConfig(method=method)).termination
                  for method in solvers.METHODS]
                 + ["numpy.ma" in sys.modules and not preloaded]))
"""


def test_grid_solves_import_no_masked_arrays():
    # `np.unique` and the set routines built on it import numpy.ma in numpy
    # 2, a module no solve needs.  numpy 1 imports numpy.ma with numpy
    # itself; there the check only sees that the solves still end as here.
    for kind in ("gas", "water"):
        child = run_capped(MASKED_IMPORTS, kind, address_space=ADDRESS_SPACE, timeout=TIME_BOUND_S)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == ["converged", "diverged", "converged", False]
