"""Layer tracing by wrapping the library's public functions from outside.

`Tracer` replaces each traced function, wherever a loopflow module holds a
reference to it, with a wrapper that counts calls and accumulates inclusive
and self time.  Self time is a call's duration minus the time spent in
traced calls it made, so the self times of one layer add up to the time
spent in that layer's own code.  Statistics are kept per scope (the kind of
operation the benchmark is running) and handed out and reset by `take`.
A traced function that no longer exists is an error, not a silent zero.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# Traced public functions per layer.  The per-layer metrics are sums over
# these, so each must exist: one that is renamed or moved has to be renamed
# here too, or its metrics would read 0 and pass for a speed-up.
FUNCTIONS = {
    "fileio": ("parse_network", "read_flows_csv", "format_trace"),
    "model": ("validate", "feasible_initial_flows", "spanning_tree",
              "node_imbalances"),
    "topology": ("build_node_matrix", "derive_loop_basis",
                 "adopt_explicit_loops", "exact_rank"),
    "solvers": ("solve", "select_basis", "evaluate_loops",
                "assemble_node_loop_system", "final_velocities",
                "propagate_pressures"),
    "numerics": ("solve_linear", "condition_estimate"),
    "sizing": ("optimize_diameters",),
    "kernels": ("renouard_drop", "renouard_drop_dflow", "renouard_drop_ddiam",
                "reynolds_number", "colebrook_friction_factor",
                "darcy_weisbach_drop", "darcy_weisbach_drop_dflow",
                "darcy_weisbach_drop_ddiam", "flow_velocity"),
}
FLUID_CLASSES = ("GasModel", "WaterModel")
FLUID_METHODS = ("evaluate", "drop", "drop_at_diameter", "ddrop_ddiam",
                 "velocity")


class MissingFunction(LookupError):
    """A function the tracer is told to wrap does not exist."""


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self):
        self.scope = "setup"
        self.stats: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.linear_n_max = 0
        self.linear_flops = 0.0
        self._children: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def take(self) -> dict:
        """Statistics since the last call, then reset them."""
        out = {"stats": dict(self.stats), "linear_n_max": self.linear_n_max,
               "linear_flops": self.linear_flops}
        self.stats = defaultdict(Stat)
        self.linear_n_max = 0
        self.linear_flops = 0.0
        return out

    def __enter__(self):
        import loopflow

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "loopflow" or name.startswith("loopflow.")]
        missing = []
        for layer, names in FUNCTIONS.items():
            module = getattr(loopflow, layer, None)
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    missing.append(f"loopflow.{layer}.{name}")
                else:
                    self._replace_everywhere(modules, original,
                                             self._wrap(f"{layer}.{name}", original))
        fluids = getattr(loopflow, "fluids", None)
        for cls_name in FLUID_CLASSES:
            cls = getattr(fluids, cls_name, None)
            for name in FLUID_METHODS:
                original = vars(cls).get(name) if cls is not None else None
                if original is None:
                    missing.append(f"loopflow.fluids.{cls_name}.{name}")
                else:
                    self._patch(cls, name, self._wrap(f"fluids.{name}", original))
        if missing:
            self.__exit__(None, None, None)
            raise MissingFunction("cannot trace missing functions: "
                                  + ", ".join(missing))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, func):
        children = self._children
        is_linear_solve = name == "numerics.solve_linear"

        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                stat = self.stats[(self.scope, name)]
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - inner
            if is_linear_solve:
                n = len(result)
                self.linear_n_max = max(self.linear_n_max, n)
                self.linear_flops += 2.0 / 3.0 * n ** 3
            return result

        traced.__wrapped__ = func
        return traced
