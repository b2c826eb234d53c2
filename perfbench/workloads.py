"""The benchmark's workloads: which inputs each one writes and which
operations it runs on them.

* `fixtures` -- the two bundled 15-pipe networks (gas and water), every
  solve method plus sizing at the file's initial flows; solves also
  propagate pressures and format the iteration trace, as
  `loopflow solve --pressures --trace` does.  Per-call overhead, the scalar
  kernels, the exact rank test of the explicit loops and reporting dominate.
* `meshed` -- per fluid two 11 x 11 grids (220 pipes) and two rings of 200
  junctions with 70 chords (270 pipes), derived fundamental loops, all
  three solve methods.  The dense linear solves, node-loop assembly and
  the improved method's loop Jacobian dominate.
* `branched` -- per fluid four deep trees of 1200 junctions closed by 10
  extra pipes: improved and original Hardy Cross, and sizing at a fixed
  balanced flow pattern.  How long the original method and sizing run
  before they fail differs from tree to tree, so a batch draws four trees
  per fluid to keep its work close to the same from seed to seed.  Topology work that grows quadratically with the
  node count and per-pipe evaluation dominate; sizing evaluates along the
  diameter instead of the flow.  Node-loop is left out: it would solve a
  dense system of 1200 unknowns on every pass.

The seed changes every random choice of the generated networks and the
order of the fixture operations.  Sizes and operation mixes are fixed, so
runs with different seeds measure comparable work; pass counts, and which
operations fail, still vary with the networks drawn.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import networks

NODE_LOOP = "node-loop"
HARDY_CROSS = "hardy-cross"
HARDY_CROSS_IMPROVED = "hardy-cross-improved"
METHODS = (NODE_LOOP, HARDY_CROSS, HARDY_CROSS_IMPROVED)
SIZE = "size"

NAMES = ("fixtures", "meshed", "branched")

# Timed batches per run, after an untimed warm-up.  Fixed, not
# fitted to a deadline, so that every run and every commit times the same
# operations and `op_ms_tail` sits at the same percentile.  Sized so that a
# run, with its setup readings, takes 25-35 s at the commit that added
# the benchmark on a 2-vCPU x86_64 VM.
TIMED_BATCHES = {"fixtures": 600, "meshed": 4, "branched": 2}


@dataclass(frozen=True)
class Item:
    """One input network and how the workload's operations use it."""
    name: str
    path: Path
    flows_path: Path | None = None    # fixed flows for sizing, CSV
    report: bool = False              # solves also propagate pressures and format the trace

    @property
    def input_files(self) -> list[Path]:
        return [self.path] + ([self.flows_path] if self.flows_path else [])


def build(workload: str, seed: int, workdir: Path,
          data_dir: Path) -> list[tuple[Item, str]]:
    """Write the workload's input files for `seed` into `workdir`.

    Returns the batch: the (input, operation) pairs in the order a batch
    runs them.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fixtures":
        batch = []
        for kind in ("gas", "water"):
            path = workdir / f"fixture_{kind}.json"
            shutil.copyfile(data_dir / f"fixture_{kind}.json", path)
            item = Item(f"fixture-{kind}", path, report=True)
            batch += [(item, op) for op in METHODS + (SIZE,)]
        rng.shuffle(batch)
        return batch
    if workload == "meshed":
        batch = []
        for kind in ("gas", "water"):
            for k in (1, 2):
                for name, net in (
                        (f"grid{k}-{kind}", networks.grid(11, 11, kind, rng)),
                        (f"ring{k}-{kind}",
                         networks.ring_with_chords(200, 70, kind, rng))):
                    item = Item(name, _write(workdir, name, net))
                    batch += [(item, op) for op in METHODS]
        return batch
    if workload == "branched":
        batch = []
        for k in (1, 2, 3, 4):
            for kind in ("gas", "water"):
                name = f"tree{k}-{kind}"
                net = networks.tree_with_closures(1200, 10, kind, rng)
                flows = networks.balanced_flows(net, rng)
                flows_path = workdir / f"{name}.flows.csv"
                with open(flows_path, "w", newline="", encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["pipe", "flow_m3h"])
                    writer.writerows((pid, repr(q))
                                     for pid, q in sorted(flows.items()))
                item = Item(name, _write(workdir, name, net), flows_path=flows_path)
                batch += [(item, op)
                          for op in (HARDY_CROSS_IMPROVED, HARDY_CROSS, SIZE)]
        return batch
    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")


def _write(workdir: Path, name: str, net: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(net), encoding="utf-8")
    return path
