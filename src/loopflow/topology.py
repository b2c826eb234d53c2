"""Incidence structure of a network: node matrix and independent loop basis.

The node matrix encodes the flow-continuity equations (one row per node
except the reference node).  The loop basis encodes the energy-balance
equations: pipes - nodes + 1 independent cycles with ±1 signs, held as
index arrays (the co-tree view of Elhay et al. 2014).  The spanning tree
the loops rest on is the network's own, and so are its fundamental cycles,
which a network walks once, on first ask, and its explicit loops, which
it checks once.  B is only ever built on the core, the pipes in a loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Network, PipeArrays, PipeId, _frozen


@dataclass(frozen=True, eq=False)
class LoopBasis:
    """The independent loops of one network, by pipe index.

    Loop k's members are `columns[starts[k]:starts[k + 1]]`, indices into
    the network's pipes (whose ids are `pipe_ids`), in traversal order,
    with their `signs`: +1 where the loop runs along the pipe's reference
    orientation, -1 against it.  `ends` are the pipe ends of the network
    they were built on (`Network._ends`).  `loops` gives the same
    memberships as (pipe id, sign) pairs, and two bases are equal when
    their `loops` are.  The `core` is the pipes that lie in a loop; the
    others form a forest whose flows the demands fix and whose drops enter
    no loop equation (Simpson, Elhay and Alexander 2014), so the solvers
    and the sizing evaluate the core alone, on `core_matrix`.
    """
    pipe_ids: tuple[PipeId, ...]
    columns: np.ndarray
    signs: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    def __post_init__(self):
        for name in ("columns", "signs", "starts"):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name), dtype=np.int32)))

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, LoopBasis) and self.loops == other.loops

    @cached_property
    def loops(self) -> tuple[tuple[tuple[PipeId, int], ...], ...]:
        """Each loop as a sequence of (pipe id, sign) pairs in traversal order."""
        ids, starts = self.pipe_ids, self.starts.tolist()
        members = [(ids[j], sign) for j, sign in zip(self.columns.tolist(), self.signs.tolist())]
        return tuple(tuple(members[a:b]) for a, b in zip(starts, starts[1:]))

    @cached_property
    def core(self) -> np.ndarray:
        """The indices of the pipes that lie in a loop, ascending."""
        member = np.zeros(len(self.pipe_ids), dtype=bool)
        member[self.columns] = True
        return _frozen(np.flatnonzero(member))

    @cached_property
    def spans_all(self) -> bool:
        """Whether every pipe lies in a loop, so the core needs no gathering."""
        return len(self.core) == len(self.pipe_ids)

    @cached_property
    def core_ids(self) -> tuple[PipeId, ...]:
        return tuple(self.pipe_ids[j] for j in self.core.tolist())

    def core_pipes(self, pipes: PipeArrays) -> PipeArrays:
        """The geometry of the core pipes (`pipes` itself if that is all)."""
        core = self.core
        return pipes if self.spans_all else PipeArrays(
            self.core_ids, pipes.length[core], pipes.diameter[core], pipes.roughness[core])

    @cached_property
    def core_matrix(self) -> np.ndarray:
        """B on the core: the read-only loops × core pipes sign matrix."""
        out = np.zeros((len(self), len(self.core)))
        out[np.repeat(np.arange(len(self)), np.diff(self.starts)),
            np.searchsorted(self.core, self.columns)] = self.signs
        return _frozen(out)

    def sums(self, values: np.ndarray) -> np.ndarray:
        """B·values for `values` on the core: `core_matrix @ values` when
        every value is finite, else each loop summed over its own members in
        traversal order, so a value that is not finite reaches only the
        loops that hold it (the product would multiply the others' zeros by
        it too)."""
        if np.isfinite(values).all():
            return self.core_matrix @ values
        return np.add.reduceat(self.signs * values[np.searchsorted(self.core, self.columns)],
                               self.starts[:-1])

    def diagonal_corrections(self, residuals: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Hardy Cross's per-loop residuals / (|B|·weights), 0 where that sum is < 1e-30."""
        denom = self.core_magnitudes @ weights
        return np.divide(residuals, denom, out=np.zeros_like(denom), where=~(denom < 1e-30))

    def corrected(self, flows: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """q + BᵀΔ for flows `q` on every pipe, a new array; the pipes off
        the core keep their flows."""
        change = self.core_matrix.T @ deltas
        if self.spans_all:
            return flows + change
        flows = flows.copy()
        flows[self.core] += change
        return flows

    @cached_property
    def core_magnitudes(self) -> np.ndarray:
        """|B| on the core, read-only: which core pipes each loop holds."""
        return _frozen(np.abs(self.core_matrix))

    def check_network(self, net: Network) -> None:
        """Raise ValueError unless the basis was built on `net`'s pipe order
        and ends, testing identity first: O(1) on its own network."""
        ids = PipeArrays.of(net).ids
        if not ((self.pipe_ids is ids or self.pipe_ids == ids)
                and (self.ends is net._ends or np.array_equal(self.ends, net._ends))):
            raise ValueError("loop basis was built on another network: pipe order or ends differ")


def build_node_matrix(net: Network) -> np.ndarray:
    """Continuity rows for every node except the reference node, in node
    order: a (nodes-1) × pipes matrix that is +1 where a pipe's reference
    orientation enters the row's node, -1 where it leaves, 0 elsewhere."""
    n_nodes, n_pipes = len(net._node_ids), net._ends.shape[1]
    # A row per node index and a last one for index -1, an end that names
    # no node; a pipe's tail entry overwrites its head entry.
    entries = np.zeros((n_nodes + 1, n_pipes))
    entries[net._ends[1], np.arange(n_pipes)] = 1.0
    entries[net._ends[0], np.arange(n_pipes)] = -1.0
    return entries[:-1][np.arange(n_nodes) != net._reference_index]


def derive_loop_basis(net: Network) -> LoopBasis:
    """Fundamental cycles of the deterministic spanning tree.

    One loop per link pipe (taken in ascending id order), oriented so the
    link itself carries sign +1; the rest of the cycle is the unique tree
    path closing it, from the link's head back to its tail.  Each call
    returns a new basis on the cycles the network keeps.
    """
    return LoopBasis(PipeArrays.of(net).ids, *net._cycles, net._ends)


def adopt_explicit_loops(net: Network) -> LoopBasis:
    """Validate and adopt the loop set supplied with the network definition.

    Each loop is given as a signed pipe-id sequence in traversal order
    (negative id = traversed against the pipe's reference orientation).
    Raises ValueError on a non-cycle sequence, a wrong loop count, a
    disconnected network (which has no spanning tree, and more independent
    cycles than pipes - nodes + 1) or a rank-deficient set.  A closed
    cycle's entries on the tree pipes follow from its entries on the links
    (the co-tree view of Elhay et al. 2014), so the loops have the rank of
    their own columns.  Full rank mod 2 proves independence; only a set
    dependent mod 2, such as the three 4-cycles of K4, needs `exact_rank`
    on B's core columns, which eliminates in integers, with exact divisions.
    A network keeps loops that pass (`_loops`), which later calls wrap in
    a new basis unchecked; a set that fails raises on every call.
    """
    if "_loops" in vars(net):
        return LoopBasis(PipeArrays.of(net).ids, *net._loops, net._ends)
    if not net.explicit_loops:
        raise ValueError("network definition carries no explicit loops")
    expected = net.loop_count
    if len(net.explicit_loops) != expected:
        raise ValueError(
            f"wrong loop count: {len(net.explicit_loops)} supplied, "
            f"{expected} independent loops required (pipes - nodes + 1)")

    index = {pid: j for j, pid in enumerate(PipeArrays.of(net).ids)}
    members, starts = [], [0]
    for k, sequence in enumerate(net.explicit_loops, start=1):
        members += _as_cycle(net, index, k, sequence)
        starts.append(len(members))
    columns, signs = zip(*members)
    basis = LoopBasis(PipeArrays.of(net).ids, columns, signs, starts, net._ends)

    net._tree    # raises on a disconnected network
    if (_gf2_rank([sum(1 << j for j in columns[a:b]) for a, b in zip(starts, starts[1:])])
            != expected and exact_rank(basis.core_matrix.astype(int).tolist()) != expected):
        raise ValueError("rank-deficient loop set: loops are not independent")
    object.__setattr__(net, "_loops", (basis.columns, basis.signs, basis.starts))
    return basis


def _as_cycle(net: Network, index: dict[PipeId, int], k: int,
              sequence: tuple[int, ...]) -> list[tuple[int, int]]:
    """Loop `k` as (pipe index, sign) pairs, checked to be a closed walk."""
    if not sequence:
        raise ValueError(f"loop {k} is empty")
    signed, (tails, heads) = [], net._pipe_ends
    seen_pipes = set()
    node = None
    start = None
    for raw in sequence:
        pid = abs(raw)
        sign = 1 if raw > 0 else -1
        if pid in seen_pipes:
            raise ValueError(f"loop {k} repeats pipe {pid}")
        seen_pipes.add(pid)
        if pid not in index:
            raise ValueError(f"loop {k} references unknown pipe {pid}")
        ends = tails[index[pid]], heads[index[pid]]
        tail, head = ends if sign > 0 else ends[::-1]
        if node is None:
            start = tail
        elif tail != node:
            raise ValueError(
                f"loop {k} is not a closed cycle: pipe {pid} starts at "
                f"{tail!r} but the walk is at {node!r}")
        node = head
        signed.append((index[pid], sign))
    if node != start:
        raise ValueError(
            f"loop {k} is not a closed cycle: walk ends at {node!r}, "
            f"started at {start!r}")
    return signed


def _gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as bitmasks of their nonzero columns."""
    pivots: dict[int, int] = {}          # leading bit -> reduced row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free integer elimination (Bareiss
    1968): after k pivots each entry below them is a (k+1)-minor of the
    input, so the division by the pivot before last that yields it is exact."""
    m = [list(row) for row in rows]
    rank, previous = 0, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top, p = m[rank], m[rank][col]
        for r in range(rank + 1, len(m)):
            a = m[r][col]
            m[r] = [(p * v - a * w) // previous for v, w in zip(m[r], top)]
        previous = p
        rank += 1
        if rank == len(m):
            break
    return rank
