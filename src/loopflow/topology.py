"""Incidence structure of a network: node matrix and independent loop basis.

The node matrix encodes the flow-continuity equations (one row per node
except the reference node).  The loop basis encodes the energy-balance
equations: pipes - nodes + 1 independent cycles with ±1 signs, held as
index arrays (the co-tree view of Elhay et al. 2014).  The spanning tree
the loops rest on is the network's own, and so are its bases, with all
they derive: its fundamental cycles, which it walks once, on first ask,
and its explicit loops, which it checks once.  B is only ever built on
the core, the pipes in a loop, and kept only by a basis whose loop
Jacobian is the dense product; every other basis takes its loop sums,
corrections and |B|·D over each loop's members, and no basis keeps |B|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Network, PipeArrays, PipeId, _frozen, _fundamental_cycles

PAIR_CHUNK = 1 << 15     # pair entries `LoopBasis.pair_index` builds at a time


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
    and the sizing evaluate the core alone.  A `dense` basis keeps B on
    the core (`core_matrix`) and takes B·x, Bᵀy and B D Bᵀ as dense
    products; the others take them over each loop's `members` and the
    `pair_index`.  A network keeps its bases, and so each cached property
    of theirs.
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
    def member_cores(self) -> np.ndarray:
        """Each member's column of the core, read-only: its pipe index itself
        when the core spans all pipes."""
        return self.columns if self.spans_all else _frozen(np.searchsorted(self.core, self.columns))

    @cached_property
    def members(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each loop's members as (loops, core columns, signs), read-only,
        in ascending core column within each loop: one order, however the
        loop is walked, in which the index operations add a loop's terms.
        The indices are `intp` and the signs floats, the types that numpy's
        gathers, scatters and products take without a conversion."""
        rows = np.repeat(np.arange(len(self)), np.diff(self.starts))
        # Each loop holds a pipe once, so the keys row·n + column are
        # distinct; they already ascend from loop to loop, the runs that a
        # stable sort (timsort) merges.
        order = (rows * len(self.core) + self.member_cores).argsort(kind="stable")
        return (_frozen(rows), _frozen(self.member_cores[order].astype(np.intp)),
                _frozen(self.signs[order].astype(float)))

    @cached_property
    def dense(self) -> bool:
        """Whether B D Bᵀ is cheaper as the dense product than scattered by
        pairs: 64·Σ c_j² > L²·n, with c_j the loops that hold core pipe j, L
        loops and n core pipes.  A dense basis keeps B (`core_matrix`)."""
        counts = np.bincount(self.member_cores, minlength=len(self.core))
        return 64 * int(counts @ counts) > len(self) ** 2 * len(self.core)

    def _matrix(self) -> np.ndarray:
        """B on the core, built anew: the loops × core pipes sign matrix."""
        out = np.zeros((len(self), len(self.core)))
        out[np.repeat(np.arange(len(self)), np.diff(self.starts)), self.member_cores] = self.signs
        return out

    @cached_property
    def core_matrix(self) -> np.ndarray | None:
        """B on the core, read-only, on a `dense` basis; None on the others,
        whose operations read the members instead."""
        return _frozen(self._matrix()) if self.dense else None

    def sums(self, values: np.ndarray) -> np.ndarray:
        """B·values for `values` on the core: `core_matrix @ values` on a
        dense basis when every value is finite, else each loop summed over
        its `members`, so a value that is not finite reaches only the loops
        that hold it (the product would multiply the others' zeros by it
        too)."""
        if self.core_matrix is not None and np.isfinite(values).all():
            return self.core_matrix @ values
        _, cores, signs = self.members
        terms = values.take(cores)
        terms *= signs
        return np.add.reduceat(terms, self.starts[:-1])

    def diagonal_corrections(self, residuals: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Hardy Cross's per-loop residuals / (|B|·weights), 0 where that sum
        is < 1e-30; each loop's sum runs over its `members`."""
        denom = np.add.reduceat(weights.take(self.members[1]), self.starts[:-1])
        return np.divide(residuals, denom, out=np.zeros(len(denom)), where=~(denom < 1e-30))

    def spread(self, deltas: np.ndarray) -> np.ndarray:
        """Bᵀ·deltas on the core: `core_matrix.T @ deltas` on a dense basis,
        else each loop's delta, signed, added to its members' columns."""
        if self.core_matrix is not None:
            return self.core_matrix.T @ deltas
        rows, cores, signs = self.members
        terms = deltas.take(rows)
        terms *= signs
        return np.bincount(cores, terms, len(self.core))

    def corrected(self, flows: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """q + BᵀΔ for flows `q` on every pipe, a new array; the pipes off
        the core keep their flows."""
        change = self.spread(deltas)
        if self.spans_all:
            return flows + change
        flows = flows.copy()
        flows[self.core] += change
        return flows

    @cached_property
    def pair_index(self) -> tuple[np.ndarray, np.ndarray] | None:
        """How B D Bᵀ = Σ_j D_j b_j b_jᵀ scatters from D on the core, or None
        on a `dense` basis.

        One entry per pipe j and ordered pair (k, l) of loops that hold it,
        grouped by pipe in ascending order: `key` is k·L + l and `pick`
        indexes D_j in [D, -D] by the product of the two signs, which
        `jacobian` scatters.  Each is read-only, in the smallest integer type
        that holds it (keys < L², picks < 2n), built PAIR_CHUNK entries at a time.
        """
        if self.dense:
            return None
        cores, size, n = self.member_cores, len(self), len(self.core)
        counts = np.bincount(cores, minlength=n)
        # The members grouped by pipe, each pipe's in loop order.  Member m's
        # entries, ends[m] - reps[m] to ends[m], pair it as `a` with each
        # member `b` of its pipe, so a chunk is a run of members.
        by_pipe = np.argsort(cores, kind="stable")
        rows = np.repeat(np.arange(size), np.diff(self.starts))[by_pipe]
        signs, pipe = self.signs[by_pipe], np.repeat(np.arange(n), counts)
        reps = counts[pipe]
        ends = np.cumsum(reps)
        shift = ends - reps - (np.cumsum(counts) - counts)[pipe]
        key = np.empty(int(reps.sum()), np.min_scalar_type(-size * size))
        pick = np.empty(len(key), np.min_scalar_type(-2 * n))
        cuts = np.unique(np.searchsorted(ends, np.arange(0, len(key), PAIR_CHUNK), "right"))
        for lo, hi in zip(cuts.tolist(), [*cuts[1:].tolist(), len(pipe)]):
            first, last = ends[lo] - reps[lo], ends[hi - 1]
            a = np.repeat(np.arange(lo, hi), reps[lo:hi])
            b = np.arange(first, last) - np.repeat(shift[lo:hi], reps[lo:hi])
            key[first:last] = rows[a] * size + rows[b]
            pick[first:last] = pipe[a] + n * (signs[a] != signs[b])
        return _frozen(key), _frozen(pick)

    def jacobian(self, weights: np.ndarray) -> np.ndarray:
        """B·diag(weights)·Bᵀ for `weights` on the core: `np.bincount` over
        the `pair_index`, or the dense product on a `dense` basis.  By
        pairs, J[k, l] and J[l, k] sum the same terms in the same order, so
        J is exactly symmetric."""
        if self.dense:
            return (self.core_matrix * weights) @ self.core_matrix.T
        key, pick = self.pair_index
        return np.bincount(key, np.concatenate((weights, -weights)).take(pick),
                           len(self) ** 2).reshape(len(self), len(self))

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
    path closing it, from the link's head back to its tail.  The network
    keeps the basis, built on the first call, and every call returns it.
    """
    if "_derived_basis" not in vars(net):
        object.__setattr__(net, "_derived_basis", LoopBasis(
            PipeArrays.of(net).ids, *_fundamental_cycles(net, *net._tree.tolist()), net._ends))
    return net._derived_basis


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
    A network keeps the basis of loops that pass, which later calls return
    unchecked; a set that fails raises on every call.
    """
    if "_explicit_basis" in vars(net):
        return net._explicit_basis
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
            != expected and exact_rank(basis._matrix().astype(int).tolist()) != expected):
        raise ValueError("rank-deficient loop set: loops are not independent")
    object.__setattr__(net, "_explicit_basis", basis)
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
