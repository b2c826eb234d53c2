"""Incidence structure of a network: node matrix and independent loop basis.

The node matrix encodes the flow-continuity equations (one row per node
except the reference node, whose row is linearly dependent on the others).
The loop basis encodes the energy-balance equations: pipes - nodes + 1
independent closed cycles with ±1 orientation signs.  `compile_network`
turns both, with the pipe geometry and the node demands, into the arrays
the solvers work on.

Both loop bases rest on the one spanning tree of `model.spanning_tree`:
the derived basis holds the fundamental cycle of each link (pipe outside
the tree); an explicit set is rank-checked on its block of link columns,
over GF(2) first and exactly over Q only when that block is singular
mod 2.
A solve shares one tree between its loop basis (`_fundamental_cycles` or
`_adopt_explicit_loops`) and its start.

Everything here works on the integer incidence the `Network` built when it
was constructed (node indices of each pipe's ends, pipe indices per node)
and on the tree's (node index, pipe index) steps; nothing derived from a
tree or a basis is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .model import (Network, NodeId, Pipe, PipeArrays, PipeId, SpanningTree, m3h_to_m3s,
                    spanning_tree)


@dataclass(frozen=True)
class NodeMatrix:
    """(nodes-1) × pipes matrix over {-1, 0, +1}.

    Entry is +1 where the pipe's reference orientation enters the row's
    node, -1 where it leaves, 0 elsewhere.
    """
    entries: np.ndarray
    row_nodes: tuple[NodeId, ...]
    col_pipes: tuple[PipeId, ...]


@dataclass(frozen=True)
class LoopBasis:
    """Ordered signed pipe memberships of the independent loops.

    Each loop is a sequence of (pipe id, sign) pairs in traversal order;
    sign +1 means the loop runs along the pipe's reference orientation.
    """
    loops: tuple[tuple[tuple[PipeId, int], ...], ...]

    def __len__(self) -> int:
        return len(self.loops)

    def matrix(self, col_pipes: list[PipeId] | tuple[PipeId, ...]) -> np.ndarray:
        """Dense loops × pipes sign matrix in the given pipe column order."""
        col = {pid: j for j, pid in enumerate(col_pipes)}
        out = np.zeros((len(self.loops), len(col_pipes)))
        out.flat[[i * len(col_pipes) + col[pid] for i, loop in enumerate(self.loops)
                  for pid, _ in loop]] = [sign for loop in self.loops for _, sign in loop]
        return out


@dataclass(frozen=True)
class NetworkArrays:
    """A network compiled for one solve, in `Network.pipe_ids` order."""
    net: Network
    pipes: PipeArrays
    loops: np.ndarray          # B: loops × pipes, signed loop membership

    @cached_property
    def node_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """A, (nodes - 1) × pipes over {-1, 0, +1}, with the demand of each
        row node in m³/s; built on first use, since only node-loop needs it."""
        node_matrix = build_node_matrix(self.net)
        demand = {n.id: m3h_to_m3s(n.demand_m3h) for n in self.net.nodes}
        return node_matrix.entries, np.array([demand[nid] for nid in node_matrix.row_nodes])

    @cached_property
    def loop_magnitudes(self) -> np.ndarray:
        """|B|, the unsigned loop membership, for sums over loop members."""
        return np.abs(self.loops)


def compile_network(net: Network, basis: LoopBasis) -> NetworkArrays:
    pipes = PipeArrays.of(net)
    return NetworkArrays(net, pipes, basis.matrix(pipes.ids))


def build_node_matrix(net: Network) -> NodeMatrix:
    """Continuity rows for every node except the reference node."""
    row: list[int] = []          # per node index, its row, or -1
    row_nodes: list[NodeId] = []
    for n in net.nodes:
        row.append(-1 if n.id == net.reference_node else len(row_nodes))
        if n.id != net.reference_node:
            row_nodes.append(n.id)
    row.append(-1)                # index -1: an end that names no node
    entries = np.zeros((len(row_nodes), len(net.pipes)))
    tails, heads = net._ends.tolist()
    for j, (tail, head) in enumerate(zip(tails, heads)):
        if row[head] >= 0:
            entries[row[head], j] = 1.0
        if row[tail] >= 0:
            entries[row[tail], j] = -1.0
    return NodeMatrix(entries, tuple(row_nodes), PipeArrays.of(net).ids)


def derive_loop_basis(net: Network) -> LoopBasis:
    """Fundamental cycles of the deterministic spanning tree.

    One loop per link pipe (taken in ascending id order), oriented so the
    link itself carries sign +1; the rest of the cycle is the unique tree
    path closing it, from the link's head back to its tail.
    """
    return _fundamental_cycles(net, spanning_tree(net))


def _fundamental_cycles(net: Network, tree: SpanningTree) -> LoopBasis:
    """`derive_loop_basis` on the network's `spanning_tree`."""
    tails, heads = net._ends.tolist()
    ids = PipeArrays.of(net).ids
    in_tree = [False] * len(net.pipes)
    parent = [0] * len(net.nodes)     # node -> tree pipe toward the root
    above = [0] * len(net.nodes)      # node -> the far end of that pipe
    depth = [0] * len(net.nodes)
    for node, pipe in tree.steps:
        in_tree[pipe] = True
        parent[node] = pipe
        above[node] = heads[pipe] if tails[pipe] == node else tails[pipe]
        depth[node] = depth[above[node]] + 1
    links = [j for j in net._id_order.tolist() if not in_tree[j]]

    loops = []
    for link in links:
        # Climb from both ends of the link to their lowest common ancestor:
        # the cycle goes up from the link's head, then down to its tail.
        up, down = [], []
        a, b = heads[link], tails[link]
        while a != b:
            if depth[a] >= depth[b]:
                pipe = parent[a]
                up.append((ids[pipe], 1 if tails[pipe] == a else -1))
                a = above[a]
            else:
                pipe = parent[b]
                down.append((ids[pipe], 1 if heads[pipe] == b else -1))
                b = above[b]
        loops.append(((ids[link], 1), *up, *reversed(down)))
    return LoopBasis(tuple(loops))


def adopt_explicit_loops(net: Network) -> LoopBasis:
    """Validate and adopt the loop set supplied with the network definition.

    Each loop is given as a signed pipe-id sequence in traversal order
    (negative id = traversed against the pipe's reference orientation).
    Raises ValueError on a non-cycle sequence, a wrong loop count, or a
    rank-deficient set.  A closed cycle is fixed by its signs on the links
    of a spanning tree, so the loops are independent exactly when their
    loops × links block has full rank.  Full rank mod 2 (an odd
    determinant) proves it; only a block singular mod 2, such as the three
    4-cycles of K4, needs `exact_rank`.
    """
    return _adopt_explicit_loops(net, None)


def _adopt_explicit_loops(net: Network, tree: SpanningTree | None) -> LoopBasis:
    """`adopt_explicit_loops`, rank-checking on `tree` (`spanning_tree(net)`) if given."""
    if not net.explicit_loops:
        raise ValueError("network definition carries no explicit loops")
    expected = net.loop_count
    if len(net.explicit_loops) != expected:
        raise ValueError(
            f"wrong loop count: {len(net.explicit_loops)} supplied, "
            f"{expected} independent loops required (pipes - nodes + 1)")

    pipes = {p.id: p for p in net.pipes}
    basis = LoopBasis(tuple(_as_cycle(pipes, k, sequence)
                            for k, sequence in enumerate(net.explicit_loops, start=1)))

    in_tree = {j for _, j in (spanning_tree(net) if tree is None else tree).steps}
    link_columns = [j for j in range(len(net.pipes)) if j not in in_tree]
    ids = PipeArrays.of(net).ids
    bit = {ids[j]: 1 << k for k, j in enumerate(link_columns)}
    if _gf2_rank([sum(bit.get(pid, 0) for pid, _ in loop) for loop in basis.loops]) == expected:
        return basis
    sign_rows = basis.matrix(net.pipe_ids)[:, link_columns].astype(int).tolist()
    if exact_rank(sign_rows) != expected:
        raise ValueError("rank-deficient loop set: loops are not independent")
    return basis


def _as_cycle(pipes: dict[PipeId, Pipe], k: int, sequence: tuple[int, ...]):
    if not sequence:
        raise ValueError(f"loop {k} is empty")
    signed = []
    seen_pipes = set()
    node = None
    start = None
    for raw in sequence:
        pid = abs(raw)
        sign = 1 if raw > 0 else -1
        if pid in seen_pipes:
            raise ValueError(f"loop {k} repeats pipe {pid}")
        seen_pipes.add(pid)
        if pid not in pipes:
            raise KeyError(f"no pipe {pid!r} in network")
        pipe = pipes[pid]
        tail = pipe.from_node if sign > 0 else pipe.to_node
        head = pipe.to_node if sign > 0 else pipe.from_node
        if node is None:
            start = tail
        elif tail != node:
            raise ValueError(
                f"loop {k} is not a closed cycle: pipe {pid} starts at "
                f"{tail!r} but the walk is at {node!r}")
        node = head
        signed.append((pid, sign))
    if node != start:
        raise ValueError(
            f"loop {k} is not a closed cycle: walk ends at {node!r}, "
            f"started at {start!r}")
    return tuple(signed)


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
    """Rank over the rationals by exact Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    n_cols = len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank
