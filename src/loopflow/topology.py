"""Incidence structure of a network: node matrix and independent loop basis.

The node matrix encodes the flow-continuity equations (one row per node
except the reference node, whose row is linearly dependent on the others).
The loop basis encodes the energy-balance equations: pipes - nodes + 1
independent closed cycles with ±1 orientation signs.  `compile_network`
turns both, with the pipe geometry and the node demands, into the arrays
the solvers work on.

Both loop bases rest on the one spanning tree of `model.spanning_tree`:
the derived basis holds the fundamental cycle of each link (pipe outside
the tree); an explicit set is rank-checked on its block of link columns.
A solve shares one tree between its loop basis (`_fundamental_cycles` or
`_adopt_explicit_loops`) and its start.
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

    def matrix(self, col_pipes: list[PipeId]) -> np.ndarray:
        """Dense loops × pipes sign matrix in the given pipe column order."""
        col = {pid: j for j, pid in enumerate(col_pipes)}
        out = np.zeros((len(self.loops), len(col_pipes)))
        for i, loop in enumerate(self.loops):
            for pid, sign in loop:
                out[i, col[pid]] = sign
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


def compile_network(net: Network, basis: LoopBasis) -> NetworkArrays:
    return NetworkArrays(net, PipeArrays.of(net), basis.matrix(net.pipe_ids))


def build_node_matrix(net: Network) -> NodeMatrix:
    """Continuity rows for every node except the reference node."""
    row_nodes = tuple(n.id for n in net.nodes if n.id != net.reference_node)
    row = {nid: i for i, nid in enumerate(row_nodes)}
    col_pipes = tuple(net.pipe_ids)
    entries = np.zeros((len(row_nodes), len(col_pipes)))
    for j, p in enumerate(net.pipes):
        if p.to_node in row:
            entries[row[p.to_node], j] = 1.0
        if p.from_node in row:
            entries[row[p.from_node], j] = -1.0
    return NodeMatrix(entries, row_nodes, col_pipes)


def derive_loop_basis(net: Network) -> LoopBasis:
    """Fundamental cycles of the deterministic spanning tree.

    One loop per link pipe (taken in ascending id order), oriented so the
    link itself carries sign +1; the rest of the cycle is the unique tree
    path closing it, from the link's head back to its tail.
    """
    return _fundamental_cycles(net, spanning_tree(net))


def _fundamental_cycles(net: Network, tree: SpanningTree) -> LoopBasis:
    """`derive_loop_basis` on the network's `spanning_tree`."""
    tree_pipes, attach_order = tree
    tree_ids = {p.id for p in tree_pipes}
    links = sorted((p for p in net.pipes if p.id not in tree_ids), key=lambda p: p.id)

    parent: dict[NodeId, tuple[NodeId, Pipe]] = {}   # node -> (parent node, tree pipe)
    depth = {net.reference_node: 0}
    for node, pipe in attach_order:
        above = pipe.to_node if pipe.from_node == node else pipe.from_node
        parent[node] = (above, pipe)
        depth[node] = depth[above] + 1

    loops = []
    for link in links:
        # Climb from both ends of the link to their lowest common ancestor:
        # the cycle goes up from the link's head, then down to its tail.
        up, down = [], []
        a, b = link.to_node, link.from_node
        while a != b:
            if depth[a] >= depth[b]:
                above, pipe = parent[a]
                up.append((pipe.id, 1 if pipe.from_node == a else -1))
                a = above
            else:
                above, pipe = parent[b]
                down.append((pipe.id, 1 if pipe.to_node == b else -1))
                b = above
        loops.append(((link.id, 1), *up, *reversed(down)))
    return LoopBasis(tuple(loops))


def adopt_explicit_loops(net: Network) -> LoopBasis:
    """Validate and adopt the loop set supplied with the network definition.

    Each loop is given as a signed pipe-id sequence in traversal order
    (negative id = traversed against the pipe's reference orientation).
    Raises ValueError on a non-cycle sequence, a wrong loop count, or a
    rank-deficient set.  A closed cycle is fixed by its signs on the links
    of a spanning tree, so the loops are independent exactly when their
    loops × links block has full rank.
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

    tree_ids = {p.id for p in (spanning_tree(net) if tree is None else tree)[0]}
    link_columns = [j for j, pid in enumerate(net.pipe_ids) if pid not in tree_ids]
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
