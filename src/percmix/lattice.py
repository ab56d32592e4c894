"""Finite lattice boxes {-n..n}^d: canonical indexing and geometry.

Vertices are ranked row-major over coordinate tuples (axis 0 slowest), edges
are ranked by (tail vertex, axis) with only positive-axis neighbours counted.
Both rankings are pure functions of (d, n), so every downstream artifact that
keys off a VertexId or EdgeId is reproducible across machines.

Every contraction of the package labels its components here, through
``components``, and splits its batches here, through ``chunks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import CapacityError, DomainError

# Vertex ids must stay addressable with signed 32-bit indices so edge and
# adjacency arrays keep a bounded footprint.
MAX_VERTICES = 2**31 - 1


@dataclass(frozen=True)
class BoxSpec:
    """Box B_d(n) on the vertex set {-n, ..., n}^d."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        if self.n < 0:
            raise DomainError(f"radius must be >= 0, got {self.n}")
        if self.vertex_count > MAX_VERTICES:
            raise CapacityError(
                f"(2*{self.n}+1)^{self.d} = {self.vertex_count} vertices "
                f"exceeds the index range ({MAX_VERTICES})"
            )

    @property
    def side(self) -> int:
        return 2 * self.n + 1

    @property
    def vertex_count(self) -> int:
        return self.side**self.d

    @property
    def edge_count(self) -> int:
        return self.d * (2 * self.n) * self.side ** (self.d - 1)


class BoxGraph:
    """The box B_d(n) with canonical vertex/edge enumerations.

    Immutable after construction; safe to share across workers.
    """

    def __init__(self, spec: BoxSpec):
        self.spec = spec
        d, n, side = spec.d, spec.n, spec.side
        self.num_vertices = spec.vertex_count
        self.num_edges = spec.edge_count
        # strides[a] = side^(d-1-a): axis 0 varies slowest, axis d-1 fastest.
        self.strides = np.array([side ** (d - 1 - a) for a in range(d)], dtype=np.int64)

        vids = np.arange(self.num_vertices, dtype=np.int64)
        coords = self.vertex_coords(vids)

        # Edge (v, v + e_a) exists iff coord_a(v) < n; enumeration order is
        # row-major over (vertex, axis), matching the canonical EdgeId.
        valid = coords < n  # (V, d)
        tails_flat = np.nonzero(valid.ravel())[0]
        self.edge_tail = (tails_flat // d).astype(np.int64)
        self.edge_axis = (tails_flat % d).astype(np.int8)
        self.edge_head = self.edge_tail + self.strides[self.edge_axis]
        if self.edge_tail.shape[0] != self.num_edges:
            raise AssertionError("edge enumeration does not match closed form")

        # (V, d) lookup: EdgeId of the positive-axis edge at (vertex, axis), -1 if absent.
        self.edge_lookup = np.full((self.num_vertices, d), -1, dtype=np.int64)
        self.edge_lookup.ravel()[tails_flat] = np.arange(self.num_edges, dtype=np.int64)

        for arr in (self.strides, self.edge_tail, self.edge_axis, self.edge_head, self.edge_lookup):
            arr.setflags(write=False)

    def vertex_coords(self, vids) -> np.ndarray:
        """Coordinates in {-n..n}^d for an array of vertex ids."""
        vids = np.asarray(vids, dtype=np.int64)
        side, n = self.spec.side, self.spec.n
        return (vids[..., None] // self.strides) % side - n


def concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenated ranges [s, s + l) over paired ``starts`` and ``lens``."""
    return np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)


def edge_graph(u: np.ndarray, v: np.ndarray, n: int) -> sparse.csr_matrix:
    """CSR pattern of the graph on n nodes with edges u-v, given with ``u`` ascending.

    The row pointers are read off the sorted ``u`` and the data is one
    broadcast float64 1.0, as csgraph reads it, so neither a COO conversion
    nor csgraph's own cast sorts the rows or copies the data.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
    return sparse.csr_matrix((np.broadcast_to(np.float64(1.0), u.size), v, indptr), shape=(n, n))


def components(graph) -> tuple:
    """Connected components of an undirected sparse graph: count, labels, lowest node of each.

    csgraph numbers components in the order of their lowest node, and the
    tie-breaks downstream (largest piece, heaviest complement component,
    census order) follow that order; the lowest node of each is where the
    running maximum label grows, so a numbering in any other order is refused.
    """
    count, labels = csgraph.connected_components(graph, directed=False)
    run = np.maximum.accumulate(labels)
    grows = np.ones(labels.size, dtype=bool)  # a byte a node: whole boxes are labelled
    np.not_equal(run[1:], run[:-1], out=grows[1:])
    low = np.flatnonzero(grows)
    if low.size != count:
        raise RuntimeError("connected components are not numbered by their lowest node")
    return count, labels, low


def chunks(entries, budget: int):
    """Slices of consecutive items whose ``entries`` total at most ``budget``, or single items."""
    ends = np.cumsum(entries)
    done = 0
    while done < ends.size:
        before = int(ends[done - 1]) if done else 0
        stop = max(done + 1, int(np.searchsorted(ends, before + budget, side="right")))
        yield slice(done, stop)
        done = stop


@lru_cache(maxsize=16)
def _cached_box(spec: BoxSpec) -> BoxGraph:
    return BoxGraph(spec)


def build_box(spec: BoxSpec) -> BoxGraph:
    """Construct (or fetch the cached) box graph for a spec."""
    return _cached_box(spec)
