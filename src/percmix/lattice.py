"""Finite lattice boxes {-n..n}^d: canonical indexing, geometry, planar dual.

Vertices are ranked row-major over coordinate tuples (axis 0 slowest), edges
are ranked by (tail vertex, axis) with only positive-axis neighbours counted.
Both rankings are pure functions of (d, n), so every downstream artifact that
keys off a VertexId or EdgeId is reproducible across machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError, UnsupportedDimensionError

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


@lru_cache(maxsize=16)
def _cached_box(spec: BoxSpec) -> BoxGraph:
    return BoxGraph(spec)


def build_box(spec: BoxSpec) -> BoxGraph:
    """Construct (or fetch the cached) box graph for a spec."""
    return _cached_box(spec)


class DualGraph:
    """Planar dual of B_2(n): one vertex per unit face plus one merged outer face.

    Every primal edge crosses exactly one dual edge and the pairing is indexed
    by primal EdgeId, so dual edge k crosses primal edge k. The single outer
    face keeps boundary cut curves connected.
    """

    def __init__(self, box: BoxGraph):
        if box.spec.d != 2:
            raise UnsupportedDimensionError("dual lattice is defined for d=2 only")
        self.box = box
        n = box.spec.n
        self.n = n
        self.faces_per_side = 2 * n
        self.num_inner_faces = self.faces_per_side**2
        self.outer_face = self.num_inner_faces  # id of the merged outer face

        # Face (fx, fy) is the unit square [fx, fx+1] x [fy, fy+1],
        # fx, fy in {-n .. n-1}. Axis 0 of a primal edge changes x, axis 1 y.
        coords = box.vertex_coords(box.edge_tail)  # (E, 2)
        x, y = coords[:, 0], coords[:, 1]
        ax = box.edge_axis
        # axis-0 edge (x,y)-(x+1,y): separates faces (x, y-1) and (x, y)
        # axis-1 edge (x,y)-(x,y+1): separates faces (x-1, y) and (x, y)
        fu = np.where(ax == 0, self._face_id(x, y - 1), self._face_id(x - 1, y))
        fv = self._face_id(x, y)
        self.dual_u = fu
        self.dual_v = fv
        self.dual_u.setflags(write=False)
        self.dual_v.setflags(write=False)

    def _face_id(self, fx, fy) -> np.ndarray:
        n, side = self.n, self.faces_per_side
        inside = (fx >= -n) & (fx < n) & (fy >= -n) & (fy < n)
        ids = (fx + n) * side + (fy + n)
        return np.where(inside, ids, self.outer_face).astype(np.int64)

    def coord_to_face(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.int64)
        n, side = self.n, self.faces_per_side
        if np.any(coords < -n) or np.any(coords >= n):
            raise DomainError("face coordinate outside the box")
        return (coords[..., 0] + n) * side + (coords[..., 1] + n)


@lru_cache(maxsize=16)
def dual_lattice(box: BoxGraph) -> DualGraph:
    """Planar dual of a d=2 box (cached per box; its arrays are read-only).

    Errors on any other dimension.
    """
    return DualGraph(box)
