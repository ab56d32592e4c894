"""Seed-deterministic Bernoulli percolation on box graphs and cluster extraction.

Openness of edge e (or site v) is a pure function of (seed, p, id): the id is
expanded to a counter with the splitmix64 golden gamma, XORed with the seed,
passed through the splitmix64 avalanche finalizer, and compared against
floor(p * 2^64). Identical inputs therefore regenerate bit-identical
configurations on any platform, and because the comparison threshold is
monotone in p, a single seed yields a monotone coupling across p values.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import (
    DomainError,
    EmptyClusterError,
    MembershipError,
)
from .lattice import BoxGraph, BoxSpec, build_box

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
# Domain separation so bond id k and site id k never share randomness.
_BOND_SALT = np.uint64(0)
_SITE_SALT = np.uint64(0x6A09E667F3BCC909)

_MAGIC = b"PMX1"


def mix64(z: np.ndarray) -> np.ndarray:
    """Splitmix64 avalanche finalizer, vectorized over uint64 arrays."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _MULT1
    z ^= z >> np.uint64(27)
    z *= _MULT2
    z ^= z >> np.uint64(31)
    return z


def _threshold_mask(seed: int, count: int, p: float, salt: np.uint64) -> np.ndarray:
    """Boolean open-mask of length ``count`` with i.i.d. Bernoulli(p) marginals."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must be in [0, 1], got {p}")
    if p == 0.0:
        return np.zeros(count, dtype=bool)
    if p == 1.0:
        return np.ones(count, dtype=bool)
    ids = np.arange(1, count + 1, dtype=np.uint64)
    counters = ids * _GAMMA
    z = counters ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ salt
    # p * 2^64 is exact (scaling by a power of two); threshold < 2^64 since p < 1.
    threshold = np.uint64(int(p * 2.0**64))
    return mix64(z) < threshold


@dataclass(frozen=True)
class BondConfig:
    """An open/closed assignment on the edges of B_d(n)."""

    box: BoxSpec
    p: float
    seed: int
    open_mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.open_mask.shape != (self.box.edge_count,):
            raise DomainError("open mask length does not match the edge count")

    @property
    def open_count(self) -> int:
        return int(self.open_mask.sum())

    def open_edges(self) -> np.ndarray:
        return np.nonzero(self.open_mask)[0]

    def to_bytes(self) -> bytes:
        header = struct.pack(
            "<4sIIdQ", _MAGIC, self.box.d, self.box.n,
            self.p, self.seed & 0xFFFFFFFFFFFFFFFF,
        )
        return header + np.packbits(self.open_mask).tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BondConfig":
        magic, d, n, p, seed = struct.unpack_from("<4sIIdQ", blob)
        if magic != _MAGIC:
            raise DomainError("not a bond configuration block")
        box = BoxSpec(d, n)
        bits = np.frombuffer(blob, dtype=np.uint8, offset=struct.calcsize("<4sIIdQ"))
        mask = np.unpackbits(bits)[: box.edge_count].astype(bool)
        return cls(box, p, seed, mask)

    def to_text(self) -> str:
        """Line-oriented debug form: header then one open EdgeId per line."""
        out = io.StringIO()
        out.write(f"d={self.box.d}\nn={self.box.n}\np={float(self.p).hex()}\nseed={self.seed}\n")
        for e in self.open_edges():
            out.write(f"{e}\n")
        return out.getvalue()

    @classmethod
    def from_text(cls, text: str) -> "BondConfig":
        header = {}
        open_ids = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if "=" in line:
                k, v = line.split("=", 1)
                header[k.strip()] = v.strip()
            else:
                open_ids.append(int(line))
        try:
            box = BoxSpec(int(header["d"]), int(header["n"]))
            p = float.fromhex(header["p"])
            seed = int(header["seed"])
        except KeyError as exc:
            raise DomainError(f"missing header field {exc}") from exc
        mask = np.zeros(box.edge_count, dtype=bool)
        mask[np.asarray(open_ids, dtype=np.int64)] = True
        return cls(box, p, seed, mask)


@dataclass(frozen=True)
class SiteConfig:
    """An open/closed assignment on the vertices of B_d(n)."""

    box: BoxSpec
    p: float
    seed: int
    open_mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.open_mask.shape != (self.box.vertex_count,):
            raise DomainError("open mask length does not match the vertex count")

    @property
    def open_count(self) -> int:
        return int(self.open_mask.sum())

    def open_sites(self) -> np.ndarray:
        return np.nonzero(self.open_mask)[0]


def sample_bond_config(box: BoxSpec, p: float, seed: int) -> BondConfig:
    mask = _threshold_mask(seed, box.edge_count, p, _BOND_SALT)
    mask.setflags(write=False)
    return BondConfig(box, p, seed, mask)


def sample_site_config(box: BoxSpec, p: float, seed: int) -> SiteConfig:
    mask = _threshold_mask(seed, box.vertex_count, p, _SITE_SALT)
    mask.setflags(write=False)
    return SiteConfig(box, p, seed, mask)


def bernoulli_site_field(seed: int, count: int, p: float) -> np.ndarray:
    """Plain Bernoulli(p) indicator vector from the site stream (no box)."""
    return _threshold_mask(seed, count, p, _SITE_SALT)


def _component_labels(config: BondConfig, graph: BoxGraph) -> np.ndarray:
    """Open-cluster label of every box vertex; isolated vertices are singletons."""
    open_ids = config.open_edges()
    v = graph.num_vertices
    adj = sparse.coo_matrix(
        (np.ones(open_ids.size, dtype=np.int8),
         (graph.edge_tail[open_ids], graph.edge_head[open_ids])),
        shape=(v, v),
    )
    return csgraph.connected_components(adj.tocsr(), directed=False)[1]


class ClusterGraph:
    """A connected graph, usually an open cluster of a bond configuration.

    Vertices carry their global box VertexIds (ascending) and, when available,
    lattice coordinates and back-references to the parent configuration's
    EdgeIds. Synthetic fixtures use the same class with ``box=None``.
    """

    def __init__(self, vertex_ids, edges_local, *, coords=None, parent_edge_ids=None,
                 box: BoxSpec | None = None, p: float | None = None,
                 seed: int | None = None, max_degree: int | None = None):
        self.vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        self.edges_local = np.asarray(edges_local, dtype=np.int64).reshape(-1, 2)
        self.coords = None if coords is None else np.asarray(coords, dtype=np.int64)
        self.parent_edge_ids = (
            None if parent_edge_ids is None else np.asarray(parent_edge_ids, dtype=np.int64)
        )
        self.box = box
        self.p = p
        self.seed = seed

        m = self.vertex_ids.shape[0]
        if m < 1:
            raise DomainError("cluster must contain at least one vertex")
        deg = np.bincount(self.edges_local.ravel(), minlength=m)
        self.degrees = deg.astype(np.int64)
        if m > 1 and self.degrees.min() < 1:
            raise DomainError("cluster has an isolated vertex")
        if max_degree is not None and m > 1 and self.degrees.max() > max_degree:
            raise DomainError("vertex degree exceeds the lattice bound")

        ones = np.ones(self.edges_local.shape[0], dtype=np.int8)
        a = sparse.coo_matrix(
            (ones, (self.edges_local[:, 0], self.edges_local[:, 1])), shape=(m, m)
        )
        self.adjacency = (a + a.T).tocsr()
        ncomp, _ = csgraph.connected_components(self.adjacency, directed=False)
        if ncomp != 1:
            raise DomainError("cluster graph is not connected")

    @property
    def num_vertices(self) -> int:
        return self.vertex_ids.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges_local.shape[0]

    @property
    def total_degree(self) -> int:
        return 2 * self.num_edges

    def local_index(self, vertex_id: int) -> int:
        i = int(np.searchsorted(self.vertex_ids, vertex_id))
        if i >= self.num_vertices or self.vertex_ids[i] != vertex_id:
            raise MembershipError(f"vertex {vertex_id} is not in the cluster")
        return i

    def __contains__(self, vertex_id: int) -> bool:
        i = np.searchsorted(self.vertex_ids, vertex_id)
        return i < self.num_vertices and self.vertex_ids[i] == vertex_id


def largest_cluster(config: BondConfig) -> ClusterGraph:
    """Open component with the most edges; ties go to the smallest VertexId."""
    if config.open_count == 0:
        raise EmptyClusterError("configuration has no open edges")
    graph = build_box(config.box)
    labels = _component_labels(config, graph)

    open_ids = config.open_edges()
    edge_labels = labels[graph.edge_tail[open_ids]]
    edge_counts = np.bincount(edge_labels, minlength=graph.num_vertices)
    candidates = np.nonzero(edge_counts == edge_counts.max())[0]
    # labels are indexed by vertex id, so the first vertex whose label is a
    # candidate identifies the component with the smallest contained VertexId.
    best = labels[int(np.argmax(np.isin(labels, candidates)))]

    vertex_ids = np.nonzero(labels == best)[0]
    cluster_edges = open_ids[edge_labels == best]
    tails = np.searchsorted(vertex_ids, graph.edge_tail[cluster_edges])
    heads = np.searchsorted(vertex_ids, graph.edge_head[cluster_edges])
    return ClusterGraph(
        vertex_ids,
        np.stack([tails, heads], axis=1),
        coords=graph.vertex_coords(vertex_ids),
        parent_edge_ids=cluster_edges,
        box=config.box,
        p=config.p,
        seed=config.seed,
        max_degree=2 * config.box.d,
    )


@dataclass(frozen=True)
class ClusterCensus:
    """Full component decomposition of a bond configuration.

    ``component_edges`` / ``component_vertices`` are aligned and sorted by
    descending (edges, vertices); isolated vertices appear as components with
    zero edges.
    """

    box: BoxSpec
    p: float
    seed: int
    component_edges: np.ndarray
    component_vertices: np.ndarray

    @property
    def num_components(self) -> int:
        return self.component_edges.shape[0]

    @property
    def largest_edge_density(self) -> float:
        denom = self.box.d * self.box.vertex_count
        return float(self.component_edges[0]) / denom

    @property
    def largest_vertex_fraction(self) -> float:
        return float(self.component_vertices[0]) / self.box.vertex_count

    @property
    def second_largest_ratio(self) -> float:
        """Second/largest edge-count ratio; 0 when there is no second cluster."""
        if self.num_components < 2 or self.component_edges[0] == 0:
            return 0.0
        return float(self.component_edges[1]) / float(self.component_edges[0])

    @property
    def total_edges(self) -> int:
        return int(self.component_edges.sum())

    @property
    def total_vertices(self) -> int:
        return int(self.component_vertices.sum())


def cluster_census(config: BondConfig) -> ClusterCensus:
    graph = build_box(config.box)
    labels = _component_labels(config, graph)
    verts = np.bincount(labels)
    edges = np.bincount(labels[graph.edge_tail[config.open_edges()]], minlength=verts.size)
    order = np.lexsort((-verts, -edges))
    return ClusterCensus(config.box, config.p, config.seed, edges[order], verts[order])


def chemical_distance(cluster: ClusterGraph, x: int, y: int) -> int:
    """Graph distance between two global VertexIds inside the cluster."""
    lx, ly = cluster.local_index(x), cluster.local_index(y)
    if lx == ly:
        return 0
    dist = csgraph.dijkstra(cluster.adjacency, indices=lx, unweighted=True, directed=False)
    return int(dist[ly])
