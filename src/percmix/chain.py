"""Continuous-time simple random walk on a connected graph.

The generator has off-diagonal rates 1/deg(x) toward each neighbour and -1 on
the diagonal. It is similar to the symmetric matrix S = D^{1/2} Q D^{-1/2}
(D the diagonal of the stationary law), so with S = V diag(lambda) V^T the
transient kernel is e^{tQ} = D^{-1/2} V e^{t lambda} V^T D^{1/2}
(Levin-Peres-Wilmer, Markov Chains and Mixing Times, Lemma 12.2). Every
mixing probe reads the modes with e^{t lambda} > MODE_TOL/m only, as the m x k
matrix A = V e^{t lambda / 2}, and those are all the eigenpairs it computes:
above SPARSE_EIGEN_MIN vertices one sparse shift-invert Lanczos solve,
certified complete by Sylvester's law of inertia (`Chain.solve_above`),
with the dense eigendecomposition as fallback up to MATRIX_HARD_CAP. The
solves of a chain share one factor of S - sigma I, and the chain keeps no
solve. The kernel is the rank-k product D^{-1/2} A A^T D^{1/2}; a probe makes
its rows in blocks of at least 64, one matrix product each, and never holds
it whole. Row x lies within chi_x / 2 of pi in TV, chi_x its chi-square
distance from the k-vectors, so a probe makes rows in decreasing order of
chi_x and stops once no row left can change its answer (`_row_pass`); one
routine, `_probe`, reads either profile off those rows. Bisection only asks
whether d(t) > e^{-1}, so a probe stops as soon as that is proven against
the kernel error bound, and its value is then a bound on d(t), not d(t)
itself: the mixing trace holds bounds, and `mixing_time(..., exact=True)`
the exact values. At d=2 n=21 the probes make about an eighth of the rows
for the distance to stationarity and under a third for the pairwise sup.
The mixing search needs no probe below a lower bound on the crossing of
e^{-1}: the relaxation time tau2 for the pairwise profile, (1 - ln 2) tau2
for the distance to stationarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.special  # noqa: F401  loaded with the package, not by the first probe's cdist
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal, ldl
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .caps import MATRIX_HARD_CAP, PAIRWISE_CAP, SPARSE_EIGEN_MIN
from .errors import CapacityError, DomainError, NonConvergenceError, PercmixError
from .percolation import ClusterGraph

TV_THRESHOLD = math.exp(-1.0)

MODE_TOL = 1e-10  # a probe keeps the modes with e^{t lambda} > MODE_TOL/m

_MAX_MODE_FRACTION = 0.25  # asking for more of the spectrum goes dense
_SHIFT = 1e-6  # shift-invert pole just above the top eigenvalue 0 of S


def _symmetric_lu(s: sparse.spmatrix, shift: float):
    """Sparse LU of S - shift I with a symmetric ordering and diagonal pivots."""
    a = (s - shift * sparse.identity(s.shape[0], format="csr")).tocsc()
    return splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))


def count_above(s: sparse.spmatrix, theta: float) -> int | None:
    """Number of eigenvalues of the symmetric S above theta, or None.

    When SuperLU keeps every pivot on the diagonal (equal row and column
    permutations), P (S - theta I) P^T = L U with U = diag(U) L^T, so by
    Sylvester's law of inertia the positive entries of diag(U) count the
    eigenvalues above theta exactly. It pivots off the diagonal when a pivot
    vanishes, as at theta = -1 on a bipartite graph, where S - theta I has a
    zero diagonal. The count then comes from the dense Bunch-Kaufman
    factorization P (S - theta I) P^T = L D L^T, whose block-diagonal D (1 x 1
    and 2 x 2 blocks, so tridiagonal) has the same inertia. None means that
    pivoting failed above MATRIX_HARD_CAP vertices, the cap of the dense routes.
    """
    lu = _symmetric_lu(s, theta)
    if np.array_equal(lu.perm_r, lu.perm_c):
        return int(np.count_nonzero(lu.U.diagonal() > 0))
    if s.shape[0] > MATRIX_HARD_CAP:
        return None
    a = (s - theta * sparse.identity(s.shape[0], format="csr")).toarray()
    _, d, _ = ldl(a, overwrite_a=True, check_finite=False)
    w = eigvalsh_tridiagonal(np.diag(d).copy(), np.diag(d, -1).copy())
    return int(np.count_nonzero(w > 0))


def top_eigenpairs(s: sparse.spmatrix, lu, k: int) -> tuple:
    """The k largest eigenpairs of the symmetric S (spectrum <= 0), ascending.

    Shift-invert Lanczos about the pole _SHIFT just above 0, through ``lu``,
    the factor of S - _SHIFT I, from a fixed start vector, so the result is
    deterministic. Raises ArpackNoConvergence.
    """
    m = s.shape[0]
    op = LinearOperator((m, m), matvec=lu.solve, dtype=float)
    v0 = 1.0 + (np.arange(m) * 0.6180339887498949) % 1.0
    w, v = eigsh(s, k=k, sigma=_SHIFT, which="LM", v0=v0, OPinv=op)
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


class Chain:
    """Reversible walk data on a connected graph.

    The stationary law is degree-proportional and the directed edge measure
    pi(x) Q_{x,y} equals 1/(2|E|) for every directed edge, which makes
    reversibility an exact integer identity.
    """

    def __init__(self, graph: ClusterGraph):
        m = graph.num_vertices
        if m < 2:
            raise DomainError("chain needs at least 2 vertices")
        self.graph = graph
        self.m = m
        self.degrees = graph.degrees
        self.total_degree = int(self.degrees.sum())
        self.pi = self.degrees / self.total_degree

    @property
    def pi_min(self) -> float:
        return float(self.degrees.min()) / self.total_degree

    @cached_property
    def symmetrized(self) -> sparse.csr_matrix:
        """S = D^{1/2} Q D^{-1/2}: entries 1/sqrt(deg x * deg y), diagonal -1."""
        inv_sqrt = 1.0 / np.sqrt(self.degrees)
        adj = self.graph.adjacency
        s = sparse.csr_matrix(adj.multiply(inv_sqrt[:, None]).multiply(inv_sqrt[None, :]))
        s = s - sparse.identity(self.m, format="csr")
        return s.tocsr()

    @cached_property
    def eigensystem(self) -> tuple:
        """Dense eigendecomposition (ascending eigenvalues, eigenvector columns) of S.

        The route for small chains and the fallback of the sparse solves,
        computed at most once per chain; both arrays are read-only. Refused
        above MATRIX_HARD_CAP vertices, the one m x m array of the chain.
        """
        if self.m > MATRIX_HARD_CAP:
            raise CapacityError(
                f"the dense eigensystem of {self.m} vertices exceeds the memory "
                f"cap of {MATRIX_HARD_CAP}"
            )
        w, v = np.linalg.eigh(self.symmetrized.toarray())
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    @cached_property
    def shift_factor(self):
        """Sparse LU of S - _SHIFT I: every sparse solve of the chain shares it."""
        return _symmetric_lu(self.symmetrized, _SHIFT)

    def solve_above(self, theta: float) -> tuple:
        """(floor, w, v): a certified solve for the eigenpairs of S above theta.

        Above SPARSE_EIGEN_MIN vertices, the inertia of S - theta I gives the
        exact count K of eigenvalues above theta (`count_above`); shift-invert
        Lanczos then computes the top K + 1 pairs, which are accepted only if
        theta separates the K-th from the (K + 1)-th, and the floor is theta.
        Any other outcome, a small chain, or K beyond a quarter of m reads the
        dense eigensystem, whose floor is -inf. Nothing is kept on the chain
        but the dense eigensystem and the shift factor.
        """
        s = self.symmetrized
        if self.m > SPARSE_EIGEN_MIN:
            k = count_above(s, theta)
            if k and k < _MAX_MODE_FRACTION * self.m:
                try:
                    w, v = top_eigenpairs(s, self.shift_factor, k + 1)
                except ArpackNoConvergence:
                    w = None
                if w is not None and w[0] <= theta < w[1]:
                    w, v = w[1:], v[:, 1:]
                    w.setflags(write=False)
                    v.setflags(write=False)
                    return theta, w, v
        return -math.inf, *self.eigensystem


def build_chain(graph: ClusterGraph) -> Chain:
    """Wrap a graph as a walk chain; `ClusterGraph` is connected by construction."""
    return Chain(graph)


def _mode_floor(m: int, t: float, tol: float) -> float:
    """An eigenvalue floor below every mode with e^{t lambda} > tol/m.

    Non-increasing as t decreases, so the floor of the smallest probe time
    covers every later probe.
    """
    return (math.log(tol / m) - 1e-9) / t


# Kernel rows are made, and start pairs bounded and evaluated, in batches of
# about this many entries, so no probe holds an m x m array.
_BLOCK_ENTRIES = 1 << 17
# (floor, ceil) levels of a probe that settles nothing by a bound: the exact value
_EXACT = (0.0, math.inf)


def _probe_modes(w: np.ndarray, v: np.ndarray, t: float, tol: float) -> tuple:
    """A = V e^{t lambda / 2} and e^{t lambda} over the modes with e^{t lambda} > tol/m.

    (w, v) must hold every eigenpair above the `_mode_floor` of some time at
    or below t, as the mixing search's block does. Eigenvalues ascend, so the
    kept modes are a suffix and the stationary one is the last column.
    """
    decay = np.exp(t * w)
    k = max(1, int(np.count_nonzero(decay > tol / v.shape[0])))
    return v[:, w.size - k:] * np.sqrt(decay[w.size - k:]), decay[w.size - k:]


def _tv_to(rows: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Half the L1 distance from each row to each reference row, in one C pass."""
    # imported here: scipy.spatial adds about 4 MB and 60 ms to the import
    # of percmix, and only the mixing probes use it
    from scipy.spatial.distance import cdist

    return 0.5 * cdist(rows, refs, "cityblock")


class _KernelRows:
    """The deviation rows K(x, .) - pi of one probe kernel, made on demand.

    K = e^{tQ} = D^{-1/2} A A^T D^{1/2} is normalised to be row-stochastic:
    row x of A A^T D^{1/2} sums to s_x = A_x . (A^T sqrt(pi)), an O(mk)
    product. With 1/s folded into A and -pi appended as one more mode, a
    block of rows minus pi is one product [A/s, 1][rows] [A^T D^{1/2}; -pi^T];
    the normalisation absorbs D^{-1/2}. By Cauchy-Schwarz with weights pi,
    the modes left out of A move row x by at most pi(x)^{-1/2} tol/m in L1,
    which is below tol * sqrt(deg_max / deg_min).

    The weighted deviation (K(x, .) - pi) / sqrt(pi) of a row is
    sum_j coords[x, j] v_j over the k orthonormal modes v_j; the stationary
    mode's coordinate is shifted by its sign, which leaves every difference
    unchanged. ``made`` counts the rows made, and ``step`` is the rows of
    one product: about _BLOCK_ENTRIES entries, and at least 64 rows, below
    which a product costs several times more per row on large chains.
    """

    def __init__(self, chain: Chain, w: np.ndarray, v: np.ndarray, t: float, tol: float):
        a, decay = _probe_modes(w, v, t, tol)
        m, k = a.shape
        self.right = np.vstack([a.T * np.sqrt(chain.pi), -chain.pi])
        self.left = np.ones((m, k + 1))
        self.left[:, :k] = a / (a @ self.right[:k].sum(axis=1))[:, None]
        self.coords = self.left[:, :k] * np.sqrt(decay)
        self.coords[:, -1] -= math.copysign(1.0, self.coords[0, -1])
        self.step = max(64, _BLOCK_ENTRIES // m)
        self.made = 0

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        out = np.empty((idx.size, self.right.shape[1]))
        for lo in range(0, idx.size, self.step):
            hi = lo + self.step
            np.matmul(self.left[idx[lo:hi]], self.right, out=out[lo:hi])
        self.made += idx.size
        return out


def _row_pass(dev_rows, coords: np.ndarray, pairwise: bool, step: int,
              levels: tuple = _EXACT) -> tuple:
    """The kernel rows a probe needs, in decreasing order of their chi-square bound.

    Row x lies within ub_x = chi_x / 2 (plus rounding slack) of pi in TV, by
    Cauchy-Schwarz with weights pi, chi_x being the norm of ``coords[x]``.
    Rows are made ``step`` at a time from the largest ub down, keeping R,
    the largest distance r to pi so far, and in pairwise mode the TV distance
    from the first row (the pivot) to each, whose maximum is the incumbent;
    one `_tv_to` call gives a block's distances to both. The probe's value
    is R for the distance to stationarity and the incumbent for the
    pairwise sup, and ``levels`` = (floor, ceil) say which answers settle it.
    The pass stops once that value exceeds ceil (the probe is decided
    above), or before the row with bound ub once no row from there on can
    lift the value above max(value, floor): ub <= max(R, floor) for the
    distance to stationarity, and ub + max(R, ub) <= max(incumbent, floor)
    for the pairwise sup, since TV_ij <= r_i + r_j. The levels (0, inf)
    leave the exact maximum.

    Returns C, the rows made in ascending order, with their r and, in
    pairwise mode, their distances to the pivot (else None).
    """
    floor, ceil = levels
    chi = np.sqrt((coords * coords).sum(axis=1))
    ub = 0.5 * chi * (1.0 + 1e-9) + 1e-12
    order = np.argsort(-ub, kind="stable")
    m = order.size
    r = np.empty(m)
    tv_pivot = np.empty(m) if pairwise else None
    refs = None
    best = top = 0.0
    done = 0
    while done < m:
        hi = min(done + step, m)
        dev = dev_rows(order[done:hi])
        if refs is None:  # pi and, in pairwise mode, the pivot's row, as deviations
            refs = np.vstack([np.zeros(dev.shape[1]), dev[0]])[:1 + pairwise]
        dist = _tv_to(dev, refs)
        r[done:hi] = dist[:, 0]
        top = max(top, float(dist[:, 0].max()))
        if pairwise:
            tv_pivot[done:hi] = dist[:, 1]
            best = max(best, float(dist[:, 1].max()))
        done = hi
        value = best if pairwise else top
        if done < m and value <= ceil:
            nxt = float(ub[order[done]])
            if (nxt + max(top, nxt) if pairwise else nxt) > max(value, floor):
                continue
        break
    c = np.argsort(order[:done], kind="stable")
    return order[:done][c], r[c], None if tv_pivot is None else tv_pivot[c]


def _pair_search(dev_rows, r: np.ndarray, tv_pivot: np.ndarray, chunk: int = 1024,
                 levels: tuple = _EXACT) -> tuple:
    """Sup over start pairs of the TV distance between kernel rows, up to ``levels``.

    The incumbent is the farthest row from the pivot row (``tv_pivot``), and
    one rule bounds every pair: TV_ij <= min_a (TV_ia + TV_aj) over landmarks
    a (LAESA: Mico, Oncina & Vidal, Pattern Recognit. Lett. 1994). The first
    two are pi, whose distances r drop every row too close to stationarity
    to beat the incumbent, and the pivot; one pass over the kept rows lists
    the pairs these two leave. The kept rows minus pi (``dev_rows(keep)``)
    are made once. Each further landmark is the kept row farthest from the
    landmarks so far (Gonzalez, Theor. Comput. Sci. 1985), and its distances
    to the kept rows raise the incumbent and tighten the listed pairs. It
    costs one distance per kept row, so one is added only while the pairs
    outnumber the kept rows and the last one dropped at least that many
    pairs: pairs that tie at the incumbent survive every landmark. The pairs left are evaluated
    exactly, in batches of ``chunk`` in decreasing order of bound, until no
    bound beats the best value. ``levels`` = (floor, ceil) cut the search
    short: it returns as soon as a distance exceeds ceil, and every bound is
    held against max(best, floor). The result is therefore a pair value
    above ceil (a lower bound on the sup), floor itself when no pair beats
    it (an upper bound), and the exact sup in between; the levels (0, inf)
    give the exact sup. Returns it with the evaluated pairs (i, j, TV_ij),
    i < j, and the number of landmarks added, whose distances are not
    among the pairs.
    """
    floor, ceil = levels
    best = float(tv_pivot.max())
    keep = np.nonzero(r > max(best, floor) - float(r.max()) - 1e-12)[0]
    if best > ceil or keep.size < 2:
        return min(1.0, max(best, floor)), (keep[:0], keep[:0], np.empty(0)), 0
    rows = dev_rows(keep)
    rk, tk = r[keep], tv_pivot[keep]
    found = []
    block = max(1, _BLOCK_ENTRIES // keep.size)
    for lo in range(0, keep.size - 1, block):
        # rounding slack: r and tv_pivot come from the pass, exact values from rows made again
        bound = np.minimum(rk[lo:lo + block, None] + rk[lo:],
                           tk[lo:lo + block, None] + tk[lo:]) + 1e-12
        i, j = np.nonzero(np.triu(bound > max(best, floor), k=1))
        found.append((i + lo, j + lo, bound[i, j]))
    i, j, bound = (np.concatenate(parts) for parts in zip(*found))

    near = np.minimum(rk, tk)  # each kept row's distance to its nearest landmark
    landmarks, dropped = 0, keep.size
    while best <= ceil and i.size > keep.size and dropped >= keep.size:
        to_a = _tv_to(rows, rows[int(np.argmax(near))][None])[:, 0]
        landmarks += 1
        best = max(best, float(to_a.max()))
        np.minimum(near, to_a, out=near)
        np.minimum(bound, to_a[i] + to_a[j] + 1e-12, out=bound)
        alive = bound > max(best, floor)
        dropped = i.size - int(np.count_nonzero(alive))
        i, j, bound = i[alive], j[alive], bound[alive]
    order = np.argsort(-bound, kind="stable")
    i, j, neg_bound = i[order], j[order], -bound[order]

    done = 0
    tv = np.empty(i.size)
    while best <= ceil:
        # pairs sit in decreasing order of bound: stop at the first that cannot win
        stop = min(done + chunk, int(np.searchsorted(neg_bound, -max(best, floor))))
        if stop <= done:
            break
        diff = rows[i[done:stop]]
        diff -= rows[j[done:stop]]
        np.abs(diff, out=diff)
        tv[done:stop] = 0.5 * diff.sum(axis=1)
        best = max(best, float(tv[done:stop].max()))
        done = stop
    return min(1.0, max(best, floor)), (keep[i[:done]], keep[j[:done]], tv[:done]), landmarks


def _probe(dev_rows, coords: np.ndarray, pairwise: bool, step: int,
           levels: tuple = _EXACT) -> tuple:
    """d(t) of one probe kernel, up to ``levels``, and the pairs it evaluated.

    `_row_pass` makes the rows that can matter, C, ``step`` at a time. For
    the distance to stationarity the value is the largest distance R of a
    row to pi; for the pairwise sup, `_pair_search` finds it over the pairs
    in C, since no pair with a row outside C can beat it. With ``levels`` =
    (floor, ceil) the value is a distance above ceil (a lower bound on
    d(t)), floor itself when nothing beats it (an upper bound), and the
    exact d(t) in between; the levels (0, inf) give the exact value. Returns
    it, capped at 1, with the exactly evaluated pairs (i, j, TV_ij), i < j,
    in global indices, and the landmarks added (neither for stationarity).
    """
    made, r, tv_pivot = _row_pass(dev_rows, coords, pairwise, step, levels)
    if not pairwise:
        none = np.empty(0, dtype=np.intp)
        return min(1.0, max(float(r.max()), levels[0])), (none, none, np.empty(0)), 0
    best, (i, j, tv), landmarks = _pair_search(lambda idx: dev_rows(made[idx]), r, tv_pivot,
                                               step, levels)
    return best, (made[i], made[j], tv), landmarks


def _residual_norms(s: sparse.spmatrix, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """||S v_k - lambda_k v_k||_2 of each eigenpair, 512 pairs per product."""
    norms = np.empty(w.size)
    for lo in range(0, w.size, 512):
        cols = v[:, lo:lo + 512]
        norms[lo:lo + 512] = np.linalg.norm(s @ cols - cols * w[lo:lo + 512], axis=0)
    return norms


@dataclass
class MixingResult:
    """Bracketed total-variation mixing time.

    ``t_lo``/``t_hi`` bracket the first crossing of the e^{-1} threshold with
    d(t_lo) above and d(t_hi) at or below it; ``tau1`` is the bracket midpoint.
    The trace, ``d_lo`` and ``d_hi`` hold what each probe proved: a probe
    time in ``decided`` was settled by a bound, a lower bound on d(t) when
    its entry is above e^{-1} and an upper bound when at or below it; every
    other entry is the exact d(t) (``mixing_time(..., exact=True)`` decides
    no probe by a bound). ``error_bound`` bounds the numerical error of
    d(t_lo) and d(t_hi); it is NaN where it was not computed, which leaves
    the result uncertified. ``pairs_evaluated`` counts the start pairs whose
    distance the pairwise probes evaluated exactly after pruning, and
    ``rows_made`` the kernel rows the probes made, and ``landmarks`` the
    landmarks their pair searches added, each summed over the probes.
    ``modes`` is the number of eigenpairs of the solve at the lower end of
    the search, which every probe reads from.
    """

    tau1: float
    t_lo: float
    t_hi: float
    d_lo: float
    d_hi: float
    mode: str
    resolution: float
    trace: list = field(default_factory=list)  # (t, d) pairs in time order
    error_bound: float = math.nan
    pairs_evaluated: int = 0
    rows_made: int = 0
    decided: list = field(default_factory=list)  # probe times settled by a bound
    modes: int = 0
    landmarks: int = 0

    @property
    def certified(self) -> bool:
        """Both bracket ends sit on their side of e^{-1} by more than the error bound."""
        return (self.d_lo - TV_THRESHOLD > self.error_bound
                and TV_THRESHOLD - self.d_hi > self.error_bound)

    def check_monotone(self) -> None:
        """Raise unless the trace fits a non-increasing distance profile.

        No probe may be decided above e^{-1} after one decided at or below
        it, and no exact value or lower bound may exceed an earlier exact
        value or upper bound by more than 1e-8. Lower bounds are not
        compared with each other, since their order says nothing.
        """
        decided = set(self.decided)
        cap = below = None  # (t, d) of the least earlier upper bound; first probe below
        for t, d in self.trace:
            above = d > TV_THRESHOLD
            if above and below is not None:
                raise PercmixError(
                    f"distance trace is not non-increasing: d({t})={d} is above e^-1 "
                    f"after d({below[0]})={below[1]}"
                )
            if (above or t not in decided) and cap is not None and d > cap[1] + 1e-8:
                raise PercmixError(
                    f"distance trace is not non-increasing: d({cap[0]})={cap[1]} vs d({t})={d}"
                )
            if not (above and t in decided) and (cap is None or d < cap[1]):
                cap = (t, d)
            if not above and below is None:
                below = (t, d)


def mixing_time(chain: Chain, resolution: float | None = None, mode: str = "pairwise",
                tau2_hint: float | None = None, t_max: float | None = None,
                exact: bool = False) -> MixingResult:
    """Mixing time of the walk by bisection on the monotone distance profile.

    ``pairwise`` mode uses the worst-case distance over start pairs (the
    defining profile); ``stationarity`` uses the worst single start against
    the stationary law, which brackets the pairwise profile within a factor
    of two. ``auto`` selects pairwise up to its memory cap.

    Each probe kernel is made directly at its time from the modes with
    e^{t lambda} > MODE_TOL/m, which bounds its truncation error (see
    `_KernelRows`). Each probe is one `_probe` call on its own kernel rows:
    it makes them in blocks, in decreasing order of their chi-square bound,
    until no row left can matter (`_row_pass`); stationarity mode reads its
    value off that pass, and pairwise mode then searches the pairs of the
    rows made (`_pair_search`), holding only the rows it keeps. The mode
    sets only the probe's value, its levels, its error bound and the start
    of the search. ``rows_made`` counts every row made, ``pairs_evaluated``
    every pair evaluated exactly and ``landmarks`` every landmark added,
    each summed over the probes; no probe reads another's distances.

    Bisection only asks whether d(t) > e^{-1}, so each probe stops once its
    answer is proven (Levin-Peres-Wilmer, Ch. 4: d is non-increasing). A
    pairwise probe at t runs between the levels floor = e^{-1} - 2 E(t) and
    ceil = e^{-1} + E(t), E being the kernel error bound: it returns an
    exact pair distance above ceil (a lower bound on d(t)), floor itself
    when no pair beats it (an upper bound), and the exact d(t) in between.
    Every decision, and whether each bracket end clears e^{-1} by more than
    E, is then what the exact values give; certification reads E(t_hi), so
    a d(t_lo) decided against E(t_lo) that does not clear E(t_hi) is
    evaluated again exactly. Stationarity probes, which carry no error
    bound, use floor = ceil = e^{-1}. The trace therefore holds bounds at
    the probe times listed in ``decided``; ``exact=True`` runs the same
    probes with the levels (0, inf), and its trace holds the exact d(t)
    throughout.

    The bracket starts at a lower bound on the crossing from the relaxation
    time tau2 (``tau2_hint``, else `spectral_gap`): the pairwise profile
    satisfies d(t) >= e^{-t/tau2}, so the crossing is at or above tau2, and
    the distance to stationarity satisfies d(t) >= e^{-t/tau2}/2
    (Levin-Peres-Wilmer, Thm 12.5), so it is at or above (1 - ln 2) tau2.
    The probe times double from there, then bisect by exact dyadic halving.
    The lower end is verified only if bisection pins the crossing against
    it; where the bound holds with equality up to rounding (the single edge,
    the 4-cycle) the check can fail, and the lower end is halved and the
    bracket bisected again. One certified eigenpair solve at the lower end,
    held by the search with its residual norms, serves every probe above it.
    Pairwise results carry the kernel error bound that decides
    ``certified``; stationarity results, which are never tagged exact, leave
    it at NaN.
    """
    if mode == "auto":
        mode = "pairwise" if chain.m <= PAIRWISE_CAP else "stationarity"
    if mode == "pairwise" and chain.m > PAIRWISE_CAP:
        raise CapacityError(
            f"pairwise mode searches all pairs of {chain.m} starts; cap is "
            f"{PAIRWISE_CAP} - use stationarity mode above it"
        )
    if mode not in ("pairwise", "stationarity"):
        raise DomainError(f"unknown mixing mode {mode!r}")
    if tau2_hint is None:
        from .spectral import spectral_gap  # spectral builds on this module

        tau2_hint = spectral_gap(chain).tau2
    if not tau2_hint > 0.0:
        raise DomainError(f"tau2_hint must be positive, got {tau2_hint}")
    if resolution is None:
        resolution = max(1e-3, 1e-3 * tau2_hint)
    if not 0.0 < resolution < math.inf:
        raise DomainError(f"resolution must be positive and finite, got {resolution}")
    if t_max is None:
        t_max = 100.0 * chain.m**2

    thr = TV_THRESHOLD
    pairwise = mode == "pairwise"
    ratio = float(chain.degrees.max()) / float(chain.degrees.min())

    def solve(t):
        """The eigenpairs every probe at or above t reads, and their residual norms."""
        floor = _mode_floor(chain.m, t, MODE_TOL)
        _, w, v = chain.solve_above(floor)
        cut = w.size - int(np.count_nonzero(w > floor))
        w, v = w[cut:], v[:, cut:]
        return w, v, _residual_norms(chain.symmetrized, w, v) if pairwise else None

    @lru_cache(maxsize=None)
    def error_bound(t):
        if not pairwise:
            return math.nan
        # truncation, plus roughly m eps rounding and t times the eigen-residual
        # of the modes above the floor of t, each moved to a row's L1 by
        # pi(x)^{-1/2}; renormalisation doubles it
        w, _, norms = block
        keep = int(np.count_nonzero(w > _mode_floor(chain.m, t, MODE_TOL)))
        residual = float(norms[w.size - keep:].max())
        eps = np.finfo(float).eps
        rounding = math.sqrt(chain.m * ratio) * (chain.m * eps + t * residual)
        return 2.0 * (math.sqrt(ratio) * MODE_TOL + rounding)

    def levels(t):
        err = error_bound(t) if pairwise else 0.0
        return thr - 2.0 * err, thr + err

    trace = {}
    decided = set()
    rows_made = pairs_evaluated = landmarks = 0

    def evaluate(t, settle=not exact):
        nonlocal rows_made, pairs_evaluated, landmarks
        floor, ceil = levels(t) if settle else _EXACT
        rows = _KernelRows(chain, block[0], block[1], t, MODE_TOL)
        d, (_, _, tv), added = _probe(rows, rows.coords, pairwise, rows.step, (floor, ceil))
        rows_made += rows.made
        pairs_evaluated += tv.size
        landmarks += added
        trace[t] = d
        if settle and not floor < d <= ceil:
            decided.add(t)
        else:
            decided.discard(t)
        return d

    t_lo = float(tau2_hint) if pairwise else (1.0 - math.log(2.0)) * tau2_hint
    d_lo = None  # d(t_lo) is evaluated only when the bracket needs it
    block = solve(t_lo)  # no probe goes below t_lo
    while True:
        t = 2.0 * t_lo
        if t > t_max:
            raise NonConvergenceError(
                f"distance still above e^-1 at t={t_lo:.3g} (cap {t_max:.3g})",
                best=t_lo, residual=d_lo,
            )
        d = evaluate(t)
        if d <= thr:
            t_hi, d_hi = t, d
            break
        t_lo, d_lo = t, d

    while True:
        # bisection by exact dyadic halving
        width = t_hi - t_lo
        while width > resolution:
            delta = width / 2.0
            t_mid = t_lo + delta
            d_mid = evaluate(t_mid)
            if d_mid > thr:
                t_lo, d_lo = t_mid, d_mid
            else:
                t_hi, d_hi = t_mid, d_mid
            width = delta
        if d_lo is None:
            d_lo = evaluate(t_lo)
        if d_lo > thr:
            break
        # d(t_lo) is mixed, so the bound held only with equality up to rounding
        # (or the hint overshot tau2): the crossing lies below t_lo
        t_hi, d_hi = t_lo, d_lo
        t_lo, d_lo = t_lo / 2.0, None
        block = solve(t_lo)

    if pairwise and t_lo in decided and not d_lo - thr > error_bound(t_hi):
        # d(t_lo) was decided against E(t_lo); certification reads E(t_hi)
        d_lo = evaluate(t_lo, settle=False)
    result = MixingResult(
        tau1=(t_lo + t_hi) / 2.0, t_lo=t_lo, t_hi=t_hi, d_lo=d_lo, d_hi=d_hi,
        mode=mode, resolution=resolution,
        trace=sorted(trace.items()), error_bound=error_bound(t_hi),
        pairs_evaluated=pairs_evaluated, rows_made=rows_made,
        decided=sorted(decided), modes=block[0].size, landmarks=landmarks,
    )
    result.check_monotone()
    return result
