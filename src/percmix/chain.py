"""Continuous-time simple random walk on a connected graph.

The generator has off-diagonal rates 1/deg(x) toward each neighbour and -1 on
the diagonal. It is similar to the symmetric matrix S = D^{1/2} Q D^{-1/2}
(D the diagonal of the stationary law), so with S = V diag(lambda) V^T the
transient kernel is e^{tQ} = D^{-1/2} V e^{t lambda} V^T D^{1/2}
(Levin-Peres-Wilmer, Markov Chains and Mixing Times, Lemma 12.2). Every
mixing probe builds its kernel from that one dense eigendecomposition,
keeping only the modes with e^{t lambda} > tol/m.

The uniformized jump kernel is exactly the discrete simple random walk
kernel P, so e^{tQ} is also the Poisson(t) mixture of powers of P. That
route serves single transient distributions and the test oracle for the
spectral kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.special import gammaln

from .caps import MATRIX_HARD_CAP, PAIRWISE_CAP
from .errors import CapacityError, DomainError, NonConvergenceError, PercmixError
from .percolation import ClusterGraph

TV_THRESHOLD = math.exp(-1.0)

DEFAULT_POISSON_TOL = 1e-10


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
        inv_deg = 1.0 / self.degrees
        # P[x, y] = 1/deg(x) for x ~ y; zero diagonal.
        self.kernel = sparse.csr_matrix(graph.adjacency.multiply(inv_deg[:, None]))
        self.kernel_t = sparse.csr_matrix(self.kernel.T)

    @property
    def pi_min(self) -> float:
        return float(self.degrees.min()) / self.total_degree

    @property
    def edge_measure(self) -> float:
        """q(x, y) for any directed edge: 1 / (2|E|)."""
        return 1.0 / self.total_degree

    @property
    def box(self):
        return self.graph.box

    def generator_dense(self) -> np.ndarray:
        q = self.kernel.toarray()
        np.fill_diagonal(q, -1.0)
        return q

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

        Computed once per chain and shared by the spectral gap and the
        mixing kernels; both arrays are read-only.
        """
        w, v = np.linalg.eigh(self.symmetrized.toarray())
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v


def build_chain(graph: ClusterGraph) -> Chain:
    """Validate connectivity and wrap a graph as a walk chain."""
    ncomp, _ = csgraph.connected_components(graph.adjacency, directed=False)
    if ncomp != 1:
        raise DomainError("graph is not connected")
    return Chain(graph)


def tv_distance(mu: np.ndarray, nu: np.ndarray) -> float:
    """Total-variation distance, half the L1 distance between the vectors."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != nu.shape:
        raise DomainError(f"distribution supports differ: {mu.shape} vs {nu.shape}")
    return min(1.0, 0.5 * float(np.abs(mu - nu).sum()))


def _poisson_weights(t: float, tol: float) -> np.ndarray:
    """Poisson(t) pmf values w_0..w_K with tail mass below tol."""
    if t < 0:
        raise DomainError("time must be nonnegative")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if t == 0.0:
        return np.ones(1)
    k_hi = int(t + 12.0 * math.sqrt(t) + 40.0)
    while True:
        k = np.arange(k_hi + 1)
        logw = k * math.log(t) - t - gammaln(k + 1)
        w = np.exp(logw)
        if 1.0 - w.sum() < tol:
            break
        k_hi = int(k_hi * 1.5) + 10
    cum = np.cumsum(w)
    cut = int(np.searchsorted(cum, 1.0 - tol)) + 1
    return w[:cut]


def transient_distribution(chain: Chain, start: np.ndarray, t: float,
                           tol: float = DEFAULT_POISSON_TOL) -> np.ndarray:
    """Distribution of the walk at time t from a start distribution.

    Truncated Poisson mixture of kernel powers, renormalized to sum to one.
    ``t = 0`` returns the start distribution exactly.
    """
    start = np.asarray(start, dtype=float)
    if start.shape != (chain.m,):
        raise DomainError("start distribution has the wrong length")
    if t == 0.0:
        return start.copy()
    w = _poisson_weights(t, tol)
    vec = start.copy()
    out = w[0] * vec
    pt = chain.kernel_t
    for wk in w[1:]:
        vec = pt @ vec
        out += wk * vec
    return out / out.sum()


def _kernel_matrix(chain: Chain, t: float, tol: float) -> np.ndarray:
    """Dense matrix whose row x is the time-t distribution started at x."""
    if chain.m > MATRIX_HARD_CAP:
        raise CapacityError(
            f"kernel matrix for {chain.m} vertices exceeds the memory cap"
        )
    w = _poisson_weights(t, tol)
    # Work with the transpose so every step is a fast csr @ dense product.
    acc = np.eye(chain.m) * w[0]
    cur = np.eye(chain.m)
    pt = chain.kernel_t
    for wk in w[1:]:
        cur = pt @ cur
        acc += wk * cur
    mat = np.ascontiguousarray(acc.T)
    mat /= mat.sum(axis=1, keepdims=True)
    return mat


def _spectral_kernel(chain: Chain, t: float, tol: float) -> np.ndarray:
    """Row-stochastic e^{tQ} from the chain's eigensystem, low modes dropped.

    The kernel is D^{-1/2} A A^T D^{1/2} with A = V e^{t lambda / 2} over the
    modes with e^{t lambda} > tol/m; the row normalisation absorbs D^{-1/2}.
    By Cauchy-Schwarz with weights pi, the dropped modes move row x by at most
    pi(x)^{-1/2} tol/m in L1, which is below tol * sqrt(deg_max / deg_min).
    """
    w, v = chain.eigensystem
    decay = np.exp(t * w)
    # eigenvalues ascend, so the kept modes are a suffix; the stationary one is last
    k = max(1, int(np.count_nonzero(decay > tol / chain.m)))
    a = v[:, chain.m - k:] * np.sqrt(decay[chain.m - k:])
    mat = a @ a.T
    mat *= np.sqrt(chain.pi)
    mat /= mat.sum(axis=1, keepdims=True)
    return mat


def _eigen_residual(chain: Chain, block: int = 512) -> float:
    """max_k ||S v_k - lambda_k v_k||_2 over the chain's eigensystem."""
    w, v = chain.eigensystem
    s = chain.symmetrized
    worst = 0.0
    for lo in range(0, chain.m, block):
        cols = v[:, lo:lo + block]
        res = s @ cols - cols * w[lo:lo + block]
        worst = max(worst, float(np.linalg.norm(res, axis=0).max()))
    return worst


def _stationarity_distance(mat: np.ndarray, pi: np.ndarray) -> float:
    return min(1.0, 0.5 * float(np.abs(mat - pi).sum(axis=1).max()))


def _pairwise_sup_distance(mat: np.ndarray, pi: np.ndarray,
                           chunk: int = 1024) -> float:
    """Exact sup over start pairs of the TV distance between rows.

    Small matrices get a direct scan. Otherwise the incumbent is the farthest
    row from the row farthest from stationarity (one vectorised scan), and
    two rigorous prunings close in on the maximizing pair: rows whose
    distance to stationarity r_i is too small to beat the incumbent (via
    TV_ij <= r_i + r_j) are dropped, and the survivors' pairwise
    chi-square-type distances (one Gram product of the 1/sqrt(pi)-weighted
    deviations; TV_ij <= chi_ij / 2 by Cauchy-Schwarz with weights pi) bound
    the remaining pairs. Those are evaluated exactly in chunks of the largest
    bounds (top-k by ``argpartition``) until no bound beats the best exact
    value. Every discard is certified by a bound, so the result is the exact
    maximum.
    """
    m = mat.shape[0]
    dev = mat - pi
    if m <= 256:
        best = 0.0
        for i in range(m - 1):
            diff = 0.5 * np.abs(dev[i + 1:] - dev[i]).sum(axis=1).max()
            best = max(best, float(diff))
        return min(1.0, best)

    r = 0.5 * np.abs(dev).sum(axis=1)
    far = int(np.argmax(r))
    best = 0.5 * float(np.abs(dev - dev[far]).sum(axis=1).max())
    rmax = float(r[far])

    keep = np.nonzero(r > best - rmax - 1e-12)[0]
    if keep.size < 2:
        return min(1.0, best)
    w = dev[keep] / np.sqrt(pi)
    sq = (w * w).sum(axis=1)
    gram = w @ w.T
    iu, ju = np.triu_indices(keep.size, k=1)
    chi = np.sqrt(np.maximum(sq[iu] + sq[ju] - 2.0 * gram[iu, ju], 0.0))
    bound = 0.5 * chi * (1.0 + 1e-9) + 1e-12
    np.minimum(bound, r[keep][iu] + r[keep][ju], out=bound)

    alive = np.nonzero(bound > best)[0]
    kept_dev = dev[keep]
    while alive.size:
        if alive.size > chunk:
            part = np.argpartition(-bound[alive], chunk - 1)
            idx, alive = alive[part[:chunk]], alive[part[chunk:]]
        else:
            idx, alive = alive, alive[:0]
        tv = 0.5 * np.abs(kept_dev[iu[idx]] - kept_dev[ju[idx]]).sum(axis=1)
        best = max(best, float(tv.max()))
        alive = alive[bound[alive] > best]
    return min(1.0, best)


@dataclass
class MixingResult:
    """Bracketed total-variation mixing time.

    ``t_lo``/``t_hi`` bracket the first crossing of the e^{-1} threshold with
    d(t_lo) above and d(t_hi) at or below it; ``tau1`` is the bracket midpoint.
    ``error_bound`` bounds the numerical error of d(t_lo) and d(t_hi); it is
    NaN where it was not computed, which leaves the result uncertified.
    """

    tau1: float
    t_lo: float
    t_hi: float
    d_lo: float
    d_hi: float
    mode: str
    resolution: float
    poisson_tol: float
    trace: list = field(default_factory=list)  # (t, d) pairs in time order
    error_bound: float = math.nan

    @property
    def certified(self) -> bool:
        """Both bracket ends sit on their side of e^{-1} by more than the error bound."""
        return (self.d_lo - TV_THRESHOLD > self.error_bound
                and TV_THRESHOLD - self.d_hi > self.error_bound)

    def check_monotone(self, slack: float = 1e-8) -> None:
        for (t0, d0), (t1, d1) in zip(self.trace, self.trace[1:]):
            if t1 > t0 and d1 > d0 + slack:
                raise PercmixError(
                    f"distance trace is not non-increasing: d({t0})={d0} vs d({t1})={d1}"
                )


def mixing_time(chain: Chain, resolution: float | None = None, mode: str = "pairwise",
                tol: float = DEFAULT_POISSON_TOL, tau2_hint: float | None = None,
                t_max: float | None = None) -> MixingResult:
    """Mixing time of the walk by bisection on the monotone distance profile.

    ``pairwise`` mode uses the worst-case distance over start pairs (the
    defining profile); ``stationarity`` uses the worst single start against
    the stationary law, which brackets the pairwise profile within a factor
    of two. ``auto`` selects pairwise up to its memory cap.

    Each probe kernel is built directly at its time from the chain's one
    eigendecomposition, keeping only the modes with e^{t lambda} > tol/m, so
    ``tol`` bounds the truncation as the Poisson tolerance does. The probe
    times are doubling, then bisection by exact dyadic halving. Since the
    mixing time is never below the relaxation time, the search starts its
    bracket at the relaxation time (supplied as ``tau2_hint`` or read from
    the eigensystem above 256 vertices) and only verifies that endpoint if
    bisection ever pins the crossing against it. Pairwise results carry the
    kernel error bound that decides ``certified``; stationarity results,
    which are never tagged exact, leave it at NaN.
    """
    if mode == "auto":
        mode = "pairwise" if chain.m <= PAIRWISE_CAP else "stationarity"
    if mode == "pairwise" and chain.m > PAIRWISE_CAP:
        raise CapacityError(
            f"pairwise mode holds all {chain.m} transient vectors; cap is "
            f"{PAIRWISE_CAP} - use stationarity mode above it"
        )
    if mode not in ("pairwise", "stationarity"):
        raise DomainError(f"unknown mixing mode {mode!r}")
    if chain.m > MATRIX_HARD_CAP:
        raise CapacityError(
            f"kernel matrix for {chain.m} vertices exceeds the memory cap"
        )
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    # tau2_hint: None = compute one when worthwhile; <= 0 = forced doubling search
    if tau2_hint is None and chain.m > 256:
        tau2_hint = -1.0 / float(chain.eigensystem[0][-2])
    if tau2_hint is not None and tau2_hint <= 0.0:
        tau2_hint = None
    if resolution is None:
        resolution = max(1e-3, 1e-3 * tau2_hint) if tau2_hint else 1e-3
    if resolution <= 0:
        raise DomainError("resolution must be positive")
    if t_max is None:
        t_max = 100.0 * chain.m**2

    pi = chain.pi
    if mode == "pairwise":
        dist_of = lambda mat: _pairwise_sup_distance(mat, pi)
        ratio = float(chain.degrees.max()) / float(chain.degrees.min())
        residual = _eigen_residual(chain)

        def error_bound(t):
            # truncation, plus roughly m eps rounding and t times the eigen-residual,
            # each moved to a row's L1 by pi(x)^{-1/2}; renormalisation doubles it
            eps = np.finfo(float).eps
            rounding = math.sqrt(chain.m * ratio) * (chain.m * eps + t * residual)
            return 2.0 * (math.sqrt(ratio) * tol + rounding)
    else:
        dist_of = lambda mat: _stationarity_distance(mat, pi)
        error_bound = lambda t: math.nan

    thr = TV_THRESHOLD
    trace = {}

    def evaluate(t):
        d = dist_of(_spectral_kernel(chain, t, tol))
        trace[t] = d
        return d

    if tau2_hint is not None:
        # crossing is at or above the relaxation time; verify lazily
        t_lo, d_lo = float(tau2_hint), None
        t_hi = d_hi = None
        t = 2.0 * t_lo
        while True:
            if t > t_max:
                raise NonConvergenceError(
                    f"distance still above e^-1 at t={t / 2:.3g} (cap {t_max:.3g})",
                    best=t / 2, residual=trace.get(t / 2),
                )
            d = evaluate(t)
            if d <= thr:
                t_hi, d_hi = t, d
                break
            t_lo, d_lo = t, d
            t *= 2.0
    else:
        t0 = max(resolution / 2.0, 0.5)
        d0 = evaluate(t0)
        while d0 <= thr:
            if t0 <= resolution:
                # already mixed within one resolution step of zero
                d_zero = 1.0 if mode == "pairwise" else 1.0 - chain.pi_min
                result = MixingResult(
                    tau1=t0 / 2, t_lo=0.0, t_hi=t0, d_lo=d_zero, d_hi=d0, mode=mode,
                    resolution=resolution, poisson_tol=tol,
                    trace=sorted(trace.items()), error_bound=error_bound(t0),
                )
                result.check_monotone()
                return result
            t0 /= 4.0
            d0 = evaluate(t0)
        t_lo, d_lo = t0, d0
        while True:
            t_next = 2.0 * t_lo
            if t_next > t_max:
                raise NonConvergenceError(
                    f"distance still {d_lo:.4f} above e^-1 at t={t_lo:.3g} "
                    f"(cap {t_max:.3g})",
                    best=t_lo, residual=d_lo,
                )
            d_next = evaluate(t_next)
            if d_next <= thr:
                t_hi, d_hi = t_next, d_next
                break
            t_lo, d_lo = t_next, d_next

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
        # bisection never confirmed the lower endpoint: verify the hint
        d_lo = evaluate(t_lo)
        if d_lo <= thr:
            # hint overshot the true crossing; redo with a plain doubling search
            return mixing_time(chain, resolution=resolution, mode=mode, tol=tol,
                               tau2_hint=0.0, t_max=t_max)

    result = MixingResult(
        tau1=(t_lo + t_hi) / 2.0, t_lo=t_lo, t_hi=t_hi, d_lo=d_lo, d_hi=d_hi,
        mode=mode, resolution=resolution, poisson_tol=tol,
        trace=sorted(trace.items()), error_bound=error_bound(t_hi),
    )
    result.check_monotone()
    return result


def distance_profile(chain: Chain, times, mode: str = "pairwise",
                     tol: float = DEFAULT_POISSON_TOL) -> list:
    """d(t) on an explicit time grid from uniformized kernels (diagnostic and test oracle)."""
    pi = chain.pi
    out = []
    for t in times:
        mat = _kernel_matrix(chain, float(t), tol)
        if mode == "pairwise":
            out.append((float(t), _pairwise_sup_distance(mat, pi)))
        else:
            out.append((float(t), _stationarity_distance(mat, pi)))
    return out
