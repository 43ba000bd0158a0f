"""Optimization over product vectors and over the PPT state body.

The workhorse is a see-saw iteration for

    min <u,v| X |u,v>   over unit product vectors,

which alternates exact eigensolves of the two conditioned matrices.
Each half-step is a global minimization over one factor, so the
objective is non-increasing; the iteration is run from many seeded
restarts and merged deterministically.  The restarts run together as
the rows of one stack: every half-step builds and solves the
conditioned matrices of all active rows at once, and a row leaves the
stack when it converges (chunks keep a stack near 1 MB, so 256-dim
halves run one restart at a time).  One kernel serves every operand:
the operator is held as stacked split terms sum_k c_k L_k (x) R_k, so
a stack of conditioned matrices is two real GEMMs.  A
``StructuredOperator`` supplies its terms directly; a dense bipartite
``HermitianOperator`` enters through its Hermitian operator-Schmidt
form over the orthonormal Hermitian basis of its smaller factor (one
einsum, no SVD).  A half-step needs only the ground eigenpair.  Halves
of up to ``_STACKED_EIGH_MAX_SIDE`` (8) dims solve the whole stack
with one numpy ``eigh``, whose per-matrix cost at side 2 to 4 is a
fifth to a third of a separate LAPACK call's; numpy's LAPACK is safe
there because matrices that small never start a BLAS thread pool.  Larger
halves solve row by row with LAPACK's MRRR driver ``zheevr`` for the
lowest eigenvalue alone rather than a full ``eigh`` (about 3x cheaper
at 256 dims); a dense operator solves every such half-step that way.

On a structured operator, the half-steps whose free half has
``_KRYLOV_MIN_SIDE`` (128) dims or more are matrix-free
(``_Conditioned``): the weights c_k Re<w|L_k|w> and the products
M x = sum_k w_k R_k x + bridges go through the split rows' own
factors, O(d) to O(d^1.5) each, and the bridge atoms' closed forms.
Such a half-step first tries a capped Lanczos run (``_lanczos``) from
the previous iterate, which sits next to the answer.  Its pair is kept
only if its residual puts an eigenvalue within delta = 1e-9
(1 + |lambda|) of lambda and a carried gap bound proves that
eigenvalue the lowest: each row carries, per half, a proven lower
bound on lambda_2 of the matrix it last solved, seeded by ``zheevr``
and lowered at each later half-step by an upper bound on
||M - M_prev||_2 (Weyl's inequality), sum_k |w_k - w'_k| nu_k plus the
bridges' closed forms, O(r + d), with nu_k >= ||R_k||_2 fixed at
build.  Otherwise the dense conditioned matrix is built, and
``zheevr`` solves the half-step and reseeds the bound.  The 256-dim
state-lift probe certifies 158 of a restart's 160 half-steps, in 3
Lanczos steps each, and builds the dense matrix for the other 2.

Plain sweeps are alternating least squares, which crawls through flat
valleys: on Choi sigma, 19 of 64 restarts at seed 0 reached the
1,000-sweep cap still above the floor.  So on halves of up to
``_STACKED_EIGH_MAX_SIDE`` dims a row also takes a safeguarded line
extrapolation, the standard cure for such ALS swamps (Rajih, Comon &
Harshman, SIAM J. Matrix Anal. Appl. 30, 2008), at sweep
``_JUMP_FIRST`` and every ``_JUMP_EVERY`` sweeps after
(``_extrapolate``).  Along the last sweep's phase-aligned step, the best
of a geometric grid of points normalize(u + s du) (x)
normalize(v + s dv), s from 1/8 to about 4.2e6, replaces the row only
if its exact product value lies below the row's by more than
tol_converge (1 + |value|).  An accepted point is a feasible unit
product vector with a lower value, so the objective stays
non-increasing and the guard is unchanged; convergence is still one
plain sweep's drop, measured from the accepted point.  Larger halves
(the 16-dim lifted witness, the 256-dim state-lift probe) and operators
with bridge terms never take the step.

Also here: an epsilon-net oracle that cross-checks the see-saw (a net
over the smaller factor, an exact eigensolve on the other), and one
Moreau split of a witness over the PPT cone, W = Z + P + Q^Gamma with
P, Q PSD and Z in the negated PPT cone at the limit, computed by one
Anderson-accelerated fixed-point loop.  ``ppt_violation_search`` runs
it once and reads both outcomes: Z = 0 is a decomposition
W = P + Q^Gamma; a nonzero Z yields the PPT
state -Z / tr(-Z) with negative witness expectation, made exactly PSD
and PPT by mixing in just enough of the identity (closed form, no
second projection loop).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .operators import (
    DENSE_SIDE_CAP,
    DimensionError,
    HermitianOperator,
    ProductVector,
)
from .sampling import random_unit_vector, rng_for
from .structured import (
    DenseFactor,
    StructuredOperator,
    SwapKronFactor,
    _apply_plan,
    _term_key,
    _term_plan,
)

__all__ = [
    "DecompositionResult",
    "MinProdResult",
    "OptimizerConfig",
    "PPTSearchResult",
    "PPTViolation",
    "collect_zero_products",
    "decomposition_search",
    "grid_oracle_minprod",
    "max_product_expectation",
    "min_product_expectation",
    "ppt_violation_search",
    "spanning_rank",
]


# The work budget of one search: the largest restart count in use is
# 300, while a count of 10^9 kept the CLI running for more than 20 s.
_MAX_RESTARTS = 4096


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared knobs for the iterative searches.

    tol_converge is the relative objective change per sweep that counts
    as converged; tol_zero is the magnitude below which an expectation
    is treated as an exact zero (weak-optimality threshold).
    """

    restarts: int = 64
    seed: int = 0
    tol_converge: float = 1e-12
    tol_zero: float = 1e-7
    max_sweeps: int = 1000

    def __post_init__(self):
        for count in (self.restarts, self.max_sweeps):
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError("restarts and max_sweeps must be integers")
        if not 1 <= self.restarts <= _MAX_RESTARTS:
            raise ValueError(f"restarts must be between 1 and {_MAX_RESTARTS}")
        for tol in (self.tol_converge, self.tol_zero):
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError("tolerances must be positive and finite")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")


@dataclass(frozen=True)
class MinProdResult:
    """Best product-expectation value found and where it was attained.

    ``converged`` reports whether the winning restart met the sweep
    tolerance before hitting max_sweeps; a cap-limited restart is never
    silently promoted.  ``restarts_converged`` counts the restarts, of
    ``restarts_used``, that met it, and ``sweeps_max`` is the most
    sweeps any restart ran (``max_sweeps`` when one hit the cap).  For
    max_product_expectation the same container is returned with
    maximization semantics (value is the max, argmin holds the argmax).
    """

    value: float
    argmin: ProductVector
    converged: bool
    restarts_used: int
    restarts_converged: int
    sweeps_max: int


# ---------------------------------------------------------------------------
# the see-saw kernel: stacked split terms for dense and structured operators
# ---------------------------------------------------------------------------


_DGEMM = get_blas_funcs("gemm", dtype=np.float64)


class _SplitKernel:
    """Bipartite operator as sum_k c_k L_k (x) R_k plus bridge terms.

    The halves are Hermitian and held stacked: coefficients ``(r,)``,
    rows ``left`` ``(r, d_a**2)`` and ``right`` ``(r, d_b**2)``.
    ``cond_a``/``cond_b`` take one vector or a stack of ``n`` rows, one
    per see-saw restart, and build all ``n`` conditioned matrices at
    once: one GEMM gives the weights c_k Re<w|L_k|w> ``(r, n)`` from the
    stacked w w^H, and a second the weighted sums of the other half's
    rows, the ``(n, d, d)`` stack; one vector is the one-row case.  The
    matrices are not Hermitized again: real weights on Hermitian rows
    leave only the GEMM's rounding of mirrored entries (~1e-18 at 256
    dims), and the eigensolvers read one triangle.  Both GEMMs use
    scipy's BLAS, the library ``zheevr`` is linked against: numpy and
    scipy wheels bundle separate OpenBLAS builds, and alternating their
    thread pools every half-step made the 65,536-dim state-lift probe
    about 3x slower (about 20 s against 7 s) with two BLAS threads on
    two cores; the Krylov half-steps keep the same rule.  Bridge terms
    are whole-space atoms with a closed-form conditioned matrix
    (``add_bridge_cond``).  Split rows with equal halves merge at build
    (``_structured_split``).  Equal atoms merge into one term at build,
    and each adds itself into every row's M in place, the swap from the
    w w^H the weight GEMM already uses and the rank-one reversal
    through BLAS ``zgeru``, so no bridge allocates a d-by-d temporary.

    A structured kernel with a half of ``_KRYLOV_MIN_SIDE`` dims or more
    also keeps each split row's halves in matrix-free form
    (``_half_operator``): the ``_term_plan`` terms of its parts, over
    Hermitized factors, and its norm bound nu.  ``conditioned`` then
    hands the see-saw one ``_Conditioned`` per row for a free half of
    that size, the only half-steps that try Lanczos and carry a gap
    bound; the flattened rows serve the dense build that ``zheevr``
    needs.  This is the one place the side rule is decided: every other
    half-step, of a dense kernel at any side, is a dense stack.  Those
    products run the plans through ``structured._apply_plan``, not
    ``StructuredOperator.matvec``, which stays the whole-space product.
    ``_scale`` is the kernel's Frobenius scale of the rounding allowance
    (``_gap_slack``).
    """

    def __init__(self, X, dims=None):
        rows = None
        if isinstance(X, HermitianOperator):
            stacks = _dense_split(X, dims)
        elif isinstance(X, StructuredOperator):
            stacks, rows = _structured_split(X, dims)
        else:
            raise TypeError(f"unsupported operand type {type(X).__name__}")
        self.d_a, self.d_b, self._coeffs, self._left, self._right, self._bridges = stacks
        # matrix-free halves, keyed by the pinned half: the (plan, nu) of
        # each split row's pinned half, then of its free half
        self._free = None
        if rows is not None and max(self.d_a, self.d_b) >= _KRYLOV_MIN_SIDE:
            left = [_half_operator(parts) for parts, _ in rows]
            right = [_half_operator(parts) for _, parts in rows]
            self._free = {"A": (left, right), "B": (right, left)}
            # sum_k |c_k| ||L_k||_F ||R_k||_F + sum_b |c_b| bounds the
            # Frobenius norm of every conditioned matrix on a unit vector
            self._scale = float(
                np.abs(self._coeffs)
                @ (np.linalg.norm(self._left, axis=1) * np.linalg.norm(self._right, axis=1))
            ) + sum(abs(coeff) for coeff, _ in self._bridges)

    def conditioned(self, half, W):
        """The conditioned matrices of the rows of W ``(n, d)`` pinned in
        ``half`` ("A": <u|X|u>, "B": <v|X|v>): one ``_Conditioned`` per row
        when the kernel has matrix-free halves and the free half has
        ``_KRYLOV_MIN_SIDE`` dims or more, else the dense stack."""
        free_side = self.d_b if half == "A" else self.d_a
        if self._free is not None and free_side >= _KRYLOV_MIN_SIDE:
            return [_Conditioned(self, half, w) for w in W]
        return self.cond_a(W) if half == "A" else self.cond_b(W)

    def cond_a(self, u):
        """<u|X|u> on B: (d_b, d_b) for u of shape (d_a,), (n, d_b, d_b)
        for a stack (n, d_a)."""
        return self._conditioned(u, self._left, self._right, self.d_b)

    def cond_b(self, v):
        """<v|X|v> on A, shaped as in ``cond_a``."""
        return self._conditioned(v, self._right, self._left, self.d_a)

    def _conditioned(self, w, pinned, free, d):
        rows = w.reshape(-1, w.shape[-1])
        n = rows.shape[0]
        ww = rows[:, :, None] * rows.conj()[:, None, :]
        if self._coeffs.size:
            # Re<w|P|w> = sum over entries of Re(P) Re(w w^H) + Im(P) Im(w w^H),
            # a real product of the interleaved float views; the transposed
            # views are Fortran-ordered, so neither GEMM copies an operand
            proj = ww.view(np.float64).reshape(n, -1)
            weights = _DGEMM(1.0, pinned.view(np.float64).T, proj.T, trans_a=1)
            weights *= self._coeffs[:, None]
            M = _DGEMM(1.0, free.view(np.float64).T, weights).T
            M = M.view(np.complex128).reshape(n, d, d)
        else:  # bridge terms only; BLAS rejects an empty stack
            M = np.zeros((n, d, d), dtype=np.complex128)
        for coeff, factor in self._bridges:
            for i in range(n):
                factor.add_bridge_cond(M[i], coeff, rows[i], ww[i])
        return M if w.ndim == 2 else M[0]


class _Conditioned:
    """One see-saw row's conditioned matrix M(w), held matrix-free.

    With w pinned in one half, M(w) = sum_k w_k R_k + sum_b c_b B_b(w):
    ``weights`` w_k = Re<w|L_k|w> come from the split rows' pinned halves
    L_k and the products from their free halves R_k, both applied
    through the rows' own structured factors (``_apply_plan``), and each
    bridge atom adds its closed-form product.  Every L_k and R_k is
    built from Hermitized copies of the rows' dense blocks, so M(w) is
    Hermitian for any computed weights.  ``dense()`` builds the same
    matrix through ``cond_a``/``cond_b``; ``drift(prev)`` bounds
    ||M(w) - M(w')||_2 against the row's previous operator;
    ``allowance`` is the rounding allowance at this side (``_gap_slack``).
    """

    __slots__ = ("kernel", "half", "w", "weights", "shape")

    def __init__(self, kernel, half, w):
        pinned, _ = kernel._free[half]
        self.kernel, self.half, self.w = kernel, half, w
        self.weights = [
            _ZDOTC(w, _apply_plan(plan, w, np.zeros_like(w))).real for plan, _ in pinned
        ]
        side = kernel.d_b if half == "A" else kernel.d_a
        self.shape = (side, side)

    @property
    def allowance(self):
        return _gap_slack(self.shape[0]) * self.kernel._scale

    def matvec(self, x):
        _, free = self.kernel._free[self.half]
        out = np.zeros(self.shape[0], dtype=np.complex128)
        for (plan, _), weight in zip(free, self.weights):
            out = _apply_plan(plan, x, out, weight)
        for coeff, factor in self.kernel._bridges:
            out = factor.add_cond_matvec(out, coeff, self.w, x)
        return out

    def expectation(self, x):
        return float(_ZDOTC(x, self.matvec(x)).real)

    def drift(self, prev):
        """An upper bound on ||M(w) - M(w')||_2, w' = prev.w, in O(r + d):
        sum_k |w_k - w'_k| nu_k + sum_b |c_b| ||B_b(w) - B_b(w')||_2, by the
        triangle inequality, nu_k >= ||R_k||_2 and the atoms' closed
        forms (``cond_drift``).  A closed form reads dot products of unit
        d-vectors, so it can fall short of the exact value by a few d eps
        even where that value is near 0; each bridge adds 4 d eps |c_b|
        for that."""
        _, free = self.kernel._free[self.half]
        total = sum(abs(w - w0) * nu for w, w0, (_, nu) in zip(self.weights, prev.weights, free))
        rounding = 4.0 * self.shape[0] * _EPS
        for coeff, factor in self.kernel._bridges:
            total += abs(coeff) * (factor.cond_drift(self.w, prev.w) + rounding)
        return total

    def dense(self):
        return self.kernel.cond_a(self.w) if self.half == "A" else self.kernel.cond_b(self.w)


def _half_operator(parts):
    """The matrix-free form of one half of a split row, sum_j c_j (x)F_j:
    its ``_term_plan`` terms over Hermitized factors, and the norm bound
    nu = sum_j |c_j| prod ||F||_2 (``norm``: a singular value for a dense
    block, ||m||^2 for a ``SwapKronFactor``, 1 for a structural atom)."""
    plan, nu = [], 0.0
    for coeff, factors in parts.values():
        factors = [_hermitized(f) for f in factors]
        plan.append(_term_plan(coeff, factors))
        nu += abs(coeff) * math.prod(f.norm() for f in factors)
    return tuple(plan), nu


def _hermitized(factor):
    """``factor`` with its matrix replaced by the Hermitian part, which
    leaves an exactly Hermitian block bitwise unchanged."""
    if isinstance(factor, DenseFactor):
        m = factor.matrix
        return DenseFactor((m + m.conj().T) / 2.0)
    if isinstance(factor, SwapKronFactor):
        m = factor.block
        return SwapKronFactor((m + m.conj().T) / 2.0)
    return factor


def _hermitian_basis(d):
    """Orthonormal Hermitian basis of the d x d matrices, shape (d*d, d, d):
    E_aa, then (E_ac + E_ca)/sqrt2 and i(E_ac - E_ca)/sqrt2 for a < c."""
    E = np.eye(d * d, dtype=np.complex128).reshape(d * d, d, d)  # E[a*d + c] = E_ac
    a, c = np.triu_indices(d, 1)
    up, low, s = E[a * d + c], E[c * d + a], math.sqrt(0.5)
    return np.concatenate([E[:: d + 1], s * (up + low), 1j * s * (up - low)])


def _hermitian_row(factors, expected_dim):
    """Kronecker product of a half's factors, Hermitized and flattened."""
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f.dense())
    if out.shape[0] != expected_dim:
        raise DimensionError(
            f"half factors multiply to {out.shape[0]}, expected {expected_dim}"
        )
    return ((out + out.conj().T) / 2.0).reshape(-1)


def _dense_split(X, dims):
    """Hermitian operator-Schmidt split X = sum_k G_k (x) tr_A[(G_k (x) I) X],
    mirrored when B is smaller: {G_k} is the Hermitian basis of the
    smaller factor, so the stacks hold at most twice X's entries.  The
    contracted halves are Hermitian up to rounding, unseen by ``zheevr``."""
    if dims is not None:
        X = X.with_dims(dims)
    if len(X.dims) != 2:
        raise DimensionError(
            f"see-saw needs a bipartite operator, got dims {X.dims}; "
            "regroup with with_dims first"
        )
    d_a, d_b = X.dims
    tens = X.entries.reshape(d_a, d_b, d_a, d_b)
    if d_a <= d_b:
        left = _hermitian_basis(d_a)
        right = np.einsum("kca,abcd->kbd", left, tens, order="C")
    else:
        right = _hermitian_basis(d_b)
        left = np.einsum("kdb,abcd->kac", right, tens, order="C")
    r = left.shape[0]
    return d_a, d_b, np.ones(r), left.reshape(r, -1), right.reshape(r, -1), ()


def _structured_split(S, dims):
    """Stacks of a structured operator.  Every term's factor list must hit
    the bipartition boundary, except a whole-space factor that supplies
    ``bridge_cond`` on a balanced bipartition (a bridge term).

    Split rows with equal halves merge, halves compared by the keys of
    the matvec plan: rows with equal right halves first sum their left
    halves, then rows with equal single left halves sum their right
    halves.  The state lift's seven rows become four for any state.
    Returns the stacks and the rows, as (left parts, right parts) dicts
    of (coefficient, factors)."""
    total = S.total_dim
    if dims is None:
        root = math.isqrt(total)
        if root * root != total:
            raise DimensionError(
                "cannot infer a bipartition; pass dims=(d_left, d_right)"
            )
        dims = (root, root)
    d_a, d_b = dims
    if d_a * d_b != total:
        raise DimensionError(f"bipartition {dims} does not tile {total}")
    if max(d_a, d_b) > DENSE_SIDE_CAP:
        raise DimensionError(
            f"see-saw halves {dims} exceed dense cap {DENSE_SIDE_CAP}"
        )
    by_right, bridges = {}, {}
    for coeff, factors in S.terms:
        if (
            len(factors) == 1
            and factors[0].dim == total
            and d_a == d_b
            and hasattr(factors[0], "add_bridge_cond")
        ):
            # a bridge atom is fixed by its type and dim: equal atoms merge
            _add_part(bridges, coeff, factors[0], factors[0].key)
            continue
        left, right, cum = [], [], 1
        for f in factors:
            (left if cum < d_a else right).append(f)
            cum *= f.dim
            if len(right) == 0 and cum > d_a:
                raise DimensionError(
                    "a term factor straddles the see-saw bipartition"
                )
        lefts = by_right.setdefault(_term_key(right), (right, {}))[1]
        _add_part(lefts, coeff, left, _term_key(left))
    rows, by_left = [], {}
    for right, lefts in by_right.values():
        if len(lefts) == 1:
            ((coeff, left),) = lefts.values()
            rights = by_left.setdefault(_term_key(left), (left, {}))[1]
            _add_part(rights, coeff, right, _term_key(right))
        else:
            rows.append((lefts, {None: (1.0, right)}))
    rows += [({None: (1.0, left)}, rights) for left, rights in by_left.values()]
    # fill the stacks row by row so no second copy of the halves is held
    coeffs = np.empty(len(rows), dtype=np.float64)
    left = np.empty((len(rows), d_a * d_a), dtype=np.complex128)
    right = np.empty((len(rows), d_b * d_b), dtype=np.complex128)
    for k, (lefts, rights) in enumerate(rows):
        coeffs[k] = _fill_half(left[k], lefts, d_a) * _fill_half(right[k], rights, d_b)
    return (d_a, d_b, coeffs, left, right, tuple(bridges.values())), rows


def _add_part(parts, coeff, item, key):
    """parts[key] = (summed coefficient, item)."""
    parts[key] = (parts.get(key, (0.0,))[0] + coeff, item)


def _fill_half(out, parts, dim):
    """Write the Hermitian row of sum_j c_j (x)F_j into ``out`` and return
    the row's coefficient: a lone part keeps its own, a sum carries 1."""
    if len(parts) == 1:
        ((coeff, factors),) = parts.values()
        out[:] = _hermitian_row(factors, dim)
        return coeff
    out[:] = 0.0
    for coeff, factors in parts.values():
        out += coeff * _hermitian_row(factors, dim)
    return 1.0


# ---------------------------------------------------------------------------
# see-saw
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Restart:
    """One see-saw restart's end point; ``u`` and ``v`` are read-only, so
    the memo can serve a run to any number of callers."""

    value: float
    u: np.ndarray
    v: np.ndarray
    converged: bool
    index: int
    sweeps: int


_HEEVR = get_lapack_funcs("heevr", dtype=np.complex128)


_ZNRM2, _ZDOTC = get_blas_funcs(("nrm2", "dotc"), dtype=np.complex128)
_EPS = np.finfo(np.float64).eps

# Free halves of a structured kernel from this side up are matrix-free
# and try the warm-started Krylov solve first (``_SplitKernel``).  One
# BLAS thread, best of 20, from a start 1e-2 off the ground vector: on the
# 256-dim state-lift probe a certified try costs 0.21 ms against 8.2 ms
# for the dense build and a two-pair zheevr.  The cap of 20 steps keeps a
# failed try below that build and zheevr on the random (2,128)/(2,256)
# split rows of four dense terms, 1.1/4.4 ms against 1.3/8.5 ms; at side
# 64 it would cost 0.80 against 0.26 ms.
_KRYLOV_MIN_SIDE = 128
_KRYLOV_MAX_STEPS = 20


def _lanczos(matvec, q):
    """Three-term Lanczos recurrence of a Hermitian ``matvec`` from the
    unit vector q, holding only q, the previous q and w = matvec(q).

    Step k yields ``(alphas, betas, beta, q)``: T_k's diagonal and
    off-diagonal (lists grown in place), the residual norm beta_k and
    the k-th Lanczos vector q, never written again; a Ritz pair
    (theta, Q_k s) of T_k has residual beta_k |s_k|.  Ends at beta_k = 0.
    """
    alphas, betas = [], []
    w = matvec(q)
    while True:
        alpha = float(np.vdot(q, w).real)
        alphas.append(alpha)
        w -= alpha * q
        beta = float(np.linalg.norm(w))
        yield alphas, betas, beta, q
        if beta == 0.0:
            return
        betas.append(beta)
        w /= beta
        q_prev, q = q, w
        w = matvec(q)
        w -= beta * q_prev


def _gap_slack(n):
    """Rounding allowance of the carried gap bound at side n, relative to
    a Frobenius scale: 4 n^2 eps (5.8e-11 at n = 256).

    The scale is the kernel's sigma = sum_k |c_k| ||L_k||_F ||R_k||_F +
    sum_b |c_b|, fixed at build (``_Conditioned.allowance``).  It bounds
    ||M||_F on every unit pinned vector (|w_k| <= |c_k| ||L_k||_2, and a
    conditioned bridge has Frobenius norm at most |c_b|).  The allowance
    covers zheevr's backward error in lambda_2, and the gap between the
    Hermitian part (D + D^H) / 2 of the dense D that zheevr solves at a
    reseed and the upper triangle that it reads: at most ||D - D^H||_F
    / 2, which the kernel's GEMMs keep near 3e-18 ||D||_F on the 256-dim
    probe (measured).  It also covers the gap between D and the
    Hermitian M~ that the matrix-free product applies.  A weight,
    computed through either path, is a sum of at most 2 n^2 products
    and lies within 2 n^2 eps |c_k| ||L_k||_F of the exact one
    (Cauchy-Schwarz on the entries); each entry of D adds r + 2
    rounding steps; so ||D - M~||_2 <= ||D - M~||_F <= (2 n^2 + r + 2)
    eps sigma to first order.  Last, it covers the rounding of the
    product in the residual test, at most n steps an entry."""
    return 4.0 * n * n * _EPS


class _GapBound:
    """What a see-saw row carries from one half-step of a half to the next.

    ``floor`` is a proven lower bound on lambda_2 of ``prev``, the
    matrix-free ``_Conditioned`` the row solved last (-inf before the
    first solve), which holds only its weights and pinned vector,
    O(r + d) numbers in place of a d-by-d matrix.  It is held, not
    copied: the caller must not change it afterwards.
    """

    __slots__ = ("prev", "floor")

    def __init__(self):
        self.prev = None
        self.floor = -math.inf


_STEV = get_lapack_funcs("stev", dtype=np.float64)


def _tridiagonal_ground(alphas, betas):
    """Lowest eigenvalue and unit eigenvector of the symmetric
    tridiagonal with diagonal ``alphas`` and off-diagonal ``betas``, by
    LAPACK ``stev`` (ascending order); size 1 is its own answer, since
    ``stev`` rejects an empty off-diagonal."""
    if len(alphas) == 1:
        return alphas[0], np.ones(1)
    vals, vecs, info = _STEV(np.array(alphas), np.array(betas))
    if info != 0:
        raise np.linalg.LinAlgError(f"stev failed (info={info})")
    return float(vals[0]), vecs[:, 0]


def _krylov_ground_pair(M, start, floor):
    """Ground pair of the matrix-free ``_Conditioned`` M by Lanczos from
    ``start``, or None if uncertified.

    Up to ``_KRYLOV_MAX_STEPS`` Lanczos steps on ``M.matvec`` run until
    the lowest Ritz pair's residual estimate is at most delta (else
    None); the step's tridiagonal is solved by ``_tridiagonal_ground``.
    An answer (lam, x), with lam the Rayleigh quotient of the unit Ritz
    vector x, is returned only if ||Mx - lam x|| <= delta, with delta =
    1e-9 (1 + |lam|) the see-saw's own monotonicity slack, and lam +
    delta lies below ``floor`` less the rounding allowance
    (``M.allowance``).  The residual puts an eigenvalue within delta of
    lam; ``floor`` is a proven lower bound on lambda_2 of M, so that
    eigenvalue is lambda_1, and x lies within angle delta / (floor -
    lam) of the ground vector.  No reorthogonalization is needed for an
    extreme pair (Paige, Linear Algebra Appl. 34, 1980), and the final
    residual is measured, not estimated.  An excited pair that Lanczos
    reached from a start with no ground-state component lies at or above
    lambda_2 and fails the test, and so does any pair of a degenerate
    ground space.
    """
    limit = floor - M.allowance
    basis = []
    steps = _lanczos(M.matvec, start / _ZNRM2(start))
    for alphas, betas, beta, q in itertools.islice(steps, _KRYLOV_MAX_STEPS):
        basis.append(q)
        val, vec = _tridiagonal_ground(alphas, betas)
        if beta * abs(vec[-1]) <= 1e-9 * (1.0 + abs(val)):
            break
    else:
        return None
    y = vec @ np.array(basis)
    y /= _ZNRM2(y)
    Ay = M.matvec(y)
    lam = float(_ZDOTC(y, Ay).real)
    delta = 1e-9 * (1.0 + abs(lam))
    if _ZNRM2(Ay - lam * y) > delta or lam + delta >= limit:
        return None
    return lam, y


def _lowest_pairs(M, count):
    """The ``count`` lowest eigenvalues and unit eigenvectors (as columns)
    of the Hermitian matrix held in M's upper triangle, by LAPACK
    ``zheevr``."""
    vals, vecs, _, _, info = _HEEVR(M, range="I", il=1, iu=count)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevr failed (info={info})")
    return vals, vecs


def _ground_pair(M, start=None, bound=None):
    """Lowest eigenvalue and a unit eigenvector of a complex Hermitian M:
    a dense array (only its upper triangle is read) without a ``bound``,
    else a matrix-free ``_Conditioned``.

    The see-saw calls it row by row for halves larger than
    ``_STACKED_EIGH_MAX_SIDE``; smaller ones are solved as a stack by
    ``_ground_pairs``.  A dense M is solved by LAPACK ``zheevr``; the raw
    LAPACK call, not ``scipy.linalg.eigh``, keeps the per-call overhead
    low.

    A ``_Conditioned`` comes with its row's ``_GapBound`` for this half,
    and ``start`` the vector the solve replaces.  The bound's floor first
    drops by (1 + ``_gap_slack``) times ``M.drift(prev)``, an upper bound
    on ||M - prev||_2 in O(r + d) work: the two matrices are sum_k w_k
    R_k + sum_b c_b B_b(w) at two weight vectors and two pinned vectors,
    so by the triangle inequality ||M - prev||_2 <= sum_k |w_k - w'_k|
    ||R_k||_2 + sum_b |c_b| ||B_b(w) - B_b(w')||_2, each ||R_k||_2 is at
    most its row's nu_k (the triangle inequality again, with
    ||A (x) B|| = ||A|| ||B||), and each bridge term has a closed form;
    the (1 + ``_gap_slack``) factor covers the relative rounding of the
    bound and of the nu_k, whose singular values are within a few
    side-many ulps of the exact ones.  By Weyl's inequality the floor
    still bounds lambda_2 of M.  A capped Lanczos run is then kept if
    ``_krylov_ground_pair`` certifies it by that floor, the only
    certificate.  Otherwise, and on a bound's first solve, M builds its
    dense matrix for this solve alone, and ``zheevr`` computes lambda_1
    and lambda_2 and reseeds the floor at lambda_2 less the rounding
    allowance, so a spent floor is renewed at the next failed test.  M is
    kept as the bound's new ``prev``.
    """
    if bound is None:
        vals, vecs = _lowest_pairs(M, 1)
        return float(vals[0]), vecs[:, 0]
    prev, bound.prev = bound.prev, M
    if prev is not None:
        bound.floor -= (1.0 + _gap_slack(M.shape[0])) * M.drift(prev)
        pair = _krylov_ground_pair(M, start, bound.floor)
        if pair is not None:
            return pair
    vals, vecs = _lowest_pairs(M.dense(), 2)
    bound.floor = float(vals[1]) - M.allowance
    return float(vals[0]), vecs[:, 0]


# Halves up to this side solve a whole stack of half-steps with one numpy
# ``eigh``.  Per matrix of a 64-matrix stack (one BLAS thread, timeit
# minimum) it costs 1.8/3.4/3.4/12.2 us at side 2/3/4/8 against
# 9.3/10.6/9.4/13.8 us for looping ``_ground_pair``, but 39 against 25 us
# at 12 and 59 against 34 us at 16, so the witness lift's 16-dim halves
# stay on zheevr.
_STACKED_EIGH_MAX_SIDE = 8
# complex entries of one conditioned-matrix stack (1 MB), as the grid
# oracle bounds its blocks; at 256 dims a chunk is one row, so the
# state-lift probe still runs one restart at a time
_STACK_ENTRIES = 1 << 16


def _ground_pairs(M, starts, bounds):
    """Ground pairs of a stack M ``(n, d, d)``: values ``(n,)`` and unit
    vectors as rows ``(n, d)``.  Only upper triangles are read.

    Sides up to ``_STACKED_EIGH_MAX_SIDE`` take one stacked numpy
    ``eigh(..., UPLO="U")``, which reads the same triangle as
    ``zheevr``.  numpy's LAPACK is safe from the thread-pool
    alternation described at ``_SplitKernel``: matrices this small never
    start a BLAS thread pool.  With the default two BLAS threads on two
    cores, the tasks of a ``seesaw-small`` pass took 1.1 s, against
    4.2 to 4.6 s for the per-restart loop this replaced.  Larger sides
    solve row by row with ``zheevr`` (``_ground_pair``).

    M may also be a list of matrix-free ``_Conditioned``, one a row
    (``_SplitKernel.conditioned``); only then does each row's solve
    start from its row of ``starts`` and carry its row's ``_GapBound``
    of ``bounds``.
    """
    free = isinstance(M, list)
    if not free and M.shape[-1] <= _STACKED_EIGH_MAX_SIDE:
        vals, vecs = np.linalg.eigh(M, UPLO="U")
        return vals[:, 0], vecs[:, :, 0]
    lams = np.empty(len(M))
    vecs = np.empty_like(starts)
    for i, m in enumerate(M):
        lams[i], vecs[i] = _ground_pair(m, starts[i], bounds[i]) if free else _ground_pair(m)
    return lams, vecs


# start tables kept by ``_start_table``; a pass of the paper's workflow
# (``witness_from_separable`` then ``classify``) repeats a handful of
# (seed, dims, chunk) keys
_START_TABLES = 16


@functools.lru_cache(maxsize=_START_TABLES)
def _start_table(seed, d_a, d_b, lo, hi):
    """Read-only see-saw starts of restarts ``lo..hi-1``, shape
    ``(hi - lo, d_a + d_b)``: row ``k - lo`` holds u, then v, as drawn
    from ``rng_for(seed, k)``.  A table is the size of the ``U``/``V``
    stack of the chunk it starts, and callers copy its rows."""
    table = np.empty((hi - lo, d_a + d_b), dtype=np.complex128)
    for row, k in zip(table, range(lo, hi)):
        rng = rng_for(seed, k)
        row[:d_a] = random_unit_vector(rng, d_a)
        row[d_a:] = random_unit_vector(rng, d_b)
    table.flags.writeable = False
    return table


# Line extrapolation of see-saw rows on halves up to _STACKED_EIGH_MAX_SIDE
# (``_extrapolate``).  The steps s of the grid, 64 points geometric from
# 1/8 to 2^22 (about 4.2e6).  Accepted steps on Choi sigma (64 restarts,
# seeds 0, 1, 7: 478 jumps) have median 1.1 and reach 5.7e3; on 40
# separable (2,2) and (2,3) draws like the benchmark's window tasks
# (8,518 jumps) the median is 0.5, with a tenth at the floor 1/8.  On 60
# such draws a grid of 32 points ran 7% more row-sweeps, one of 128
# points 4% fewer; scoring costs nearly the same for any grid size.
_JUMP_STEPS = np.geomspace(0.125, 2.0**22, 64)
# Sweeps (1-based) that end with a jump: _JUMP_FIRST, then every
# _JUMP_EVERY.  Choi sigma at seeds 0, 1, 7 converges in at most 17-18
# sweeps; a jump every sweep needs 272-692, since the sweep right after
# a jump is a correction, not a direction, and a first jump at 12, then
# every 6, needs 26.  Against later schedules, jumps from sweep 4 cut
# the benchmark's window see-saws, most of which converge within 10-20
# plain sweeps, by more sweeps than the jumps cost (a jump on 32 rows
# costs one to one and a half sweeps).
_JUMP_FIRST = 4
_JUMP_EVERY = 3
# weights of the 16 coefficients of a line's value at each step of the
# grid, shape (16, S): a form over (w, dw) weighs its four entries by
# t_i t_j with t = (1, s), and a value multiplies one form of each half
_JUMP_POWERS = np.einsum(
    "is,js,ks,ls->ijkls", *[np.stack([np.ones_like(_JUMP_STEPS), _JUMP_STEPS])] * 4
).reshape(16, _JUMP_STEPS.size)


def _product_values(kernel, U, V):
    """<u,v|X|u,v> for each row of the stacks U ``(n, d_a)``, V ``(n, d_b)``."""
    return np.einsum("ni,nij,nj->n", V.conj(), kernel.cond_a(U), V).real


def _line_forms(pinned, W, W0):
    """The row pairs y = (w, dw) of a line extrapolation, with w phase-
    aligned to w0 (an eigensolver returns each vector up to a phase) and
    dw = w - w0, and their quadratic forms: ``forms`` ``(n, 4, r)`` holds
    Re<y_i|H_k|y_j> for each Hermitian row H_k of ``pinned``
    ``(r, d*d)``, ``gram`` ``(n, 4)`` holds Re<y_i|y_j>, (i, j) in C
    order.  The stacked outer products y_i y_j^H hold 4 n d^2 entries."""
    n = W.shape[0]
    overlap = np.einsum("ni,ni->n", W0.conj(), W)
    size = np.abs(overlap)
    phase = np.divide(overlap.conj(), size, out=np.ones_like(overlap), where=size > 0)
    W = W * phase[:, None]
    Y = np.stack((W, W - W0), axis=1)
    P = Y[:, :, None, :, None] * Y.conj()[:, None, :, None, :]
    proj = P.view(np.float64).reshape(4 * n, -1)
    forms = _DGEMM(1.0, proj, pinned.view(np.float64), trans_b=1)
    gram = np.einsum("nijpp->nij", P).real.reshape(n, 4)
    return Y, forms.reshape(n, 4, -1), gram


def _extrapolate(kernel, U0, V0, U, V, value, tol):
    """One safeguarded line extrapolation of every row of a stack.

    With u and v phase-aligned to the sweep's starts u0 and v0, and
    du = u - u0, dv = v - v0, a row's candidates are
    normalize(u + s du) (x) normalize(v + s dv) for s in
    ``_JUMP_STEPS``.  On the split X = sum_k c_k L_k (x) R_k a
    candidate's value is sum_k c_k N_k(s) M_k(s) / (|u + s du|^2
    |v + s dv|^2), N_k and M_k quadratic in s with coefficients from
    ``_line_forms``, so one GEMM per half and one product of (n, 16)
    coefficients with ``_JUMP_POWERS`` score the whole grid.  The best
    candidate's exact value is then taken through the kernel, and the
    row moves there only if that value lies below the row's by more than
    tol (1 + |value|).  Returns (U, V, value); rows run in chunks whose
    outer-product stacks stay within ``_STACK_ENTRIES`` entries.
    """
    U, V, value = U.copy(), V.copy(), value.copy()
    chunk = max(1, _STACK_ENTRIES // (4 * max(kernel.d_a, kernel.d_b) ** 2))
    for lo in range(0, value.size, chunk):
        rows = slice(lo, lo + chunk)
        Yu, forms_u, gram_u = _line_forms(kernel._left, U[rows], U0[rows])
        Yv, forms_v, gram_v = _line_forms(kernel._right, V[rows], V0[rows])
        n = len(Yu)
        coeffs = np.matmul(forms_u * kernel._coeffs, forms_v.transpose(0, 2, 1))
        norms = gram_u[:, :, None] * gram_v[:, None, :]
        scores = (coeffs.reshape(n, 16) @ _JUMP_POWERS) / (norms.reshape(n, 16) @ _JUMP_POWERS)
        s = _JUMP_STEPS[scores.argmin(axis=1)][:, None]
        cand_u = Yu[:, 0] + s * Yu[:, 1]
        cand_v = Yv[:, 0] + s * Yv[:, 1]
        cand_u /= np.linalg.norm(cand_u, axis=1, keepdims=True)
        cand_v /= np.linalg.norm(cand_v, axis=1, keepdims=True)
        exact = _product_values(kernel, cand_u, cand_v)
        here = value[rows]
        take = exact < here - tol * (1.0 + np.abs(here))
        U[rows][take], V[rows][take], here[take] = cand_u[take], cand_v[take], exact[take]
    return U, V, value


def _seesaw_rows(kernel, cfg, lo, starts):
    """Restarts ``lo..lo+len(starts)-1`` as one stack of rows, a row per
    restart, started from the rows of ``starts`` (u, then v, as in
    ``_start_table``).

    Each half-step solves every active row at once.  A row keeps its
    own checks: the monotonicity guard, the sweep tolerance and the
    ``max_sweeps`` cap; it leaves the stack once it converges.  When
    the kernel has matrix-free halves (``_SplitKernel``), a row carries
    one ``_GapBound`` per half; a half whose conditioned matrices come
    as a dense stack never reads its own.

    When both halves have at most ``_STACKED_EIGH_MAX_SIDE`` dims and the
    kernel has no bridge terms, the rows still active after the
    convergence test of sweep ``_JUMP_FIRST``, and of every
    ``_JUMP_EVERY``-th sweep after, take one ``_extrapolate`` step along
    their last sweep's step.  A row moves only to a point whose exact
    product value, taken through the kernel, lies below its own by more
    than tol_converge (1 + |value|); that value becomes the row's value
    and the start of the next sweep's drop.  So the guard still holds
    every half-step to the last value, and a row converges only on a
    plain sweep that moves it by at most the tolerance.
    """
    idx = np.arange(lo, lo + len(starts))
    U = starts[:, : kernel.d_a].copy()
    V = starts[:, kernel.d_a :].copy()
    M = kernel.conditioned("A", U)  # also the first A half-step's
    if isinstance(M, np.ndarray):
        value = np.einsum("ni,nij,nj->n", V.conj(), M, V).real
    else:
        value = np.array([m.expectation(v) for m, v in zip(M, V)])
    bounds = np.empty((idx.size, 2), dtype=object)  # None: no bound
    if kernel._free is not None:
        bounds.flat = [_GapBound() for _ in range(bounds.size)]
    # bridge terms have no split halves to score a line with
    jumps = max(kernel.d_a, kernel.d_b) <= _STACKED_EIGH_MAX_SIDE and not kernel._bridges
    prev_sweep = value
    runs = []
    for sweep in range(1, cfg.max_sweeps + 1):
        jump = jumps and sweep >= _JUMP_FIRST and (sweep - _JUMP_FIRST) % _JUMP_EVERY == 0
        U0, V0 = U, V  # half-steps replace U and V, never write into them
        for half in ("A", "B"):
            # each solve starts from the vector it replaces
            if half == "A":
                if sweep > 1:
                    M = kernel.conditioned("A", U)
                lam, V = _ground_pairs(M, V, bounds[:, 0])
            else:
                lam, U = _ground_pairs(kernel.conditioned("B", V), U, bounds[:, 1])
            if np.any(lam > value + 1e-9 * (1.0 + np.abs(value))):
                raise RuntimeError(
                    "see-saw objective increased; conditioned matrix is inconsistent"
                )
            value = lam
        done = np.abs(prev_sweep - value) <= cfg.tol_converge * (1.0 + np.abs(value))
        if done.any():
            # the runs view rows of these stacks, which no later step writes
            U.flags.writeable = V.flags.writeable = False
            runs += [
                _Restart(float(value[i]), U[i], V[i], True, int(idx[i]), sweep)
                for i in np.flatnonzero(done)
            ]
            active = ~done
            U, V, value, idx = U[active], V[active], value[active], idx[active]
            U0, V0, bounds = U0[active], V0[active], bounds[active]
            if not idx.size:
                break
        if jump:
            U, V, value = _extrapolate(kernel, U0, V0, U, V, value, cfg.tol_converge)
        prev_sweep = value
    U.flags.writeable = V.flags.writeable = False
    runs += [
        _Restart(float(value[i]), U[i], V[i], False, int(idx[i]), cfg.max_sweeps)
        for i in range(idx.size)
    ]
    return runs


# Cold see-saw results of dense operators, oldest first: key ->
# (real diagonal, runs).  A key holds the bipartition, the config and
# the entries with the real diagonal zeroed (``_memo_key``), so X and
# every X - cI share one; the paper's workflow (witness_from_separable
# then classify, at two shifts) runs four see-saws on one such key.  It
# keeps _START_TABLES entries, each of an operator whose entries and
# runs' vectors hold at most _STACK_ENTRIES complex numbers (1 MB).
_SEESAW_MEMO = collections.OrderedDict()


def _memo_key(X, cfg, dims):
    """``_SEESAW_MEMO`` key of a dense X, and X's real diagonal."""
    off = X.entries + 0.0  # a copy, in which a shift's -0.0 reads as 0.0
    diag = off.diagonal().real.copy()
    np.fill_diagonal(off.real, 0.0)
    return (X.dims, None if dims is None else tuple(dims), cfg, off.tobytes()), diag


def _is_identity_shift(diag, stored):
    """Whether diag - stored is one constant up to the rounding of a
    shift.  With m the largest |entry| of either diagonal, each entry
    fl(a - c) of a shift rounds by at most eps m / 2 and each difference
    by at most eps m, so the differences of a shift spread by at most
    3 eps m."""
    step = diag - stored
    scale = max(np.abs(diag).max(), np.abs(stored).max())
    return step.max() - step.min() <= 4.0 * _EPS * scale


def _seesaw_all(X, cfg, dims=None):
    """Every restart of ``cfg``, in index order.  Rows run in chunks that
    keep a conditioned-matrix stack near ``_STACK_ENTRIES`` entries.

    A dense X whose entries and runs' vectors fit in ``_STACK_ENTRIES``
    complex numbers first looks up ``_SEESAW_MEMO``.  An entry with the
    same diagonal is the same search, so its runs are returned.  An
    entry whose diagonal differs by a constant (``_is_identity_shift``)
    holds the end points of a landscape that differs from X's by that
    constant: restart k then starts from the stored run k's (u, v)
    instead of its seeded draw and runs the unchanged see-saw on X, so
    the values, convergence flags and sweep counts are X's own (a
    converged start usually converges in one sweep).  Only cold results
    are stored.
    """
    key = starts = None
    if (
        isinstance(X, HermitianOperator)
        and X.entries.size + cfg.restarts * (X.side + 1) <= _STACK_ENTRIES
    ):
        key, diag = _memo_key(X, cfg, dims)
        entry = _SEESAW_MEMO.get(key)
        if entry is not None:
            _SEESAW_MEMO.move_to_end(key)
            stored, stored_runs = entry
            if np.array_equal(diag, stored):
                return stored_runs
            if _is_identity_shift(diag, stored):
                starts = np.array([np.concatenate((run.u, run.v)) for run in stored_runs])
    kernel = _SplitKernel(X, dims)
    chunk = max(1, _STACK_ENTRIES // max(kernel.d_a, kernel.d_b) ** 2)
    runs = []
    for lo in range(0, cfg.restarts, chunk):
        hi = min(lo + chunk, cfg.restarts)
        if starts is None:
            table = _start_table(cfg.seed, kernel.d_a, kernel.d_b, lo, hi)
        else:
            table = starts[lo:hi]
        runs += _seesaw_rows(kernel, cfg, lo, table)
    runs.sort(key=lambda r: r.index)
    if key is not None and starts is None:
        _SEESAW_MEMO[key] = (diag, runs)
        if len(_SEESAW_MEMO) > _START_TABLES:
            _SEESAW_MEMO.popitem(last=False)
    return runs


def min_product_expectation(X, cfg=None, dims=None):
    """Infimum of <u,v|X|u,v> over unit product vectors, via see-saw.

    X may be a bipartite ``HermitianOperator`` or a ``StructuredOperator``
    whose terms split across the bipartition (pass ``dims`` to override
    the inferred split).  Restart k draws its start from a generator
    seeded with (cfg.seed, k); results merge by minimum value with ties
    going to the lowest restart index, so runs are reproducible.  The
    starts are drawn once per (seed, dims, chunk) into a read-only table
    that later calls reuse (``_start_table``); the stream contract, and
    so every result, is the same as drawing them afresh.

    A small dense X also meets the memo of recent cold searches
    (``_seesaw_all``).  A repeated call (same entries, dims and cfg) is
    served from it and is bitwise what a cold call returns.  A call on
    X - cI after one on X starts each restart from the other search's
    end point, not its seeded draw: on unit product vectors the two
    landscapes differ by the constant c, so value and argmin may differ
    from a cold call only in the last bits, while ``sweeps_max`` counts
    the (usually one or two) sweeps this search ran.
    """
    cfg = cfg or OptimizerConfig()
    runs = _seesaw_all(X, cfg, dims)
    best = min(runs, key=lambda r: (r.value, r.index))
    return MinProdResult(
        value=best.value,
        argmin=ProductVector(best.u, best.v),
        converged=best.converged,
        restarts_used=cfg.restarts,
        restarts_converged=sum(run.converged for run in runs),
        sweeps_max=max(run.sweeps for run in runs),
    )


def max_product_expectation(X, cfg=None, dims=None):
    """sup <u,v|X|u,v>, computed as -min over the negated operator."""
    cfg = cfg or OptimizerConfig()
    res = min_product_expectation(-X, cfg, dims)
    return replace(res, value=-res.value)


def collect_zero_products(X, cfg=None, dims=None):
    """Distinct product vectors where the expectation of X vanishes.

    Runs every see-saw restart, keeps converged runs with |value| <=
    cfg.tol_zero, and deduplicates by product-vector overlap (two hits
    count as one when |<u,v|u',v'>| >= 1 - 1e-6).
    """
    cfg = cfg or OptimizerConfig()
    kept = []
    for run in _seesaw_all(X, cfg, dims):
        if not run.converged or abs(run.value) > cfg.tol_zero:
            continue
        pv = ProductVector(run.u, run.v)
        if all(pv.overlap(other) < 1.0 - 1e-6 for other in kept):
            kept.append(pv)
    return kept


def spanning_rank(products, dims):
    """Numerical rank of the span of the product kets |u>|v>."""
    if not products:
        return 0
    rows = np.array([pv.kron() for pv in products])
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.count_nonzero(s > 1e-8 * s[0]))


# ---------------------------------------------------------------------------
# epsilon-net oracle (independent cross-check of the see-saw)
# ---------------------------------------------------------------------------


# largest net the oracle enumerates: (3,3) at resolution 32 still fits,
# (3,3) at resolution 64 (16.7M points) fails fast instead of running
# for minutes
_NET_POINT_CAP = 1 << 20


def _sphere_net_rows(d, resolution, lo, hi):
    """Rows lo..hi-1 of the net of unit vectors of C^d up to global phase,
    shape (hi - lo, d); the whole net has resolution**(2d-2) rows.

    d-1 polar angles on [0, pi/2] give the nested amplitudes
    cos t1, sin t1 cos t2, ..., sin t1 ... sin t_{d-1}; every amplitude
    but the first carries a phase from resolution points on [0, 2 pi).
    Row i is the grid point whose angle indices are the C-order digits
    of i, so the rows are built from flat indices and no meshgrid or
    whole net is held.
    """
    theta = np.linspace(0.0, np.pi / 2.0, resolution)
    phi = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    flat, digits = np.arange(lo, hi), []
    for _ in range(2 * d - 2):
        flat, digit = np.divmod(flat, resolution)
        digits.insert(0, digit)
    amps, s = [], np.ones(hi - lo)
    for i in digits[: d - 1]:
        t = theta[i]
        amps.append(s * np.cos(t))
        s = s * np.sin(t)
    amps.append(s)
    phased = [a * np.exp(1j * phi[i]) for a, i in zip(amps[1:], digits[d - 1 :])]
    return np.stack([amps[0].astype(np.complex128), *phased], axis=1)


def grid_oracle_minprod(X, resolution=64):
    """Product-expectation minimum over an epsilon-net of the smaller factor.

    Works for any bipartite dims.  The net (``_sphere_net_rows``) covers
    the smaller factor with resolution**(2(d-1)) points, built one chunk
    at a time; at each point u the other side is solved exactly as the
    lowest eigenvalue of the conditioned matrix <u|X|u>.  Every value is
    attained at a feasible product vector, so the result is an upper
    bound on the product infimum whose excess shrinks as
    O(1/resolution); resolutions of 64 and up make it a trustworthy
    cross-check.  It shares no Python code with the see-saw (a dense
    einsum and ``eigvalsh`` over a fixed net against split GEMMs and
    alternating ground-pair solves); both end in LAPACK's Hermitian
    eigensolvers.  A net above ``_NET_POINT_CAP`` points, such as (3,3)
    at resolution 64, raises ``DimensionError``.
    """
    if len(X.dims) != 2:
        raise DimensionError(f"grid oracle needs a bipartite operator, got dims {X.dims}")
    resolution = int(resolution)
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    d_a, d_b = X.dims
    tens = X.entries.reshape(d_a, d_b, d_a, d_b)
    if d_a > d_b:
        d_a, d_b, tens = d_b, d_a, tens.transpose(1, 0, 3, 2)
    points = resolution ** (2 * (d_a - 1))
    if points > _NET_POINT_CAP:
        raise DimensionError(
            f"a resolution-{resolution} net on C^{d_a} has {points} points, "
            f"above the cap of {_NET_POINT_CAP}; lower the resolution"
        )
    best = np.inf
    chunk = max(1, 2**20 // (d_b * d_b))  # keep conditioned blocks ~16 MB
    for lo in range(0, points, chunk):
        u = _sphere_net_rows(d_a, resolution, lo, min(lo + chunk, points))
        M = np.einsum("ai,ijkl,ak->ajl", u.conj(), tens, u, optimize=True)
        best = min(best, float(np.linalg.eigvalsh(M)[:, 0].min()))
    return best


# ---------------------------------------------------------------------------
# the PPT cone: one Moreau split answers both W = P + Q^Gamma and the
# PPT-violation search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionResult:
    """P, Q PSD with W = Z + P + Q^Gamma; ``residual`` is ||Z||_F and
    ``iterations`` the split iterations run."""

    P: object
    Q: object
    residual: float
    success: bool
    iterations: int


@dataclass(frozen=True)
class PPTViolation:
    """A PPT state with negative witness expectation.

    The state is a certificate of non-decomposability (and of bound
    entanglement of the state itself); absence of one proves nothing.
    """

    state: HermitianOperator
    value: float


@dataclass(frozen=True)
class PPTSearchResult:
    """``decomposition`` is the one split the search ran, ``violation``
    the PPT state read from it if certified, and ``best_value`` tr(W rho)
    at that state (0.0 when -Z has no positive trace, lambda_min(W)
    when W is PSD, the proven floor -||Z||_F when the split decomposed);
    ``converged`` means a verdict was reached, a decomposition or a
    certified violation; ``starts_used`` is 1, or 0 on PSD input."""

    violation: object  # PPTViolation | None
    best_value: float
    converged: bool
    starts_used: int
    decomposition: DecompositionResult


def _pt2(arr, dims):
    d_a, d_b = dims
    return (
        arr.reshape(d_a, d_b, d_a, d_b)
        .swapaxes(1, 3)
        .reshape(d_a * d_b, d_a * d_b)
    )


def _psd_clip(arr):
    vals, vecs = np.linalg.eigh((arr + arr.conj().T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.conj().T


# split iterations (evaluations of the map g) before a split stops
# inconclusive
_SPLIT_MAX_ITERS = 20000
# differences of g(q) - q that the Anderson step extrapolates from
_ANDERSON_MEMORY = 5
# acceptance bound D f0 n^-(1 + eps) of the n-th extrapolated input
_SAFEGUARD_D = 1e6
_SAFEGUARD_EPS = 1e-6


def decomposition_search(W, residual_tol=1e-7):
    """Moreau split W = Z + P + Q^Gamma over the PPT cone.

    The split is a fixed point of the map q -> g(q) with
    p = clip(W - q), g(q) = (clip((W - p)^Gamma))^Gamma and
    Z = W - p - g(q), clip being the PSD part.  Iterating g plainly is
    Dykstra's projection of W onto the negated PPT cone
    {Z : Z <= 0, Z^Gamma <= 0}; at its limit Z is the projection, so
    Z = 0 exactly when W is decomposable (Moreau, C. R. Acad. Sci.
    Paris 255, 1962), and a nonzero Z gives the PPT violation read off
    by ``ppt_violation_search``.  The loop accelerates it with type-II
    Anderson extrapolation (Walker & Ni, SIAM J. Numer. Anal. 49, 2011):
    the next input q is g(q) corrected by the least-squares combination
    of the last ``_ANDERSON_MEMORY`` differences of g(q) - q.  The
    safeguard is that of Zhang, O'Donoghue & Boyd (SIAM J. Optim. 30,
    2020) with their constants D = 1e6, eps = 1e-6: the n-th
    extrapolated input is accepted only if ||g(q) - q||_F <= D f0
    n^-(1 + eps), f0 being its value at q = 0; otherwise it is rejected,
    the history is cleared and the next input is the plain Dykstra step
    g(q) of the last accepted input.  g is averaged (the projection onto
    {X : X^Gamma >= 0} after q -> W - clip(W - q), which is
    1/2-averaged), so plain steps never raise ||g(q) - q||_F, accepted
    extrapolations have summable residuals, and the residual at accepted
    inputs tends to 0 if the loop runs on.  Apart from the safeguard the
    history is also cleared whenever ||g(q) - q||_F grows from the last
    accepted input, a heuristic restart that keeps the point.  Only the
    input q is extrapolated: P = p and Q = clip((W - p)^Gamma) always
    come from an actual clip, so at every iterate P, Q are PSD,
    Z^Gamma <= 0 and W = Z + P + Q^Gamma to rounding.  Success is
    ||Z||_F <= residual_tol; stopping at a fixed point of g
    (||g(q) - q||_F <= 1e-12 (1 + ||Z||_F)) with Z nonzero, or after
    ``_SPLIT_MAX_ITERS`` iterations, is inconclusive, not a proof of
    non-decomposability.
    """
    if len(W.dims) != 2:
        raise DimensionError(f"decomposition needs a bipartite operator, got {W.dims}")
    dims = W.dims
    w = W.entries
    q_in = np.zeros_like(w)
    plain = True  # q_in is g of the last accepted input, or the start
    d_f, d_g = [], []  # differences of f = g(q) - q and of g(q)
    f_prev = g_prev = None  # f and g at the last accepted input
    f_norm_prev = math.inf
    accepted = 0  # extrapolated inputs accepted so far
    for iterations in range(1, _SPLIT_MAX_ITERS + 1):
        p = _psd_clip(w - q_in)
        g = _pt2(_psd_clip(_pt2(w - p, dims)), dims)
        residual = float(np.linalg.norm(w - p - g))
        f = g - q_in
        f_norm = float(np.linalg.norm(f))
        if residual <= residual_tol or f_norm <= 1e-12 * (1.0 + residual):
            break
        if f_prev is None:
            f_norm_0 = f_norm
        elif not plain:
            bound = _SAFEGUARD_D * f_norm_0 * (accepted + 1) ** -(1.0 + _SAFEGUARD_EPS)
            if f_norm > bound:
                # reject the extrapolated input: plain step from the last accepted
                d_f.clear()
                d_g.clear()
                q_in, plain = g_prev, True
                continue
            accepted += 1
        if f_norm > f_norm_prev:
            d_f.clear()
            d_g.clear()
        elif f_prev is not None:
            d_f.append(f - f_prev)
            d_g.append(g - g_prev)
            if len(d_f) > _ANDERSON_MEMORY:
                del d_f[0], d_g[0]
        f_prev, g_prev, f_norm_prev = f, g, f_norm
        q_in, plain = g, True
        if d_f:
            plain = False
            # real coefficients keep q Hermitian
            basis = np.stack(d_f).reshape(len(d_f), -1).view(np.float64).T
            gamma = np.linalg.lstsq(basis, f.reshape(-1).view(np.float64), rcond=None)[0]
            q_in = g - np.tensordot(gamma, np.stack(d_g), axes=1)
    return DecompositionResult(
        HermitianOperator(dims, p),
        HermitianOperator(dims, _pt2(g, dims)),
        residual,
        residual <= residual_tol,
        iterations,
    )


def _mix_into_ppt(neg_z, dims):
    """The closed-form PPT state of ``ppt_violation_search`` read from
    -Z = ``neg_z``, which must have positive trace."""
    rho0 = (neg_z + neg_z.conj().T) / (2.0 * neg_z.trace().real)
    eps = max(
        0.0,
        -float(np.linalg.eigvalsh(rho0)[0]),
        -float(np.linalg.eigvalsh(_pt2(rho0, dims))[0]),
    )
    side = rho0.shape[0]
    return (rho0 + eps * np.eye(side)) / (1.0 + eps * side)


def ppt_violation_search(W, cfg=None):
    """Split W once and read both outcomes: W = P + Q^Gamma, or a PPT
    state with negative expectation.

    With Z = W - P - Q^Gamma from ``decomposition_search`` at
    residual_tol = cfg.tol_zero, -Z lies in the PPT cone and
    <W, Z> = ||Z||^2 at the limit, so rho0 = -Z / tr(-Z) is a PPT state
    with tr(W rho0) = -||Z||^2 / tr(-Z) < 0.  The iterate is PPT only up
    to the split's accuracy, so rho0 is mixed with the maximally mixed
    state in closed form: with eps = max(0, -lambda_min(rho0),
    -lambda_min(rho0^Gamma)) and I^Gamma = I, rho = (rho0 + eps I) /
    (1 + eps d) is PSD, PPT and unit-trace.  It is certified only if it
    is PPT to 1e-8 with unit trace and tr(W rho) < -tol_zero.  A split
    that decomposes proves that no violation exists, and its
    ``best_value`` is the bound it proves, -||Z||_F: for every PPT state
    rho, tr(W rho) = tr(Z rho) + tr(P rho) + tr(Q rho^Gamma) >= tr(Z rho)
    >= -||Z||_F.  PSD W needs no violation search, its ``best_value`` is
    its lowest eigenvalue.
    """
    cfg = cfg or OptimizerConfig()
    if len(W.dims) != 2:
        raise DimensionError(f"PPT search needs a bipartite operator, got {W.dims}")
    dims = W.dims
    w = W.entries
    lam = float(np.linalg.eigvalsh(w)[0])
    dec = decomposition_search(W, residual_tol=cfg.tol_zero)
    if lam >= -cfg.tol_zero:
        # tr(W rho) >= lambda_min >= -tol_zero for every state: no violation
        return PPTSearchResult(None, lam, True, 0, dec)
    if dec.success:
        return PPTSearchResult(None, -dec.residual, True, 1, dec)
    neg_z = dec.P.entries + _pt2(dec.Q.entries, dims) - w
    # every iterate has Z^Gamma <= 0, so tr(-Z) >= ||Z||_F: the trace
    # vanishes only on a split that ends exactly at Z = 0
    mass = float(neg_z.trace().real)
    if mass <= 0.0:
        return PPTSearchResult(None, 0.0, False, 1, dec)
    final = _mix_into_ppt(neg_z, dims)
    value = float((w @ final).trace().real)
    lam_rho = float(np.linalg.eigvalsh(final)[0])
    lam_pt = float(np.linalg.eigvalsh(_pt2(final, dims))[0])
    tr_gap = abs(final.trace().real - 1.0)
    violation = None
    if (
        value < -cfg.tol_zero
        and lam_rho >= -1e-8
        and lam_pt >= -1e-8
        and tr_gap <= 1e-10
    ):
        violation = PPTViolation(HermitianOperator(dims, final), value)
    return PPTSearchResult(violation, value, violation is not None, 1, dec)
