"""Matrix-free operators built from tensor factors.

A ``StructuredOperator`` is a real-weighted sum of Kronecker-product
terms.  Each factor is either a dense Hermitian block or one of a few
named structural atoms (identity, the swap V = sum |i>|j><j|<i|, the
classical projector P_cl = sum |ii><ii|, the swap-dressed product
(m (x) m)V, the four-subsystem reversal, and the swap-composed
classical projector used by the four-copy lifts), so a
65,536-dimensional lifted operator never needs its dense form.

Matrix-vector products run a plan built once per operator.  Equal
terms merge into one: structural atoms compare by (type, dim), factors
that carry a matrix by identity, and runs of identities fuse.  The two
classical atoms are partial permutations of their axis (16 of 256
indices at 65,536 dims), so a term first gathers their input support
(``support``), applies its other factors to the reduced tensor, and
adds the result into the output at their output support.  Every other
factor acts in place on a (pre, dim, post) view of the term's tensor
(``act``): a dense block is one broadcast matmul, a swap or reversal
one reshape and transpose, and nothing is moved to the front and back.

Factors that cover a full balanced bipartition are bridge atoms: they
add their closed-form conditioned matrix <w (x) b|T|w (x) d>, used by
the product see-saw, into a matrix in place (``add_bridge_cond``), or
its product with a vector (``add_cond_matvec``), and bound in closed
form how far it moves between two w (``cond_drift``); for the atoms
here that matrix is the same whichever half carries w.  Every factor
also states its operator norm (``norm``).

Structural atoms have exact 0/+-1 entries and the sym/asym projectors
exact +-1/2 weights, so their algebra (V^2 = I, P^2 = P, ...) holds to
the last float bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_blas_funcs

from .operators import (
    DENSE_SIDE_CAP,
    DimensionError,
    hermitian_array,
)

__all__ = [
    "BlockReversalFactor",
    "ClassicalProjectorFactor",
    "ClassicalSwapFactor",
    "DenseFactor",
    "IdentityFactor",
    "StructuredOperator",
    "SwapFactor",
    "SwapKronFactor",
]


class _Factor:
    """One tensor slot of a term.

    ``act(y)`` applies the factor to the middle axis of a (pre, dim,
    post) array and returns the result in the same element order.  The
    partial permutations instead set ``support = (rows, cols)``: output
    index rows[i] takes input index cols[i], every other output index is
    zero.  ``key`` names the factor when equal terms merge; a factor
    that carries a matrix is only equal to itself.  ``norm()`` is the
    factor's operator 2-norm, as computed in floating point.
    """

    dim = 0
    support = None

    @property
    def key(self):
        return self

    def act(self, y):
        raise NotImplementedError

    def dense(self):
        raise NotImplementedError

    def norm(self):
        raise NotImplementedError


class _StructuralFactor(_Factor):
    """An atom fixed by its type and dim, so equal atoms share a key.
    Every atom here is a permutation, a partial permutation or a
    projector, so its norm is 1."""

    @property
    def key(self):
        return (type(self), self.dim)

    def norm(self):
        return 1.0


_ZAXPY, _ZDOTC, _ZGERU, _ZNRM2 = get_blas_funcs(
    ("axpy", "dotc", "geru", "nrm2"), dtype=np.complex128
)


def _rank_one_drift(w, w_prev):
    """||w w^H - w' w'^H||_2 in closed form, O(d).

    The difference has rank at most two, trace a - b and eigenvalue
    product |c|^2 - a b, with a = |w|^2, b = |w'|^2, c = <w|w'>; and
    a b - |c|^2 = a |r|^2 for r = w' - (c / a) w (Lagrange's identity).
    So its norm is |a - b| / 2 + hypot((a - b) / 2, sqrt(a) |r|), which
    is sqrt(1 - |<w|w'>|^2) for unit vectors.  Reading the cross term
    off |r| rather than 1 - |c|^2 keeps it accurate to a few ulps of 1
    when w' is close to w, where 1 - |c|^2 would cancel."""
    a = _ZDOTC(w, w).real
    b = _ZDOTC(w_prev, w_prev).real
    if a == 0.0:
        return b
    r = _ZAXPY(w, w_prev.copy(), a=-_ZDOTC(w, w_prev) / a)
    half = 0.5 * abs(a - b)
    return half + math.hypot(half, math.sqrt(a) * _ZNRM2(r))


class _BridgeFactor(_StructuralFactor):
    """A whole-space atom on C^n (x) C^n with a closed-form conditioned
    matrix.

    ``add_bridge_cond(M, coeff, w, ww)`` adds coeff <w,b|T|w,d> into the
    C-ordered n-by-n matrix M in place, given ww = outer(w, conj(w)),
    which the see-saw kernel builds anyway; no n-by-n temporary is made.
    ``add_cond_matvec(out, coeff, w, x)`` adds coeff B(w) x into out, for
    B(w) that conditioned matrix, in O(n), and returns out.
    ``cond_drift(w, w_prev)`` is ||B(w) - B(w_prev)||_2 in closed form,
    exact up to rounding.  Each atom is fixed by its type and dim, so
    equal atoms of one operator can share one summed coefficient.
    """

    def add_bridge_cond(self, M, coeff, w, ww):
        raise NotImplementedError

    def add_cond_matvec(self, out, coeff, w, x):
        raise NotImplementedError

    def cond_drift(self, w, w_prev):
        raise NotImplementedError


class DenseFactor(_Factor):
    def __init__(self, matrix):
        self.matrix = hermitian_array(matrix, "dense factor")
        self.dim = self.matrix.shape[0]

    def act(self, y):
        return np.matmul(self.matrix, y)

    def dense(self):
        return self.matrix

    def norm(self):
        # the largest singular value: the 2-norm of the stored matrix,
        # which is Hermitian only within HERMITICITY_ATOL
        return float(np.linalg.norm(self.matrix, 2))


class IdentityFactor(_StructuralFactor):
    """I on C^dim; terms skip it, so it has no action."""

    def __init__(self, dim):
        self.dim = int(dim)

    def dense(self):
        return np.eye(self.dim)


class SwapFactor(_BridgeFactor):
    """V on C^d (x) C^d: V |x>|y> = |y>|x>."""

    def __init__(self, d):
        self.d = int(d)
        self.dim = self.d * self.d

    def act(self, y):
        pre, _, post = y.shape
        return y.reshape(pre, self.d, self.d, post).transpose(0, 2, 1, 3)

    def dense(self):
        d = self.d
        out = np.zeros((self.dim, self.dim))
        for i in range(d):
            for j in range(d):
                out[i * d + j, j * d + i] = 1.0
        return out

    def add_bridge_cond(self, M, coeff, w, ww):
        # <w,b|V|w,d> = w_b conj(w_d) = ww: rank one, same for either half
        _ZAXPY(ww.reshape(-1), M.reshape(-1), a=coeff)

    def add_cond_matvec(self, out, coeff, w, x):
        return _ZAXPY(w, out, a=coeff * _ZDOTC(w, x))

    def cond_drift(self, w, w_prev):
        return _rank_one_drift(w, w_prev)


class ClassicalProjectorFactor(_BridgeFactor):
    """P_cl on C^d (x) C^d: keeps only the |ii> components."""

    def __init__(self, d):
        self.d = int(d)
        self.dim = self.d * self.d
        self._idx = np.arange(self.d) * (self.d + 1)
        self.support = (slice(0, None, self.d + 1), self._idx)

    def dense(self):
        out = np.zeros((self.dim, self.dim))
        out[self._idx, self._idx] = 1.0
        return out

    def add_bridge_cond(self, M, coeff, w, ww):
        # <w,b|P_cl|w,d> = delta_bd |w_b|^2
        M.reshape(-1)[:: self.d + 1] += coeff * np.abs(w) ** 2

    def add_cond_matvec(self, out, coeff, w, x):
        out += coeff * np.abs(w) ** 2 * x
        return out

    def cond_drift(self, w, w_prev):
        # a diagonal difference: its largest entry
        return float(np.abs(np.abs(w) ** 2 - np.abs(w_prev) ** 2).max())


class SwapKronFactor(_Factor):
    """(m (x) m) V on C^n (x) C^n for a Hermitian n-by-n matrix m.

    Hermitian because m (x) m commutes with the swap; used for the
    symmetrized cross terms of the four-copy lifts.
    """

    def __init__(self, m):
        self.block = hermitian_array(m, "SwapKronFactor block")
        self.n = self.block.shape[0]
        self.dim = self.n * self.n

    def act(self, y):
        # out[p,a,b,q] = sum_cd m[a,c] m[b,d] y[p,d,c,q]: contract c, then
        # d with a carried along, then swap a and b back
        pre, _, post = y.shape
        n, m = self.n, self.block
        t = np.matmul(m, y.reshape(pre, n, n, post))
        t = np.matmul(m, t.reshape(pre, n, n * post))
        return t.reshape(pre, n, n, post).transpose(0, 2, 1, 3)

    def dense(self):
        return np.kron(self.block, self.block) @ SwapFactor(self.n).dense()

    def norm(self):
        # ||(m (x) m) V|| = ||m (x) m|| = ||m||^2, V being unitary
        return float(np.linalg.norm(self.block, 2)) ** 2


class BlockReversalFactor(_BridgeFactor):
    """Subsystem reversal on (C^s)^(x4): |a>|b>|c>|d> -> |d>|c>|b>|a>.

    Equals the half swap on C^{s^2} (x) C^{s^2} composed with the
    within-half swaps, so it is Hermitian (the permutation is an
    involution) and carries the swap-conjugated cross term of the
    four-copy state construction.
    """

    def __init__(self, s):
        self.s = int(s)
        self.dim = self.s ** 4

    def act(self, y):
        pre, _, post = y.shape
        s = self.s
        return y.reshape(pre, s, s, s, s, post).transpose(0, 4, 3, 2, 1, 5)

    def dense(self):
        s = self.s
        cols = np.arange(self.dim).reshape(s, s, s, s).transpose(3, 2, 1, 0)
        out = np.zeros((self.dim, self.dim))
        out[np.arange(self.dim), cols.reshape(-1)] = 1.0
        return out

    def _swapped(self, w):
        """vw, the within-half swap of w."""
        return np.ascontiguousarray(w.reshape(self.s, self.s).T).reshape(-1)

    def add_bridge_cond(self, M, coeff, w, ww):
        # <w,b|R|w,d> = (vw)_b conj((vw)_d) with vw the within-half swap;
        # M.T is a Fortran view, so the rank-one update writes M in place
        vw = self._swapped(w)
        _ZGERU(coeff, vw.conj(), vw, a=M.T, overwrite_a=1)

    def add_cond_matvec(self, out, coeff, w, x):
        vw = self._swapped(w)
        return _ZAXPY(vw, out, a=coeff * _ZDOTC(vw, x))

    def cond_drift(self, w, w_prev):
        # vw is a permutation of w, so the swap's closed form holds as is
        return _rank_one_drift(w, w_prev)


class ClassicalSwapFactor(_BridgeFactor):
    """sum_I |I,I><tI,tI| on C^{s^2} (x) C^{s^2}, t the index swap.

    The classical projector on the half basis composed with the
    within-half swaps; Hermitian because t permutes the index set and
    is an involution.
    """

    def __init__(self, s):
        self.s = int(s)
        m = self.s * self.s
        self.m = m
        self.dim = m * m
        idx = np.arange(m)
        self._swapped = (idx % self.s) * self.s + idx // self.s
        self._rows = idx * (m + 1)
        self._cols = self._swapped * (m + 1)
        self.support = (slice(0, None, m + 1), self._cols)

    def dense(self):
        out = np.zeros((self.dim, self.dim))
        out[self._rows, self._cols] = 1.0
        return out

    def add_bridge_cond(self, M, coeff, w, ww):
        # <w,b|T|w,d> = conj(w_b) w_tb delta_{d,tb}
        M[np.arange(self.m), self._swapped] += coeff * (w.conj() * w[self._swapped])

    def add_cond_matvec(self, out, coeff, w, x):
        t = self._swapped
        out += coeff * (w.conj() * w[t] * x[t])
        return out

    def cond_drift(self, w, w_prev):
        # one entry per row and column (t is a permutation), so the norm
        # is the largest |entry| of the difference
        t = self._swapped
        return float(np.abs(w.conj() * w[t] - w_prev.conj() * w_prev[t]).max())


def _as_factor(obj):
    if isinstance(obj, _Factor):
        return obj
    return DenseFactor(obj)


def _fused(factors):
    """The factors with each run of identities fused into one."""
    out = []
    for f in factors:
        if out and isinstance(f, IdentityFactor) and isinstance(out[-1], IdentityFactor):
            out[-1] = IdentityFactor(out[-1].dim * f.dim)
        else:
            out.append(f)
    return tuple(out)


def _term_key(factors):
    """Equal keys mean equal Kronecker products of the factors."""
    return tuple(f.key for f in _fused(factors))


def _term_plan(coeff, factors):
    """How ``matvec`` applies coeff * (F_1 (x) F_2 (x) ...).

    Returns (coeff, shape, gathers, actions, scatter): the input is
    viewed as ``shape``, one axis per factor; ``gathers`` take the
    input support of each partial permutation; ``actions`` apply the
    remaining factors, each with the (pre, dim, post) view of the
    reduced tensor; ``scatter`` indexes the output support, or is None
    when the term has no partial permutation and covers the whole space.
    """
    factors = _fused(factors)
    shape = tuple(f.dim for f in factors)
    reduced = list(shape)
    gathers, scatter = [], [slice(None)] * len(shape)
    for axis, f in enumerate(factors):
        if f.support is not None:
            scatter[axis], cols = f.support
            gathers.append((axis, cols))
            reduced[axis] = cols.size
    actions = []
    for axis, f in enumerate(factors):
        if f.support is None and not isinstance(f, IdentityFactor):
            view = (math.prod(reduced[:axis]), f.dim, math.prod(reduced[axis + 1:]))
            actions.append((f, view))
    return coeff, shape, tuple(gathers), tuple(actions), tuple(scatter) if gathers else None


def _apply_plan(plan, x, out, scale=1.0):
    """out + scale * (sum of the ``_term_plan`` terms of ``plan``) x, for
    flat x and out of the plan's total dim; out is written in place
    where BLAS allows, and returned."""
    for coeff, shape, gathers, actions, scatter in plan:
        y = x.reshape(shape)
        for axis, cols in gathers:
            y = np.take(y, cols, axis=axis)
        for factor, view in actions:
            y = factor.act(y.reshape(view))
        if scatter is None:
            out = _ZAXPY(y.reshape(-1), out, a=scale * coeff)
        else:
            block = out.reshape(shape)[scatter]
            block += (scale * coeff) * y.reshape(block.shape)
    return out


@dataclass(frozen=True)
class StructuredOperator:
    """sum_t coeff_t * (F_t1 (x) F_t2 (x) ...), applied without kron.

    ``space_dims`` records the tensor structure of the carrier space;
    each term's factor dimensions must multiply to the same total, but
    factors may tile the space differently from ``space_dims`` (a swap
    atom covers two slots at once).  ``terms`` are kept as given; the
    matvec plan, with equal terms merged, is built once here.
    """

    space_dims: tuple
    terms: tuple  # of (float coeff, tuple of factors)

    def __init__(self, space_dims, terms):
        space_dims = tuple(int(d) for d in space_dims)
        total = math.prod(space_dims)
        norm_terms = []
        merged = {}
        for coeff, factors in terms:
            factors = tuple(_as_factor(f) for f in factors)
            prod = math.prod(f.dim for f in factors)
            if prod != total:
                raise DimensionError(
                    f"term factor dims multiply to {prod}, expected {total}"
                )
            norm_terms.append((float(coeff), factors))
            key = _term_key(factors)
            merged[key] = (merged.get(key, (0.0,))[0] + float(coeff), factors)
        object.__setattr__(self, "space_dims", space_dims)
        object.__setattr__(self, "terms", tuple(norm_terms))
        object.__setattr__(
            self, "_plan", tuple(_term_plan(c, fs) for c, fs in merged.values())
        )

    @property
    def total_dim(self):
        return math.prod(self.space_dims)

    def matvec(self, x):
        x = np.ascontiguousarray(x, dtype=np.complex128).reshape(-1)
        total = self.total_dim
        if x.size != total:
            raise DimensionError(f"vector size {x.size}, expected {total}")
        return _apply_plan(self._plan, x, np.zeros(total, dtype=np.complex128))

    def norm_bound(self):
        """A proven upper bound on ||S||_2: sum_t |c_t| prod_f ||F_tf||_2
        over the merged terms (triangle inequality; the identities and
        partial permutations a plan leaves out of its actions have norm
        1), raised by a rounding allowance of 4 (N + t) eps relative, N
        the total dim and t the term count.  Each computed factor norm is
        a largest singular value, within about 2 m eps relative of the
        exact one at side m; a term's factor sides sum to at most N, and
        the products and the sum of t terms add at most t rounding steps
        of their own."""
        total = sum(
            abs(coeff) * math.prod(factor.norm() for factor, _ in actions)
            for coeff, _, _, actions, _ in self._plan
        )
        eps = np.finfo(np.float64).eps
        return total * (1.0 + 4.0 * (self.total_dim + len(self._plan)) * eps)

    def expectation(self, x):
        """<x|S|x> with the float-noise imaginary part dropped."""
        x = np.asarray(x, dtype=np.complex128).reshape(-1)
        return float(np.vdot(x, self.matvec(x)).real)

    def to_dense(self):
        total = self.total_dim
        if total > DENSE_SIDE_CAP:
            raise DimensionError(
                f"dense side {total} exceeds cap {DENSE_SIDE_CAP}"
            )
        out = np.zeros((total, total), dtype=np.complex128)
        for coeff, factors in self.terms:
            term = np.array([[1.0 + 0j]])
            for f in factors:
                term = np.kron(term, f.dense())
            out += coeff * term
        return out

    def scaled(self, c):
        return StructuredOperator(
            self.space_dims, [(c * coeff, fs) for coeff, fs in self.terms]
        )

    def __neg__(self):
        return self.scaled(-1.0)

    def __add__(self, other):
        if not isinstance(other, StructuredOperator):
            return NotImplemented
        if other.space_dims != self.space_dims:
            raise DimensionError(
                f"space dims mismatch: {self.space_dims} vs {other.space_dims}"
            )
        return StructuredOperator(self.space_dims, self.terms + other.terms)

