"""Matrix-free operators built from tensor factors.

A ``StructuredOperator`` is a real-weighted sum of Kronecker-product
terms.  Each factor is either a dense Hermitian block or one of a few
named structural atoms (identity, the swap V = sum |i>|j><j|<i|, the
classical projector P_cl = sum |ii><ii|, the swap-dressed product
(m (x) m)V, the four-subsystem reversal, and the swap-composed
classical projector used by the four-copy lifts).  Matrix-vector
products apply factors axis by axis, so a 65,536-dimensional lifted
operator never needs its dense form.

Factors that cover a full balanced bipartition are bridge atoms: they
add their closed-form conditioned matrix <w (x) b|T|w (x) d>, used by
the product see-saw, into a matrix in place (``add_bridge_cond``); for
the atoms here that matrix is the same whichever half carries w.

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
    HERMITICITY_ATOL,
    DimensionError,
    HermitianOperator,
    NonHermitianError,
    check_finite,
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
    "build_structural",
]


class _Factor:
    """One tensor slot of a term.  Subclasses act on (dim, rest) blocks."""

    dim = 0

    def apply(self, block):
        raise NotImplementedError

    def dense(self):
        raise NotImplementedError


_ZAXPY, _ZGERU = get_blas_funcs(("axpy", "geru"), dtype=np.complex128)


class _BridgeFactor(_Factor):
    """A whole-space atom on C^n (x) C^n with a closed-form conditioned
    matrix.

    ``add_bridge_cond(M, coeff, w, ww)`` adds coeff <w,b|T|w,d> into the
    C-ordered n-by-n matrix M in place, given ww = outer(w, conj(w)),
    which the see-saw kernel builds anyway; no n-by-n temporary is made.
    Each atom is fixed by its type and dim, so equal atoms of one
    operator can share one summed coefficient.
    """

    def add_bridge_cond(self, M, coeff, w, ww):
        raise NotImplementedError

    def bridge_cond(self, w):
        """<w,b|T|w,d> as a new matrix."""
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        out = np.zeros((w.size, w.size), dtype=np.complex128)
        self.add_bridge_cond(out, 1.0, w, np.outer(w, w.conj()))
        return out


class DenseFactor(_Factor):
    def __init__(self, matrix):
        if isinstance(matrix, HermitianOperator):
            matrix = matrix.entries
        arr = np.array(matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"dense factor must be square, got {arr.shape}")
        check_finite(arr, "dense factor")
        if np.abs(arr - arr.conj().T).max() > HERMITICITY_ATOL:
            raise NonHermitianError("dense factor is not Hermitian")
        arr.setflags(write=False)
        self.matrix = arr
        self.dim = arr.shape[0]

    def apply(self, block):
        return self.matrix @ block

    def dense(self):
        return self.matrix


class IdentityFactor(_Factor):
    def __init__(self, dim):
        self.dim = int(dim)

    def apply(self, block):
        return block

    def dense(self):
        return np.eye(self.dim)


class SwapFactor(_BridgeFactor):
    """V on C^d (x) C^d: V |x>|y> = |y>|x>."""

    def __init__(self, d):
        self.d = int(d)
        self.dim = self.d * self.d

    def apply(self, block):
        d, rest = self.d, block.shape[1]
        return (
            block.reshape(d, d, rest).transpose(1, 0, 2).reshape(self.dim, rest)
        )

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


class ClassicalProjectorFactor(_BridgeFactor):
    """P_cl on C^d (x) C^d: keeps only the |ii> components."""

    def __init__(self, d):
        self.d = int(d)
        self.dim = self.d * self.d
        self._idx = np.arange(self.d) * (self.d + 1)

    def apply(self, block):
        out = np.zeros_like(block)
        out[self._idx] = block[self._idx]
        return out

    def dense(self):
        out = np.zeros((self.dim, self.dim))
        out[self._idx, self._idx] = 1.0
        return out

    def add_bridge_cond(self, M, coeff, w, ww):
        # <w,b|P_cl|w,d> = delta_bd |w_b|^2
        M.reshape(-1)[:: self.d + 1] += coeff * np.abs(w) ** 2


class SwapKronFactor(_Factor):
    """(m (x) m) V on C^n (x) C^n for a Hermitian n-by-n matrix m.

    Hermitian because m (x) m commutes with the swap; used for the
    symmetrized cross terms of the four-copy lifts.
    """

    def __init__(self, m):
        if isinstance(m, HermitianOperator):
            m = m.entries
        arr = np.array(m, dtype=np.complex128)
        check_finite(arr, "SwapKronFactor block")
        if np.abs(arr - arr.conj().T).max() > HERMITICITY_ATOL:
            raise NonHermitianError("SwapKronFactor block is not Hermitian")
        arr.setflags(write=False)
        self.block = arr
        self.n = arr.shape[0]
        self.dim = self.n * self.n

    def apply(self, block):
        n, rest = self.n, block.shape[1]
        x = block.reshape(n, n, rest).transpose(1, 0, 2)  # the swap
        x = np.tensordot(self.block, x, axes=(1, 0))      # m on axis 0
        x = np.tensordot(self.block, x, axes=(1, 1)).transpose(1, 0, 2)
        return x.reshape(self.dim, rest)

    def dense(self):
        return np.kron(self.block, self.block) @ SwapFactor(self.n).dense()


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

    def apply(self, block):
        s, rest = self.s, block.shape[1]
        return (
            block.reshape(s, s, s, s, rest)
            .transpose(3, 2, 1, 0, 4)
            .reshape(self.dim, rest)
        )

    def dense(self):
        s = self.s
        cols = np.arange(self.dim).reshape(s, s, s, s).transpose(3, 2, 1, 0)
        out = np.zeros((self.dim, self.dim))
        out[np.arange(self.dim), cols.reshape(-1)] = 1.0
        return out

    def add_bridge_cond(self, M, coeff, w, ww):
        # <w,b|R|w,d> = (vw)_b conj((vw)_d) with vw the within-half swap;
        # M.T is a Fortran view, so the rank-one update writes M in place
        s = self.s
        vw = np.ascontiguousarray(w.reshape(s, s).T).reshape(-1)
        _ZGERU(coeff, vw.conj(), vw, a=M.T, overwrite_a=1)


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

    def apply(self, block):
        out = np.zeros_like(block)
        out[self._rows] = block[self._cols]
        return out

    def dense(self):
        out = np.zeros((self.dim, self.dim))
        out[self._rows, self._cols] = 1.0
        return out

    def add_bridge_cond(self, M, coeff, w, ww):
        # <w,b|T|w,d> = conj(w_b) w_tb delta_{d,tb}
        M[np.arange(self.m), self._swapped] += coeff * (w.conj() * w[self._swapped])


def _as_factor(obj):
    if isinstance(obj, _Factor):
        return obj
    return DenseFactor(obj)


@dataclass(frozen=True)
class StructuredOperator:
    """sum_t coeff_t * (F_t1 (x) F_t2 (x) ...), applied without kron.

    ``space_dims`` records the tensor structure of the carrier space;
    each term's factor dimensions must multiply to the same total, but
    factors may tile the space differently from ``space_dims`` (a swap
    atom covers two slots at once).
    """

    space_dims: tuple
    terms: tuple  # of (float coeff, tuple of factors)

    def __init__(self, space_dims, terms):
        space_dims = tuple(int(d) for d in space_dims)
        total = math.prod(space_dims)
        norm_terms = []
        for coeff, factors in terms:
            factors = tuple(_as_factor(f) for f in factors)
            prod = math.prod(f.dim for f in factors)
            if prod != total:
                raise DimensionError(
                    f"term factor dims multiply to {prod}, expected {total}"
                )
            norm_terms.append((float(coeff), factors))
        object.__setattr__(self, "space_dims", space_dims)
        object.__setattr__(self, "terms", tuple(norm_terms))

    @property
    def total_dim(self):
        return math.prod(self.space_dims)

    def matvec(self, x):
        x = np.asarray(x, dtype=np.complex128).reshape(-1)
        total = self.total_dim
        if x.size != total:
            raise DimensionError(f"vector size {x.size}, expected {total}")
        out = np.zeros(total, dtype=np.complex128)
        for coeff, factors in self.terms:
            out += coeff * _apply_term(factors, x, total)
        return out

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

    def __add__(self, other):
        if not isinstance(other, StructuredOperator):
            return NotImplemented
        if other.space_dims != self.space_dims:
            raise DimensionError(
                f"space dims mismatch: {self.space_dims} vs {other.space_dims}"
            )
        return StructuredOperator(self.space_dims, self.terms + other.terms)


def _apply_term(factors, x, total):
    y = x
    pre = 1
    for f in factors:
        d = f.dim
        post = total // (pre * d)
        if not isinstance(f, IdentityFactor):
            block = y.reshape(pre, d, post).transpose(1, 0, 2).reshape(d, pre * post)
            block = f.apply(block)
            y = block.reshape(d, pre, post).transpose(1, 0, 2).reshape(total)
        pre *= d
    return y


def build_structural(kind, d):
    """Named structural operators as ``StructuredOperator`` values.

    kinds: ``identity`` (on C^d), ``swap`` and ``classical_projector``
    (on C^d (x) C^d), ``sym_projector`` and ``asym_projector``
    ((1/2)(I (x) I +- V (x) V) on (C^d (x) C^d)^(x2)).
    """
    d = int(d)
    if kind == "identity":
        return StructuredOperator((d,), [(1.0, (IdentityFactor(d),))])
    if kind == "swap":
        return StructuredOperator((d, d), [(1.0, (SwapFactor(d),))])
    if kind == "classical_projector":
        return StructuredOperator((d, d), [(1.0, (ClassicalProjectorFactor(d),))])
    if kind in ("sym_projector", "asym_projector"):
        sign = 1.0 if kind == "sym_projector" else -1.0
        dd = d * d
        return StructuredOperator(
            (d, d, d, d),
            [
                (0.5, (IdentityFactor(dd), IdentityFactor(dd))),
                (0.5 * sign, (SwapFactor(d), SwapFactor(d))),
            ],
        )
    raise ValueError(f"unknown structural kind {kind!r}")
