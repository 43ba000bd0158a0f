"""Dense Hermitian operators on multipartite Hilbert spaces.

Everything downstream (optimization, witness classification, lifting)
works with the two small value types defined here:

``HermitianOperator``
    an exactly-Hermitian matrix together with the ordered factor
    dimensions of the space it acts on.  The basis is lexicographic in
    the factor indices, so on C^dA (x) C^dB the product ket |i>|j> sits
    at row i*dB + j.

``ProductVector``
    a pair of unit vectors (u, v) representing |u>|v>.

Hermiticity and normalization are *rejected*, never repaired: silently
symmetrizing input hides caller bugs that later surface as spurious
imaginary expectation values.  Non-finite entries are rejected too: a
NaN compares False against every tolerance, so it would slip through
the Hermiticity check and reach the eigensolvers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "HermitianOperator",
    "NonFiniteError",
    "NonHermitianError",
    "ProductVector",
    "Spectrum",
    "conditioned_matrix",
    "eig_hermitian",
    "inf_norm",
    "load_operator",
    "operator_from_json",
    "operator_to_json",
    "partial_transpose",
    "product_expectation",
    "save_operator",
    "tensor",
]

HERMITICITY_ATOL = 1e-12
UNIT_NORM_ATOL = 1e-12
EXPECTATION_IMAG_ATOL = 1e-10
DENSE_SIDE_CAP = 4096


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class DimensionError(ValueError):
    """Shapes, factor dimensions or dense-size budgets do not line up."""


class NonFiniteError(ValueError):
    """Input matrix has a NaN or infinite entry."""


def hermitian_array(matrix, what):
    """A read-only complex copy of a square matrix (or of a
    ``HermitianOperator``'s entries), checked finite and Hermitian
    entrywise within ``HERMITICITY_ATOL``."""
    if isinstance(matrix, HermitianOperator):
        matrix = matrix.entries
    arr = np.array(matrix, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise DimensionError(f"{what} must be square and nonempty, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} has non-finite entries")
    gap = np.abs(arr - arr.conj().T).max()
    if gap > HERMITICITY_ATOL:
        raise NonHermitianError(
            f"{what} is not Hermitian: max |X - X^dag| = {gap:.3e}"
        )
    arr.setflags(write=False)
    return arr


class HermitianOperator:
    """A Hermitian matrix acting on a tensor product of finite factors.

    Parameters
    ----------
    dims : sequence of int
        Ordered factor dimensions, e.g. ``(2, 3)`` for C^2 (x) C^3.
    entries : array_like
        Square complex matrix of side ``prod(dims)``.  Must be finite
        (else ``NonFiniteError``) and Hermitian entrywise within
        ``HERMITICITY_ATOL``; violations raise ``NonHermitianError``
        rather than being averaged away.
    """

    __slots__ = ("_dims", "_entries")

    def __init__(self, dims, entries):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise DimensionError(f"invalid factor dimensions {dims!r}")
        side = math.prod(dims)
        arr = hermitian_array(entries, "matrix")
        if arr.shape != (side, side):
            raise DimensionError(
                f"entries shape {arr.shape} does not match factor dims {dims} "
                f"(expected {(side, side)})"
            )
        self._dims = dims
        self._entries = arr

    @property
    def dims(self):
        return self._dims

    @property
    def entries(self):
        return self._entries

    @property
    def side(self):
        return self._entries.shape[0]

    @classmethod
    def identity(cls, dims):
        return cls(dims, np.eye(math.prod(tuple(int(d) for d in dims))))

    def trace(self):
        return float(self._entries.trace().real)

    def with_dims(self, dims):
        """Reinterpret the factor structure without touching the entries."""
        return HermitianOperator(dims, self._entries)

    def shifted(self, c):
        """X - c*I, the canonical-form shift."""
        return HermitianOperator(
            self._dims, self._entries - float(c) * np.eye(self.side)
        )

    def __add__(self, other):
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        if other.dims != self._dims:
            raise DimensionError(f"dims mismatch: {self._dims} vs {other.dims}")
        return HermitianOperator(self._dims, self._entries + other.entries)

    def __sub__(self, other):
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        if other.dims != self._dims:
            raise DimensionError(f"dims mismatch: {self._dims} vs {other.dims}")
        return HermitianOperator(self._dims, self._entries - other.entries)

    def __mul__(self, scalar):
        s = float(scalar)
        return HermitianOperator(self._dims, self._entries * s)

    __rmul__ = __mul__

    def __neg__(self):
        return HermitianOperator(self._dims, -self._entries)

    def __repr__(self):
        return f"HermitianOperator(dims={self._dims}, side={self.side})"


def _unit(vec, name):
    arr = np.array(vec, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(arr)
    if abs(norm - 1.0) > UNIT_NORM_ATOL:
        raise ValueError(f"{name} is not a unit vector: |norm - 1| = {abs(norm - 1):.3e}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ProductVector:
    """Product ket |u>|v> with both factors unit-normalized."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _unit(self.u, "u"))
        object.__setattr__(self, "v", _unit(self.v, "v"))

    def kron(self):
        return np.kron(self.u, self.v)

    def conjugate_second(self):
        """(u, v*) -- the partner vector under partial transposition."""
        return ProductVector(self.u, self.v.conj())

    def overlap(self, other):
        """|<u,v|u',v'>| in [0, 1]."""
        return abs(np.vdot(self.u, other.u)) * abs(np.vdot(self.v, other.v))


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with eigenvalues in ascending order."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k pairs with eigenvalues[k]

    @property
    def lambda_min(self):
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self):
        return float(self.eigenvalues[-1])

    def vector(self, k):
        return self.eigenvectors[:, k]


def eig_hermitian(X):
    """Full eigendecomposition of a ``HermitianOperator``.

    Returns a ``Spectrum``; eigenvalues ascend, eigenvectors are the
    matching orthonormal columns.
    """
    vals, vecs = np.linalg.eigh(X.entries)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return Spectrum(vals, vecs)


def inf_norm(X):
    """Spectral norm max_k |lambda_k| of a Hermitian operator."""
    return float(np.abs(np.linalg.eigvalsh(X.entries)).max())


def partial_transpose(X, factor_index=1):
    """Transpose one tensor factor of a Hermitian operator.

    The default acts on the second factor (index 1).  The operation is
    an involution and preserves both trace and Hermiticity exactly.
    """
    dims = X.dims
    k = len(dims)
    if not 0 <= factor_index < k:
        raise DimensionError(
            f"factor_index {factor_index} out of range for {k} factors"
        )
    tens = X.entries.reshape(dims + dims)
    tens = np.swapaxes(tens, factor_index, k + factor_index)
    side = X.side
    return HermitianOperator(dims, np.ascontiguousarray(tens.reshape(side, side)))


def tensor(X, Y):
    """Kronecker product; factor dimensions concatenate.

    Refuses to materialize anything with side above ``DENSE_SIDE_CAP``;
    use a ``StructuredOperator`` for larger spaces.
    """
    side = X.side * Y.side
    if side > DENSE_SIDE_CAP:
        raise DimensionError(
            f"dense tensor side {side} exceeds cap {DENSE_SIDE_CAP}; "
            "use structured operators instead"
        )
    return HermitianOperator(X.dims + Y.dims, np.kron(X.entries, Y.entries))


def product_expectation(X, pv):
    """<u,v|X|u,v> as a real float.

    X must be bipartite with dims matching (len(u), len(v)).  The
    imaginary part is asserted below ``EXPECTATION_IMAG_ATOL`` and then
    discarded.
    """
    if len(X.dims) != 2:
        raise DimensionError(f"product_expectation needs 2 factors, got dims {X.dims}")
    if X.dims != (pv.u.size, pv.v.size):
        raise DimensionError(
            f"product vector sizes {(pv.u.size, pv.v.size)} do not match dims {X.dims}"
        )
    w = pv.kron()
    val = complex(np.vdot(w, X.entries @ w))
    if abs(val.imag) > EXPECTATION_IMAG_ATOL:
        raise ArithmeticError(
            f"expectation has imaginary part {val.imag:.3e} beyond tolerance"
        )
    return float(val.real)


def conditioned_matrix(X, side, w):
    """Quadratic form of X with one factor pinned to the vector w.

    For ``side='A'`` returns M[j, l] = <w (x) e_j| X |w (x) e_l> acting
    on the B factor; for ``side='B'`` the A-factor analogue.  M is
    Hermitian whenever X is.
    """
    if len(X.dims) != 2:
        raise DimensionError(f"conditioned_matrix needs 2 factors, got dims {X.dims}")
    d_a, d_b = X.dims
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    tens = X.entries.reshape(d_a, d_b, d_a, d_b)
    if side == "A":
        if w.size != d_a:
            raise DimensionError(f"w has size {w.size}, expected {d_a}")
        out = np.einsum("a,abcd,c->bd", w.conj(), tens, w)
    elif side == "B":
        if w.size != d_b:
            raise DimensionError(f"w has size {w.size}, expected {d_b}")
        out = np.einsum("b,abcd,d->ac", w.conj(), tens, w)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    # exact Hermitization of float round-off; the skew part is ~1e-17
    return (out + out.conj().T) / 2.0


# ---------------------------------------------------------------------------
# JSON wire format: {"dims": [dA, dB], "re": [[...]], "im": [[...]]}
# ---------------------------------------------------------------------------

def operator_to_json(X):
    return {
        "dims": [int(d) for d in X.dims],
        "re": X.entries.real.tolist(),
        "im": X.entries.imag.tolist(),
    }


def operator_from_json(doc):
    if "dims" not in doc or "re" not in doc:
        raise ValueError("operator document needs 'dims' and 're' keys")
    dims = doc["dims"]
    if not isinstance(dims, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in dims
    ):
        raise ValueError(f"'dims' must be a list of integers, got {dims!r}")
    re = np.array(doc["re"], dtype=float)
    im = np.array(doc.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != im.shape:
        raise ValueError(f"re/im shapes differ: {re.shape} vs {im.shape}")
    return HermitianOperator(dims, re + 1j * im)


def save_operator(X, path):
    with open(path, "w") as fh:
        json.dump(operator_to_json(X), fh)


def load_operator(path):
    with open(path) as fh:
        return operator_from_json(json.load(fh))
