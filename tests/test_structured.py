"""Matrix-free tensor terms: every factor's lazy action must agree
with its dense form, including the closed-form conditioned matrices
used by the see-saw bridge."""

import numpy as np
import pytest

from witnesskit.operators import DimensionError, NonFiniteError, NonHermitianError
from witnesskit.sampling import random_hermitian, random_unit_vector, rng_for
from witnesskit.structured import (
    BlockReversalFactor,
    ClassicalProjectorFactor,
    ClassicalSwapFactor,
    DenseFactor,
    IdentityFactor,
    StructuredOperator,
    SwapFactor,
    SwapKronFactor,
    build_structural,
)


def _factor_matvec(factor, x):
    S = StructuredOperator((factor.dim,), [(1.0, (factor,))])
    return S.matvec(x)


def _check_factor_dense(factor, seed):
    rng = rng_for(seed)
    dense = factor.dense()
    for _ in range(3):
        x = random_unit_vector(rng, factor.dim)
        np.testing.assert_allclose(
            _factor_matvec(factor, x), dense @ x, atol=1e-13
        )


def test_swap_factor_action_and_dense():
    d = 3
    f = SwapFactor(d)
    dense = f.dense()
    # V |i>|j> = |j>|i>
    for i in range(d):
        for j in range(d):
            e = np.zeros(d * d)
            e[i * d + j] = 1.0
            out = dense @ e
            assert out[j * d + i] == 1.0 and out.sum() == 1.0
    np.testing.assert_array_equal(dense @ dense, np.eye(d * d))
    _check_factor_dense(f, 21)


def test_classical_projector_action():
    d = 3
    f = ClassicalProjectorFactor(d)
    dense = f.dense()
    expected = np.zeros((9, 9))
    for i in range(d):
        expected[i * d + i, i * d + i] = 1.0
    np.testing.assert_array_equal(dense, expected)
    np.testing.assert_array_equal(dense @ dense, dense)
    _check_factor_dense(f, 23)


def test_swap_kron_factor_matches_composition():
    rng = rng_for(25)
    m = random_hermitian(rng, (3,)).entries
    f = SwapKronFactor(m)
    ref = np.kron(m, m) @ SwapFactor(3).dense()
    np.testing.assert_allclose(f.dense(), ref, atol=1e-13)
    np.testing.assert_allclose(f.dense(), f.dense().conj().T, atol=1e-13)
    _check_factor_dense(f, 27)
    with pytest.raises(NonHermitianError):
        SwapKronFactor(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_block_reversal_is_swap_composed_with_within_half_swaps():
    s = 2
    f = BlockReversalFactor(s)
    S_half = SwapFactor(s * s).dense()
    K = np.kron(SwapFactor(s).dense(), SwapFactor(s).dense())
    np.testing.assert_array_equal(f.dense(), S_half @ K)
    np.testing.assert_array_equal(f.dense() @ f.dense(), np.eye(s ** 4))
    _check_factor_dense(f, 29)


def test_classical_swap_is_projector_composed_with_within_half_swaps():
    s = 2
    f = ClassicalSwapFactor(s)
    P = ClassicalProjectorFactor(s * s).dense()
    K = np.kron(SwapFactor(s).dense(), SwapFactor(s).dense())
    np.testing.assert_array_equal(f.dense(), P @ K)
    np.testing.assert_allclose(f.dense(), f.dense().conj().T, atol=0)
    _check_factor_dense(f, 31)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: SwapFactor(4),
        lambda: ClassicalProjectorFactor(4),
        lambda: BlockReversalFactor(2),
        lambda: ClassicalSwapFactor(2),
    ],
)
def test_bridge_cond_matches_dense_conditioning(factory):
    # <w,b|T|w,d> computed lazily must match pinning the first half of
    # the dense matrix; the atoms here are half-symmetric so the same
    # matrix must also appear when the second half carries w.
    f = factory()
    half = int(round(np.sqrt(f.dim)))
    assert half * half == f.dim
    rng = rng_for(33)
    dense = f.dense().reshape(half, half, half, half)
    for _ in range(3):
        w = random_unit_vector(rng, half)
        got = f.bridge_cond(w)
        pin_first = np.einsum("a,abcd,c->bd", w.conj(), dense, w)
        pin_second = np.einsum("b,abcd,d->ac", w.conj(), dense, w)
        np.testing.assert_allclose(got, pin_first, atol=1e-13)
        np.testing.assert_allclose(got, pin_second, atol=1e-13)


def test_structured_operator_matvec_matches_dense_small():
    rng = rng_for(35)
    A = random_hermitian(rng, (2,)).entries
    B = random_hermitian(rng, (3,)).entries
    S = StructuredOperator(
        (2, 3, 3),
        [
            (0.8, (DenseFactor(A), DenseFactor(B), IdentityFactor(3))),
            (-0.3, (IdentityFactor(2), SwapFactor(3))),
        ],
    )
    dense = S.to_dense()
    np.testing.assert_allclose(dense, dense.conj().T, atol=1e-13)
    for _ in range(5):
        x = random_unit_vector(rng, 18)
        np.testing.assert_allclose(S.matvec(x), dense @ x, atol=1e-12)
        assert S.expectation(x) == pytest.approx(
            float(np.vdot(x, dense @ x).real), abs=1e-12
        )


def test_structured_operator_matvec_matches_dense_at_cap():
    # total dimension exactly 4096, mixing dense blocks with all the
    # structural atoms that tile it
    rng = rng_for(37)
    A = random_hermitian(rng, (8,)).entries
    B = random_hermitian(rng, (8,)).entries
    S = StructuredOperator(
        (8, 8, 8, 8),
        [
            (0.7, (DenseFactor(A), SwapFactor(8), DenseFactor(B))),
            (-0.4, (BlockReversalFactor(8),)),
            (0.2, (ClassicalSwapFactor(8),)),
            (0.1, (IdentityFactor(64), ClassicalProjectorFactor(8))),
        ],
    )
    assert S.total_dim == 4096
    dense = S.to_dense()
    for _ in range(3):
        x = random_unit_vector(rng, 4096)
        np.testing.assert_allclose(S.matvec(x), dense @ x, atol=1e-12)


def test_structured_operator_scaling_and_addition():
    S = build_structural("swap", 3)
    T = build_structural("classical_projector", 3)
    both = S.scaled(2.0) + T
    np.testing.assert_allclose(
        both.to_dense(), 2.0 * S.to_dense() + T.to_dense(), atol=1e-14
    )
    with pytest.raises(DimensionError):
        S + build_structural("swap", 2)


def test_structured_operator_validates_term_dims():
    with pytest.raises(DimensionError):
        StructuredOperator((2, 2), [(1.0, (IdentityFactor(3),))])
    S = build_structural("swap", 2)
    with pytest.raises(DimensionError):
        S.matvec(np.zeros(5))


def test_build_structural_projector_algebra():
    sym = build_structural("sym_projector", 2)
    asym = build_structural("asym_projector", 2)
    s, a = sym.to_dense(), asym.to_dense()
    np.testing.assert_allclose(s + a, np.eye(16), atol=1e-15)
    np.testing.assert_allclose(s @ s, s, atol=1e-15)
    np.testing.assert_allclose(a @ a, a, atol=1e-15)
    np.testing.assert_allclose(s @ a, np.zeros((16, 16)), atol=1e-15)
    with pytest.raises(ValueError):
        build_structural("nonsense", 2)


def test_dense_factor_validation():
    with pytest.raises(DimensionError):
        DenseFactor(np.zeros((2, 3)))
    with pytest.raises(NonHermitianError):
        DenseFactor(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NonFiniteError):
        DenseFactor(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NonFiniteError):
        SwapKronFactor(np.array([[1.0, 0.0], [0.0, np.inf]]))
