"""Matrix-free tensor terms: every factor's lazy action must agree
with its dense form, including the closed-form conditioned matrices
used by the see-saw bridge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witnesskit import lift
from witnesskit.lift import lift_state
from witnesskit.operators import DimensionError, NonFiniteError, NonHermitianError
from witnesskit.sampling import (
    random_density,
    random_hermitian,
    random_unit_vector,
    rng_for,
)
from witnesskit.structured import (
    BlockReversalFactor,
    ClassicalProjectorFactor,
    ClassicalSwapFactor,
    DenseFactor,
    IdentityFactor,
    StructuredOperator,
    SwapFactor,
    SwapKronFactor,
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
        got = np.zeros((half, half), dtype=np.complex128)
        f.add_bridge_cond(got, 1.0, w, np.outer(w, w.conj()))
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


def _swap(d):
    return StructuredOperator((d, d), [(1.0, (SwapFactor(d),))])


def test_structured_operator_scaling_and_addition():
    S = _swap(3)
    T = StructuredOperator((3, 3), [(1.0, (ClassicalProjectorFactor(3),))])
    both = S.scaled(2.0) + T
    np.testing.assert_allclose(
        both.to_dense(), 2.0 * S.to_dense() + T.to_dense(), atol=1e-14
    )
    with pytest.raises(DimensionError):
        S + _swap(2)


def test_structured_operator_validates_term_dims():
    with pytest.raises(DimensionError):
        StructuredOperator((2, 2), [(1.0, (IdentityFactor(3),))])
    with pytest.raises(DimensionError):
        _swap(2).matvec(np.zeros(5))


def test_negated_structured_operator_is_scaled_by_minus_one():
    S = _swap(3).scaled(2.0) + StructuredOperator((3, 3), [(1.0, (ClassicalProjectorFactor(3),))])
    neg = -S
    assert isinstance(neg, StructuredOperator)
    np.testing.assert_array_equal(neg.to_dense(), S.scaled(-1.0).to_dense())
    np.testing.assert_array_equal(neg.to_dense(), -S.to_dense())


def test_factor_blocks_must_be_square_and_nonempty():
    # every Hermitian block goes through one validator, so the swap-kron
    # block is held to the dense factor's shape check too
    for factory in (DenseFactor, SwapKronFactor):
        with pytest.raises(DimensionError):
            factory(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            factory(np.zeros(4))
        with pytest.raises(DimensionError):
            factory(np.zeros((0, 0)))


def test_factor_norms_match_dense():
    # norm() is the 2-norm of the factor's dense form: a singular value
    # for a block, ||m||^2 for (m (x) m) V, 1 for every structural atom
    rng = rng_for(67)
    m = random_hermitian(rng, (3,)).entries
    factors = [
        DenseFactor(m),
        SwapKronFactor(m),
        IdentityFactor(4),
        SwapFactor(3),
        ClassicalProjectorFactor(3),
        BlockReversalFactor(2),
        ClassicalSwapFactor(2),
    ]
    for f in factors:
        assert f.norm() == pytest.approx(np.linalg.norm(f.dense(), 2), rel=1e-13)


def test_half_involution_projector_algebra():
    # (1/2)(I (x) I +- V (x) V) on (C^2 (x) C^2)^(x2); the lift's sandwich
    # projector is the + sign
    sym, asym = (
        StructuredOperator(
            (2, 2, 2, 2),
            [
                (0.5, (IdentityFactor(4), IdentityFactor(4))),
                (0.5 * sign, (SwapFactor(2), SwapFactor(2))),
            ],
        )
        for sign in (1.0, -1.0)
    )
    s, a = sym.to_dense(), asym.to_dense()
    np.testing.assert_array_equal(lift._half_swap_sym_projector((2, 2, 2, 2)).to_dense(), s)
    np.testing.assert_allclose(s + a, np.eye(16), atol=1e-15)
    np.testing.assert_allclose(s @ s, s, atol=1e-15)
    np.testing.assert_allclose(a @ a, a, atol=1e-15)
    np.testing.assert_allclose(s @ a, np.zeros((16, 16)), atol=1e-15)
    with pytest.raises(DimensionError):
        lift._half_swap_sym_projector((2, 2, 2, 3))


def test_dense_factor_validation():
    with pytest.raises(DimensionError):
        DenseFactor(np.zeros((2, 3)))
    with pytest.raises(NonHermitianError):
        DenseFactor(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NonFiniteError):
        DenseFactor(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NonFiniteError):
        SwapKronFactor(np.array([[1.0, 0.0], [0.0, np.inf]]))


# Atoms that cover k consecutive slots of (C^s)^(x4), as (k, build(s, rng)).
_SLOT_ATOMS = (
    (1, lambda s, rng: IdentityFactor(s)),
    (1, lambda s, rng: DenseFactor(random_hermitian(rng, (s,)).entries)),
    (2, lambda s, rng: IdentityFactor(s * s)),
    (2, lambda s, rng: DenseFactor(random_hermitian(rng, (s * s,)).entries)),
    (2, lambda s, rng: SwapFactor(s)),
    (2, lambda s, rng: ClassicalProjectorFactor(s)),
    (2, lambda s, rng: SwapKronFactor(random_hermitian(rng, (s,)).entries)),
    (3, lambda s, rng: IdentityFactor(s ** 3)),
    (4, lambda s, rng: IdentityFactor(s ** 4)),
    (4, lambda s, rng: SwapFactor(s * s)),
    (4, lambda s, rng: ClassicalProjectorFactor(s * s)),
    (4, lambda s, rng: SwapKronFactor(random_hermitian(rng, (s * s,)).entries)),
    (4, lambda s, rng: BlockReversalFactor(s)),
    (4, lambda s, rng: ClassicalSwapFactor(s)),
)


def _draw_atoms(rng):
    """Indices into ``_SLOT_ATOMS`` tiling the four slots left to right,
    each drawn uniformly from the atoms that fit the slots still open."""
    picks, left = [], 4
    while left:
        fits = [i for i, (k, _) in enumerate(_SLOT_ATOMS) if k <= left]
        picks.append(fits[rng.integers(len(fits))])
        left -= _SLOT_ATOMS[picks[-1]][0]
    return picks


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.sampled_from([2, 3, 4, 5, 6]),
    n_terms=st.integers(2, 6),
)
def test_structured_matvec_matches_dense(seed, s, n_terms):
    # random terms over every atom on (C^s)^(x4), up to 1,296 dims; every
    # operator holds an identity-only term and a term of two partial
    # permutations, and terms repeat, either as the same factor objects
    # (equal by identity) or as a fresh build of the same atoms
    # (structural atoms equal by type and dim)
    rng = rng_for(seed)
    terms = [
        (0.5, (IdentityFactor(s * s), IdentityFactor(s), IdentityFactor(s))),
        (-0.7, (ClassicalProjectorFactor(s), ClassicalProjectorFactor(s))),
    ]
    for _ in range(n_terms):
        picks = _draw_atoms(rng)
        factors = tuple(_SLOT_ATOMS[i][1](s, rng) for i in picks)
        terms.append((float(rng.uniform(-2.0, 2.0)), factors))
        repeat = rng.integers(3)
        if repeat == 1:
            terms.append((float(rng.uniform(-2.0, 2.0)), factors))
        elif repeat == 2:
            rebuilt = tuple(_SLOT_ATOMS[i][1](s, rng) for i in picks)
            terms.append((float(rng.uniform(-2.0, 2.0)), rebuilt))
    S = StructuredOperator((s,) * 4, terms)
    assert len(S.terms) == len(terms)
    dense = S.to_dense()
    for _ in range(2):
        x = random_unit_vector(rng, s ** 4)
        ref = dense @ x
        assert np.abs(S.matvec(x) - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def _axis_action(f, y):
    """Factor f on the middle axis of y, shaped (pre, f.dim, post), by
    einsum over its index structure."""
    pre, _, post = y.shape
    if isinstance(f, IdentityFactor):
        return y
    if isinstance(f, DenseFactor):
        return np.einsum("ij,pjq->piq", f.matrix, y)
    if isinstance(f, SwapFactor):
        return np.einsum("pabq->pbaq", y.reshape(pre, f.d, f.d, post))
    if isinstance(f, ClassicalProjectorFactor):
        e = np.eye(f.d)
        return np.einsum("ab,pabq->pabq", e, y.reshape(pre, f.d, f.d, post))
    if isinstance(f, SwapKronFactor):
        y4 = y.reshape(pre, f.n, f.n, post)
        return np.einsum("ac,bd,pdcq->pabq", f.block, f.block, y4, optimize=True)
    y6 = y.reshape(pre, f.s, f.s, f.s, f.s, post)
    if isinstance(f, BlockReversalFactor):
        return np.einsum("pabcdq->pdcbaq", y6)
    assert isinstance(f, ClassicalSwapFactor)
    e = np.eye(f.s)
    return np.einsum("ac,bd,pbabaq->pabcdq", e, e, y6)


def _einsum_matvec(S, x):
    """sum_t c_t (F_t1 (x) F_t2 (x) ...) x, term by term, axis by axis."""
    out = np.zeros(x.size, dtype=np.complex128)
    for coeff, factors in S.terms:
        y, pre = x, 1
        for f in factors:
            post = x.size // (pre * f.dim)
            y = _axis_action(f, y.reshape(pre, f.dim, post))
            pre *= f.dim
        out += coeff * y.reshape(-1)
    return out


def test_lift_operators_match_einsum_reference_at_full_scale():
    # the 65,536-dim state lift (merged identity and swap terms, four
    # partial-permutation terms) and a witness-shaped lift on (C^16)^(x4)
    rng = rng_for(39)
    rho = random_density(rng, (2, 2))
    state = lift_state(rho, 1.0, 0.7, 1.3).operator
    W = random_hermitian(rng, (4, 4)).entries
    block, cross, half = DenseFactor(W), SwapKronFactor(W), 256
    witness = StructuredOperator(
        (16, 16, 16, 16),
        [
            (0.5, (block, block, block, block)),
            (0.5, (cross, cross)),
            (0.75, (IdentityFactor(half), IdentityFactor(half))),
            (-0.75, (SwapFactor(half),)),
        ],
    )
    for S in (state, witness):
        assert S.total_dim == 65536
        x = random_unit_vector(rng, S.total_dim)
        ref = _einsum_matvec(S, x)
        assert np.abs(S.matvec(x) - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def test_merge_keys_structural_atoms_by_type_and_dim():
    # V_2 (x) V_4 and V_4 (x) V_2 tile 64 dims with the same atom types
    # in the same order, so only the dims keep them apart; runs of
    # identities fuse, so differently tiled identities merge
    S = StructuredOperator(
        (64,),
        [
            (0.5, (SwapFactor(2), SwapFactor(4))),
            (-1.5, (SwapFactor(4), SwapFactor(2))),
            (0.25, (IdentityFactor(4), IdentityFactor(16))),
            (0.75, (IdentityFactor(16), IdentityFactor(4))),
        ],
    )
    assert len(S._plan) == 3
    dense = S.to_dense()
    rng = rng_for(41)
    for _ in range(2):
        x = random_unit_vector(rng, 64)
        np.testing.assert_allclose(S.matvec(x), dense @ x, atol=1e-13)
