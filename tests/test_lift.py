"""Four-copy constructions: dense cross-checks at small size, the
expectation identities behind the positivity argument, penalty
bookkeeping, and the promotion of touching vectors."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from witnesskit import lift
from witnesskit.families import bell_state_witness
from witnesskit.lift import (
    MAX_LIFT_TOTAL,
    LiftedWitness,
    lift_state,
    lift_witness,
    negative_direction,
    operator_norm,
    projector_sandwich_gap,
    state_expectation_components,
    symmetric_expectation_gap,
)
from witnesskit.operators import (
    DimensionError,
    HermitianOperator,
    inf_norm,
    partial_transpose,
)
from witnesskit.optimize import OptimizerConfig, min_product_expectation
from witnesskit.sampling import (
    random_density,
    random_hermitian,
    random_unit_vector,
    rng_for,
)
from witnesskit.structured import (
    ClassicalProjectorFactor,
    DenseFactor,
    IdentityFactor,
    StructuredOperator,
    SwapFactor,
)
from witnesskit.witness import NotAWitnessError

CFG = OptimizerConfig(restarts=16, seed=0)


def _dense_witness_lift_reference(W, constant):
    """Independent dense form of the witness lift for small sources."""
    w = W.entries
    n = w.shape[0]
    w4 = np.kron(np.kron(w, w), np.kron(w, w))
    V = SwapFactor(n).dense()
    K = np.kron(V, V)
    Y = 0.5 * (w4 + w4 @ K)
    half = n * n
    S = SwapFactor(half).dense()
    return Y + constant * 0.5 * (np.eye(half * half) - S)


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


def test_operator_norm_zero_operator():
    Z = StructuredOperator((2, 2), [(0.0, (IdentityFactor(4),))])
    assert operator_norm(Z) == 0.0


def test_operator_norm_structural_atoms():
    swap = StructuredOperator((4, 4), [(1.0, (SwapFactor(4),))])
    assert operator_norm(swap) == pytest.approx(1.0, abs=1e-7)
    sym = lift._half_swap_sym_projector((2, 2, 2, 2))
    assert operator_norm(sym) == pytest.approx(1.0, abs=1e-7)


def test_operator_norm_matches_dense():
    rng = rng_for(55)
    for side in (3, 16):
        X = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        X = (X + X.conj().T) / 2.0
        S = StructuredOperator((side,), [(1.0, (DenseFactor(X),))])
        ref = float(np.abs(np.linalg.eigvalsh(X)).max())
        assert operator_norm(S) == pytest.approx(ref, rel=1e-6)


def _atom_sum(seed, d, slots, dense, swap, proj, shift):
    """dense H (x) I + swap V (x) I + proj P_cl (x) I + shift I on
    (C^d)^(x slots); the atoms carry degenerate eigenvalues."""
    rest = d ** (slots - 1)
    H = random_hermitian(rng_for(seed, 31), (d,)).entries
    terms = [(dense, (DenseFactor(H), IdentityFactor(rest)))]
    terms.append((shift, (IdentityFactor(d ** slots),)))
    if slots >= 2:
        tail = IdentityFactor(d ** (slots - 2))
        terms.append((swap, (SwapFactor(d), tail)))
        terms.append((proj, (ClassicalProjectorFactor(d), tail)))
    return StructuredOperator((d,) * slots, terms)


_weight = st.floats(-2.0, 2.0, allow_nan=False).map(lambda w: round(w, 3))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(
        [(2, 1), (5, 1), (2, 2), (3, 2), (4, 2), (6, 2), (3, 4), (4, 4), (5, 4)]
    ),
    dense=_weight,
    swap=_weight,
    proj=_weight,
    shift=_weight,
)
# largest |lambda| negative: -1.5 (swap -1, shift -0.5) against +0.5
@example(seed=1, shape=(4, 2), dense=0.0, swap=-1.0, proj=0.0, shift=-0.5)
# degenerate top from atoms alone, at 1,296 dims: V + P_cl has
# eigenvalue 2 with multiplicity d times the tail
@example(seed=2, shape=(6, 4), dense=0.0, swap=1.0, proj=1.0, shift=0.0)
# sides below 8, dense block only
@example(seed=3, shape=(5, 1), dense=1.0, swap=0.0, proj=0.0, shift=-3.0)
def test_operator_norm_matches_dense_eigvalsh(seed, shape, dense, swap, proj, shift):
    S = _atom_sum(seed, *shape, dense, swap, proj, shift)
    ref = float(np.abs(np.linalg.eigvalsh(S.to_dense())).max())
    assert abs(operator_norm(S, seed=seed) - ref) <= 1e-8 * ref + 1e-14


def test_operator_norm_step_cap_raises(monkeypatch):
    monkeypatch.setattr(lift, "_NORM_MAX_STEPS", 2)
    S = _atom_sum(5, 4, 2, 1.0, 0.5, 0.25, 0.0)
    with pytest.raises(ArithmeticError, match="did not settle in 2 steps"):
        operator_norm(S)


def test_operator_norm_holds_three_work_vectors():
    # the memory contract: besides what one matvec needs, the norm holds
    # q, the previous q and w, not a Krylov basis
    S = _atom_sum(7, 8, 4, 1.0, 0.7, 0.4, 0.0)
    vector = 16 * S.total_dim
    x = random_unit_vector(rng_for(7), S.total_dim)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        S.matvec(x)
        matvec_peak = tracemalloc.get_traced_memory()[1] - start
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        operator_norm(S)
        norm_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert S.total_dim >= 4096
    assert norm_peak <= matvec_peak + 3 * vector


# ---------------------------------------------------------------------------
# witness lift
# ---------------------------------------------------------------------------


def test_lift_witness_requires_witness_source():
    with pytest.raises(NotAWitnessError):
        lift_witness(HermitianOperator.identity((2, 2)), cfg=CFG)


def test_lift_witness_budget():
    with pytest.raises(DimensionError):
        lift_witness(HermitianOperator.identity((3, 6)), cfg=CFG)


def test_lift_witness_reference_constant():
    W = bell_state_witness()
    lifted = lift_witness(W, cfg=CFG)
    assert lifted.space == (4, 4, 4, 4)
    assert lifted.source_kind == "witness"
    assert lifted.constant == pytest.approx(162.0 / 4096.0, abs=1e-15)
    assert lifted.y_norm == pytest.approx(81.0 / 4096.0, abs=1e-12)
    assert lifted.constant == pytest.approx(2.0 * inf_norm(W) ** 4, abs=1e-12)
    assert lifted.projector_invariance_gap <= 1e-12
    assert len(lifted.operator.terms) == 4


def _unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.linalg.qr(g)[0]


@settings(derandomize=True, deadline=None, max_examples=12)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 2), (2, 3)]),
    ratio=st.floats(0.3, 1.0),
    mix=st.floats(0.0, 0.05),
)
def test_witness_lift_norm_is_fourth_power(seed, dims, ratio, mix):
    # W = (psi psi^dag)^Gamma + mix rho: psi has Schmidt coefficients
    # (1, ratio) under random local unitaries, so W keeps a negative
    # eigenvalue while product expectations stay nonnegative
    rng = rng_for(seed, 33)
    d_a, d_b = dims
    schmidt = np.array([1.0, ratio]) / np.hypot(1.0, ratio)
    u, v = _unitary(rng, d_a), _unitary(rng, d_b)
    psi = sum(c * np.kron(u[:, k], v[:, k]) for k, c in enumerate(schmidt))
    pure = HermitianOperator(dims, np.outer(psi, psi.conj()))
    W = partial_transpose(pure) + mix * random_density(rng, dims)
    lifted = lift_witness(W, cfg=OptimizerConfig(restarts=4, seed=0))
    closed = inf_norm(W) ** 4
    assert abs(operator_norm(lifted.symmetric_part) - closed) <= 1e-8 * closed
    assert lifted.y_norm == pytest.approx(closed, rel=1e-14)


def test_lift_witness_dense_agreement():
    W = bell_state_witness()
    lifted = lift_witness(W, cfg=CFG)
    ref = _dense_witness_lift_reference(W, lifted.constant)
    np.testing.assert_allclose(lifted.operator.to_dense(), ref, atol=1e-12)


def test_lift_witness_expectation_identity_and_diagonal_floor():
    W = bell_state_witness()
    lifted = lift_witness(W, cfg=CFG)
    assert symmetric_expectation_gap(lifted, n_probes=50, seed=1) <= 1e-10
    rng = rng_for(57)
    for _ in range(200):
        u = random_unit_vector(rng, 16)
        assert lifted.operator.expectation(np.kron(u, u)) >= -1e-10


def test_lift_witness_keeps_negative_direction():
    W = bell_state_witness()
    lifted = lift_witness(W, cfg=CFG)
    vec, val = negative_direction(lifted)
    assert val <= -1e-4
    assert val == pytest.approx(-27.0 / 4096.0, abs=1e-12)
    assert lifted.operator.expectation(vec) == pytest.approx(val, abs=1e-12)


def test_lift_witness_product_floor_nonnegative():
    lifted = lift_witness(bell_state_witness(), cfg=CFG)
    mp = min_product_expectation(lifted.operator, CFG)
    assert mp.value >= -1e-7


def test_lift_witness_scaling_covariance():
    W = bell_state_witness()
    base = lift_witness(W, cfg=CFG)
    scaled = lift_witness(3.0 * W, cfg=CFG)
    assert scaled.constant == pytest.approx(81.0 * base.constant, rel=1e-12)
    assert scaled.y_norm == pytest.approx(81.0 * base.y_norm, rel=1e-12)


def test_lift_witness_constant_override_and_guard():
    W = bell_state_witness()
    lifted = lift_witness(W, C=0.05, cfg=CFG)
    assert lifted.constant == 0.05
    # C >= 2 ||Y|| = 162/4096 is required; 0.03 lies above ||Y|| but below it
    for low in (0.001, 0.03):
        with pytest.raises(ValueError, match="twice the norm"):
            lift_witness(W, C=low, cfg=CFG)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            lift_witness(W, C=bad, cfg=CFG)


def test_lift_inherits_touching_vector():
    # the half swap is itself a weakly optimal witness; its touching
    # vectors promote to exact zeros of the lift
    V = HermitianOperator((2, 2), SwapFactor(2).dense())
    lifted = lift_witness(V, cfg=CFG)
    z = np.zeros(4)
    z[1] = 1.0  # |0>|1>, orthogonal product pair
    zz = np.kron(z, z)
    assert lifted.operator.expectation(np.kron(zz, zz)) == 0.0
    mp = min_product_expectation(lifted.operator, CFG)
    assert mp.value >= -1e-9
    assert mp.value <= 1e-7  # the explicit zero above caps the true minimum


# ---------------------------------------------------------------------------
# state lift
# ---------------------------------------------------------------------------


def _small_state():
    return HermitianOperator((1, 2), np.eye(2) / 2.0)


def test_lift_state_validates_inputs():
    rho = _small_state()
    with pytest.raises(ValueError):
        lift_state(rho, 0.0, 1.0, 1.0, cfg=CFG)
    with pytest.raises(ValueError):
        lift_state(rho, 1.0, -1.0, 1.0, cfg=CFG)
    with pytest.raises(ValueError):
        lift_state(rho, 1.0, 1.0, 0.0, cfg=CFG)
    nan, inf = float("nan"), float("inf")
    for weights in ((nan, 1.0, 1.0), (1.0, nan, 1.0), (1.0, 1.0, nan), (inf, 1.0, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            lift_state(rho, *weights, cfg=CFG)
    for bad in (nan, inf):
        with pytest.raises(ValueError, match="finite"):
            lift_state(rho, 1.0, 1.0, 1.0, C=bad, cfg=CFG)
    # diagonal floor cap: gamma may not exceed beta * s^2
    with pytest.raises(ValueError):
        lift_state(rho, 1.0, 1.0, 17.0, cfg=CFG)
    lift_state(rho, 1.0, 1.0, 16.0, cfg=CFG)
    with pytest.raises(ValueError):
        lift_state(HermitianOperator((1, 2), np.eye(2)), 1.0, 1.0, 1.0, cfg=CFG)
    minus = np.diag([1.5, -0.5])
    with pytest.raises(ValueError):
        lift_state(HermitianOperator((1, 2), minus), 1.0, 1.0, 1.0, cfg=CFG)


def test_lift_state_budget():
    rho = HermitianOperator((2, 3), np.eye(6) / 6.0)
    with pytest.raises(DimensionError):
        lift_state(rho, 1.0, 1.0, 1.0, cfg=CFG)


def test_lift_state_dense_structure():
    rho = _small_state()
    lifted = lift_state(rho, 1.0, 1.0, 1.0, cfg=CFG)
    s = 4
    m = s * s
    assert lifted.space == (s, s, s, s)
    assert lifted.params == (1.0, 1.0, 1.0)

    # independent dense reference: symmetrized state block plus the
    # two balance terms, halved with the within-half involution, plus
    # the genuine half-swap penalty
    rho_t = np.kron(rho.entries, rho.entries)
    B = np.kron(rho_t, rho_t)
    P_w = np.zeros((m, m))
    idx = np.arange(s) * (s + 1)
    P_w[idx, idx] = 1.0
    S_half = SwapFactor(m).dense()
    P_x = np.zeros((m * m, m * m))
    jdx = np.arange(m) * (m + 1)
    P_x[jdx, jdx] = 1.0
    A = (
        0.5 * (np.kron(B, P_w) + np.kron(P_w, B))
        + (S_half - P_x)
        + (P_x - np.eye(m * m) / m)
    )
    K = np.kron(SwapFactor(s).dense(), SwapFactor(s).dense())
    Y_ref = 0.5 * (A + A @ K)
    W_ref = Y_ref + lifted.constant * 0.5 * (np.eye(m * m) - S_half)

    np.testing.assert_allclose(lifted.symmetric_part.to_dense(), Y_ref, atol=1e-13)
    np.testing.assert_allclose(lifted.operator.to_dense(), W_ref, atol=1e-13)
    # the S-commutation that the positivity argument leans on
    np.testing.assert_allclose(Y_ref @ S_half, S_half @ Y_ref, atol=1e-13)
    # the full construction is PSD for this source
    assert np.linalg.eigvalsh(W_ref)[0] >= -1e-12
    assert lifted.y_norm == pytest.approx(
        float(np.abs(np.linalg.eigvalsh(Y_ref)).max()), abs=1e-8
    )


@settings(derandomize=True, deadline=None, max_examples=10)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(1, 2), (2, 1), (2, 2)]),
    alpha=st.floats(0.05, 3.0),
    beta=st.floats(0.05, 3.0),
    gamma=st.floats(0.05, 3.0),
)
@example(seed=None, dims=(2, 2), alpha=1.0, beta=1.0, gamma=1.0)  # the probe's I/4
def test_state_lift_y_norm_is_below_its_proven_bound(seed, dims, alpha, beta, gamma):
    # y_norm is a Lanczos Ritz value, at or below ||Y||; y_norm_bound is
    # the triangle inequality over the merged terms, at or above it
    if seed is None:
        rho = HermitianOperator(dims, np.eye(4) / 4.0)
    else:
        rho = random_density(rng_for(seed), dims)
    s = rho.side**2
    lifted = lift_state(rho, alpha, beta, min(gamma, beta * s * s), cfg=CFG)
    assert lifted.y_norm <= lifted.y_norm_bound
    if lifted.operator.total_dim <= 256:
        exact = np.abs(np.linalg.eigvalsh(lifted.symmetric_part.to_dense())).max()
        assert exact <= lifted.y_norm_bound


def test_witness_lift_y_norm_bound_is_the_closed_form():
    lifted = lift_witness(bell_state_witness(), cfg=CFG)
    assert lifted.y_norm_bound == lifted.y_norm == lift._witness_lift_norm(bell_state_witness())


def test_lift_state_diagonal_floor():
    lifted = lift_state(_small_state(), 1.0, 1.0, 1.0, cfg=CFG)
    rng = rng_for(59)
    for _ in range(200):
        u = random_unit_vector(rng, 16)
        assert lifted.symmetric_part.expectation(np.kron(u, u)) >= -1e-10
        assert lifted.operator.expectation(np.kron(u, u)) >= -1e-10


def test_lift_state_component_split_is_linear():
    rho = _small_state()
    a = lift_state(rho, 1.0, 1.0, 1.0, cfg=CFG)
    b = lift_state(rho, 2.0, 3.0, 5.0, cfg=CFG)
    rng = rng_for(61)
    for _ in range(20):
        u = random_unit_vector(rng, 16)
        ea, eb, eg = state_expectation_components(a, u)
        whole_a = a.symmetric_part.expectation(np.kron(u, u))
        whole_b = b.symmetric_part.expectation(np.kron(u, u))
        assert whole_a == pytest.approx(ea + eb + eg, abs=1e-10)
        assert whole_b == pytest.approx(2 * ea + 3 * eb + 5 * eg, abs=1e-10)
        # every component stays nonnegative on diagonal vectors
        assert ea >= -1e-12
        assert eb >= -1e-10
        assert eg >= -1e-10


def test_lift_state_component_split_guards():
    witness_lift = lift_witness(bell_state_witness(), cfg=CFG)
    with pytest.raises(ValueError):
        state_expectation_components(witness_lift, np.zeros(16))
    state_lift = lift_state(_small_state(), 1.0, 1.0, 1.0, cfg=CFG)
    with pytest.raises(DimensionError):
        state_expectation_components(state_lift, np.zeros(8))
    with pytest.raises(ValueError):
        symmetric_expectation_gap(state_lift)
    with pytest.raises(ValueError):
        negative_direction(state_lift)


def test_lift_state_product_floor_small():
    lifted = lift_state(_small_state(), 1.0, 1.0, 1.0, cfg=CFG)
    mp = min_product_expectation(
        lifted.operator, OptimizerConfig(restarts=8, seed=0), dims=(16, 16)
    )
    assert mp.value >= -1e-9


def test_lift_state_entangled_source_stays_constructible():
    rng = rng_for(63)
    rho = random_density(rng, (2, 2))
    lifted = lift_state(rho, 1.0, 1.0, 1.0, cfg=CFG)
    assert lifted.space == (16, 16, 16, 16)
    assert lifted.operator.total_dim == MAX_LIFT_TOTAL


def test_sandwich_probe_flags_lopsided_operator():
    # an operator that is not half-swap symmetric is moved by the sandwich
    lopsided = StructuredOperator(
        (2, 2, 2, 2),
        [(1.0, (DenseFactor(np.diag([1.0, 2.0])), IdentityFactor(8)))],
    )
    assert projector_sandwich_gap(lopsided) > 1e-3


def test_lifted_witness_invariant_guard():
    base = lift_witness(bell_state_witness(), cfg=CFG)
    for constant in (base.y_norm / 2.0, base.y_norm, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            LiftedWitness(
                operator=base.operator,
                symmetric_part=base.symmetric_part,
                asym_projector=base.asym_projector,
                constant=constant,
                y_norm=base.y_norm,
                space=base.space,
                source_kind="witness",
                source=base.source,
            )
