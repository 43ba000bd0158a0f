"""End-to-end checks of the package's headline results.

Each criterion runs as one test function so `pytest -v` reports one
pass/fail line per criterion.  Every numeric claim uses the tolerance
it is specified with, and each test enforces its runtime budget.
"""

import time

import numpy as np
import pytest

from witnesskit.families import (
    bell_state_witness,
    choi_sigma,
    get_case,
    run_case,
    sigma1,
    sigma2,
    two_block_witness,
    two_block_zero_product,
    w_xyz,
    werner_state,
    isotropic_witness,
)
from witnesskit.lift import (
    lift_state,
    lift_witness,
    negative_direction,
    state_expectation_components,
    symmetric_expectation_gap,
)
from witnesskit.operators import (
    HermitianOperator,
    eig_hermitian,
    inf_norm,
    partial_transpose,
    product_expectation,
)
from witnesskit.optimize import (
    OptimizerConfig,
    decomposition_search,
    grid_oracle_minprod,
    min_product_expectation,
    ppt_violation_search,
)
from witnesskit.sampling import (
    random_hermitian,
    random_product_mixture,
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
)
from witnesskit.witness import NotAWitnessError, classify, witness_from_separable

CFG64 = OptimizerConfig(restarts=64, seed=0)


def test_criterion_1_product_infimum_reference_values():
    t0 = time.perf_counter()
    for sigma, expected in ((sigma1(), 0.5), (sigma2(), 0.6)):
        mp = min_product_expectation(sigma, CFG64)
        assert abs(mp.value - expected) <= 1e-6
        pt_min = eig_hermitian(partial_transpose(sigma)).lambda_min
        assert abs(mp.value - pt_min) <= 1e-6
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_choi_spectrum_and_product_floor():
    t0 = time.perf_counter()
    base = w_xyz(1.0, 1.0, 0.0)
    expected = np.array([-1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0])
    np.testing.assert_allclose(
        eig_hermitian(base.operator).eigenvalues, expected, atol=1e-9
    )
    sigma = choi_sigma()
    assert abs(eig_hermitian(sigma).lambda_min - 1.0) <= 1e-9
    golden = (5.0 - np.sqrt(5.0)) / 2.0
    assert abs(eig_hermitian(partial_transpose(sigma)).lambda_min - golden) <= 1e-9
    assert abs(min_product_expectation(sigma, CFG64).value - 2.0) <= 1e-6
    assert (
        abs(min_product_expectation(partial_transpose(sigma), CFG64).value - 2.0)
        <= 1e-6
    )
    assert time.perf_counter() - t0 < 5.0


def test_criterion_3_werner_detection_identity_grid():
    t0 = time.perf_counter()
    q_grid = np.linspace(-1.0 / 3.0, 0.0, 13)[1:12]  # open interval, 11 points
    p_grid = np.linspace(0.0, 1.0, 11)
    for q in q_grid:
        W = isotropic_witness(q)
        for p in p_grid:
            rho = werner_state(p)
            value = float(np.trace(W.entries @ rho.entries).real)
            assert abs(value - (3.0 * p - 1.0) * q / 4.0) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_4_two_block_zero_product_and_decomposition():
    t0 = time.perf_counter()
    W = two_block_witness(1.0, 1.0)
    assert abs(product_expectation(W, two_block_zero_product())) <= 1e-12
    report = classify(W, CFG64)
    assert report.is_witness
    assert report.weakly_optimal
    dec = decomposition_search(W)
    assert dec.success
    assert dec.residual <= 1e-7
    assert time.perf_counter() - t0 < 5.0


def test_criterion_5_witness_lift_two_qubit_scale():
    t0 = time.perf_counter()
    W = bell_state_witness()
    lifted = lift_witness(W, cfg=CFG64)
    assert lifted.space == (4, 4, 4, 4)  # two C16 halves
    assert abs(lifted.constant - 162.0 / 4096.0) <= 1e-9
    assert abs(lifted.constant - 2.0 * inf_norm(W) ** 4) <= 1e-9
    assert symmetric_expectation_gap(lifted, n_probes=100, seed=0) <= 1e-10
    mp = min_product_expectation(lifted.operator, CFG64)
    assert mp.value >= -1e-7
    _, neg = negative_direction(lifted)
    assert neg <= -1e-4
    case = run_case(get_case("lift-penalty-sign"), CFG64)
    assert case.status == "documented-discrepancy"
    assert time.perf_counter() - t0 < 30.0


def test_criterion_6_property_suite():
    t0 = time.perf_counter()
    cfg = OptimizerConfig(restarts=24, seed=0)

    # partial transpose is an exact involution and preserves the trace
    rng = rng_for(401)
    for dims in ((2, 2), (2, 3), (3, 3)):
        X = random_hermitian(rng, dims)
        pt = partial_transpose(X)
        assert np.array_equal(partial_transpose(pt).entries, X.entries)
        assert pt.trace() == X.trace()

    # product infimum is shift/scale covariant
    for dims in ((2, 2), (2, 3)):
        X = random_hermitian(rng, dims)
        base = min_product_expectation(X, cfg).value
        shifted = min_product_expectation(X.shifted(0.7), cfg).value
        scaled = min_product_expectation(2.5 * X, cfg).value
        assert abs(shifted - (base - 0.7)) <= 1e-9
        assert abs(scaled - 2.5 * base) <= 1e-9

    # product infimum is invariant under partial transposition
    from witnesskit.witness import check_pt_invariance

    for k in range(50):
        dims = (2, 2) if k < 25 else (2, 3)
        X = random_hermitian(rng_for(402, k), dims)
        rep = check_pt_invariance(X, cfg, atol=1e-8)
        assert rep.agree, f"gap {rep.gap:.3e} on draw {k}"

    # see-saw agrees with an independent brute-force grid scan
    for k in range(20):
        X = random_hermitian(rng_for(403, k), (2, 2))
        mp = min_product_expectation(X, cfg).value
        oracle = grid_oracle_minprod(X, resolution=256)
        assert abs(mp - oracle) <= 5e-3, f"gap {abs(mp - oracle):.2e} on draw {k}"

    # structured matvec agrees with dense up to the 4096-dim cap
    rng = rng_for(404)
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
        assert np.abs(S.matvec(x) - dense @ x).max() <= 1e-12

    assert time.perf_counter() - t0 < 120.0


def _separable_draws(seed, dims, count, cfg):
    """Random separable mixtures whose shift window is wide enough to
    place a witness 0.05 below the product infimum."""
    out = []
    attempt = 0
    while len(out) < count and attempt < 300:
        rng = rng_for(seed, attempt)
        attempt += 1
        n_terms = int(rng.integers(2, 7))
        sigma = random_product_mixture(rng, dims, n_terms)
        mp = min_product_expectation(sigma, cfg).value
        # same eigenvalue routine the rejection gate uses, so that
        # c = lambda_min lands exactly on the boundary it tests
        lam = float(np.linalg.eigvalsh(sigma.entries)[0])
        if mp - lam > 0.055:
            out.append((sigma, mp, lam))
    assert len(out) == count, f"only {len(out)} usable draws after {attempt}"
    return out


def test_criterion_7_separable_shift_window():
    t0 = time.perf_counter()
    cfg = OptimizerConfig(restarts=32, seed=0)
    draws = _separable_draws(405, (2, 2), 10, cfg) + _separable_draws(
        406, (2, 3), 10, cfg
    )
    for sigma, mp, lam in draws:
        exact = witness_from_separable(sigma, mp, cfg)
        report = classify(exact.operator, cfg)
        assert report.is_witness and report.weakly_optimal
        inside = witness_from_separable(sigma, mp - 0.05, cfg)
        report = classify(inside.operator, cfg)
        assert report.is_witness and not report.weakly_optimal
        with pytest.raises(NotAWitnessError):
            witness_from_separable(sigma, lam, cfg)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_8_ppt_violation_certificate():
    t0 = time.perf_counter()
    W = w_xyz(1.0, 1.0, 0.0).operator
    violation = ppt_violation_search(W, CFG64).violation
    assert violation is not None
    assert violation.value < -1e-4
    rho = violation.state
    assert abs(rho.trace() - 1.0) <= 1e-9
    assert eig_hermitian(rho).lambda_min >= -1e-9
    assert eig_hermitian(partial_transpose(rho)).lambda_min >= -1e-9
    measured = float(np.trace(W.entries @ rho.entries).real)
    assert abs(measured - violation.value) <= 1e-10
    assert time.perf_counter() - t0 < 120.0


def test_criterion_9_state_lift_full_scale_probe():
    t0 = time.perf_counter()
    cfg = OptimizerConfig(restarts=4, seed=0, max_sweeps=80)
    rho = HermitianOperator((2, 2), np.eye(4) / 4.0)
    lifted = lift_state(rho, 1.0, 1.0, 1.0, cfg=cfg)
    assert lifted.operator.total_dim == 65536
    half = lifted.space[0] * lifted.space[1]
    rng = rng_for(407)
    for _ in range(20):
        u = random_unit_vector(rng, half)
        ea, eb, eg = state_expectation_components(lifted, u)
        whole = lifted.symmetric_part.expectation(np.kron(u, u))
        assert abs(whole - (ea + eb + eg)) <= 1e-10
    mp = min_product_expectation(lifted.operator, cfg, dims=(half, half))
    assert mp.value >= -1e-6
    assert time.perf_counter() - t0 < 120.0
