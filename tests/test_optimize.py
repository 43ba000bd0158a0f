"""Search-layer behavior: see-saw floors, structured kernels, zero
collection, the grid cross-check, PPT violation search, and the
decomposition splitter."""

import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from witnesskit import optimize
from witnesskit.families import (
    bell_state_witness,
    choi_sigma,
    sigma1,
    two_block_witness,
    two_block_witness_optimal,
    w_xyz,
)
from witnesskit.lift import lift_state, lift_witness
from witnesskit.operators import (
    DimensionError,
    HermitianOperator,
    ProductVector,
    conditioned_matrix,
    partial_transpose,
    product_expectation,
)
from witnesskit.optimize import (
    OptimizerConfig,
    _ground_pair,
    _krylov_ground_pair,
    _SplitKernel,
    collect_zero_products,
    decomposition_search,
    grid_oracle_minprod,
    max_product_expectation,
    min_product_expectation,
    ppt_violation_search,
    spanning_rank,
)
from witnesskit.sampling import (
    random_density,
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

CFG = OptimizerConfig(restarts=16, seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tol_zero=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            OptimizerConfig(tol_zero=bad)
        with pytest.raises(ValueError):
            OptimizerConfig(tol_converge=bad)
    with pytest.raises(ValueError):
        OptimizerConfig(max_sweeps=0)
    assert OptimizerConfig(restarts=4096).restarts == 4096
    with pytest.raises(ValueError, match="4096"):
        OptimizerConfig(restarts=4097)


def test_config_rejects_non_integer_counts():
    # a float count used to pass here and fail deep in the search with
    # "'float' object cannot be interpreted as an integer"
    for field in ("restarts", "max_sweeps"):
        for bad in (2.5, 3.0, np.float64(4.0), True, np.bool_(True), "8"):
            with pytest.raises(ValueError, match="integers"):
                OptimizerConfig(**{field: bad})
    cfg = OptimizerConfig(restarts=np.int64(4), max_sweeps=np.int32(60))
    assert cfg.restarts == 4 and cfg.max_sweeps == 60
    assert min_product_expectation(sigma1(), cfg).value == pytest.approx(0.5, abs=1e-6)


def test_max_product_expectation_rejects_unsupported_operands():
    with pytest.raises(TypeError, match="unsupported operand type"):
        max_product_expectation(np.eye(4), CFG)


def test_minprod_known_floor():
    res = min_product_expectation(sigma1(), CFG)
    assert res.value == pytest.approx(0.5, abs=1e-6)
    assert res.converged
    assert res.restarts_used == CFG.restarts
    assert product_expectation(sigma1(), res.argmin) == pytest.approx(
        res.value, abs=1e-10
    )


def test_minprod_deterministic_per_seed():
    a = min_product_expectation(sigma1(), OptimizerConfig(restarts=8, seed=5))
    b = min_product_expectation(sigma1(), OptimizerConfig(restarts=8, seed=5))
    assert a.value == b.value
    np.testing.assert_array_equal(a.argmin.u, b.argmin.u)
    np.testing.assert_array_equal(a.argmin.v, b.argmin.v)


def test_max_is_negated_min():
    rng = rng_for(41)
    X = random_hermitian(rng, (2, 3))
    lo = min_product_expectation(X, CFG)
    hi = max_product_expectation(X, CFG)
    assert hi.value >= lo.value
    neg = max_product_expectation(-X, CFG)
    assert neg.value == pytest.approx(-lo.value, abs=1e-9)


def test_minprod_bounded_by_eigenvalues():
    rng = rng_for(43)
    for _ in range(5):
        X = random_hermitian(rng, (2, 2))
        vals = np.linalg.eigvalsh(X.entries)
        res = min_product_expectation(X, CFG)
        assert vals[0] - 1e-9 <= res.value <= vals[-1] + 1e-9


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
    a=st.floats(0.1, 10.0),
    c=st.floats(-2.0, 2.0),
)
def test_minprod_shift_and_scale_covariance(seed, dims, a, c):
    # <u,v|a X - c I|u,v> = a <u,v|X|u,v> - c on unit products, so the
    # see-saw from the same seeded starts follows the same path
    X = random_hermitian(rng_for(seed), dims)
    cfg = OptimizerConfig(restarts=8, seed=0)
    v = min_product_expectation(X, cfg).value
    moved = HermitianOperator(dims, a * X.entries - c * np.eye(X.side))
    expected = a * v - c
    assert abs(min_product_expectation(moved, cfg).value - expected) <= 1e-9 * (1.0 + abs(expected))


def test_structured_kernel_matches_dense_kernel():
    rng = rng_for(45)
    A = random_hermitian(rng, (4,)).entries
    B = random_hermitian(rng, (4,)).entries
    S = StructuredOperator(
        (2, 2, 2, 2),
        [
            (1.0, (DenseFactor(A), DenseFactor(B))),
            (0.5, (IdentityFactor(4), DenseFactor(B))),
        ],
    )
    dense = HermitianOperator((4, 4), S.to_dense())
    got = min_product_expectation(S, CFG, dims=(4, 4))
    ref = min_product_expectation(dense, CFG)
    assert got.value == pytest.approx(ref.value, abs=1e-9)


def test_bridge_kernel_half_swap():
    # a single swap factor across the whole bipartition: the product
    # expectation <u,v|V|u,v> = |<u|v>|^2 has exact floor 0 and peak 1
    S = StructuredOperator((4, 4), [(1.0, (SwapFactor(4),))])
    lo = min_product_expectation(S, CFG)
    hi = max_product_expectation(S, CFG)
    assert lo.value == pytest.approx(0.0, abs=1e-8)
    assert hi.value == pytest.approx(1.0, abs=1e-8)
    dense = HermitianOperator((4, 4), S.to_dense())
    ref = min_product_expectation(dense, CFG)
    assert lo.value == pytest.approx(ref.value, abs=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 256])
def test_ground_pair_matches_full_eigh(n):
    M = random_hermitian(rng_for(51, n), (n,)).entries
    lam, vec = _ground_pair(M)
    ref = np.linalg.eigvalsh(M)[0]
    assert abs(lam - ref) <= 1e-12 * (1.0 + abs(ref))
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(M @ vec - lam * vec) <= 1e-10 * np.linalg.norm(M, 2)


def test_ground_pair_degenerate_ground_space():
    lam, vec = _ground_pair(np.diag([0.0, 0.0, 1.0]).astype(np.complex128))
    assert lam == pytest.approx(0.0, abs=1e-15)
    assert abs(vec[2]) <= 1e-12
    assert np.linalg.norm(vec[:2]) == pytest.approx(1.0, abs=1e-12)


def _spectral_matrix(rng, evals):
    """Hermitian matrix with the given eigenvalues and random eigenvectors."""
    n = len(evals)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (Q * np.asarray(evals)) @ Q.conj().T, Q


def _counted(counts, name, routine):
    """``routine``, counting its calls in counts[name]."""

    def call(*args, **kwargs):
        counts[name] += 1
        return routine(*args, **kwargs)

    return call


def test_krylov_half_steps_match_zheevr_on_state_lift_probe(monkeypatch):
    # restart 0 of the registry's state-lift probe at seed 0: every
    # half-step must agree with zheevr on the same conditioned matrix;
    # each half's first solve seeds its gap bound with zheevr, and the
    # bound certifies all the others.  The half-steps are matrix-free, so
    # the reference is the operator's dense build.
    rho = HermitianOperator((2, 2), np.eye(4) / 4.0)
    lifted = lift_state(rho, 1.0, 1.0, 1.0, cfg=OptimizerConfig(seed=0))
    cfg = OptimizerConfig(restarts=1, seed=0, max_sweeps=80)
    checked = []
    lapack = {"heevr": 0}
    ground_pair = optimize._ground_pair

    def compare(M, start=None, bound=None):
        assert start is not None
        assert isinstance(M, optimize._Conditioned)
        pair = ground_pair(M, start, bound)
        assert pair is not None
        lam, vec = pair
        dense = M.dense()
        vals, vecs = scipy.linalg.eigh(dense, lower=False, subset_by_index=(0, 1), driver="evr")
        assert abs(lam - vals[0]) <= 1e-12 * abs(vals[0])
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        if vals[1] - vals[0] > 1e-9 * (1.0 + abs(lam)):
            assert abs(np.vdot(vecs[:, 0], vec)) >= 1.0 - 1e-10
        assert bound.prev is M and bound.floor <= vals[1]
        checked.append(lam)
        return pair

    monkeypatch.setattr(optimize, "_ground_pair", compare)
    monkeypatch.setattr(optimize, "_HEEVR", _counted(lapack, "heevr", optimize._HEEVR))
    (run,) = optimize._seesaw_all(lifted.operator, cfg, (256, 256))
    # the probe's restarts all run to the 80-sweep cap
    assert len(checked) == 2 * cfg.max_sweeps
    assert run.value == checked[-1]
    assert lapack == {"heevr": 2}
    assert len(checked) - lapack["heevr"] == 158


def test_state_lift_probe_builds_dense_only_for_zheevr(monkeypatch):
    # the registry's seed-0 probe (four restarts, 80 sweeps, 640
    # half-steps): at most 8 zheevr calls, one dense conditioned matrix
    # for each and no other, and its value as before the half-steps
    # went matrix-free
    rho = HermitianOperator((2, 2), np.eye(4) / 4.0)
    lifted = lift_state(rho, 1.0, 1.0, 1.0, cfg=OptimizerConfig(seed=0))
    cfg = OptimizerConfig(restarts=4, seed=0, max_sweeps=80)
    counts = {"heevr": 0, "half_steps": 0, "dense": 0}
    conditioned = optimize._SplitKernel._conditioned

    def counted_dense(kernel, w, pinned, free, d):
        counts["dense"] += 1 if w.ndim == 1 else w.shape[0]
        return conditioned(kernel, w, pinned, free, d)

    monkeypatch.setattr(optimize, "_HEEVR", _counted(counts, "heevr", optimize._HEEVR))
    monkeypatch.setattr(optimize, "_ground_pair", _counted(counts, "half_steps", optimize._ground_pair))
    monkeypatch.setattr(optimize._SplitKernel, "_conditioned", counted_dense)
    res = min_product_expectation(lifted.operator, cfg, dims=(256, 256))
    assert counts["half_steps"] == 2 * cfg.restarts * cfg.max_sweeps
    assert counts["heevr"] <= 8
    assert counts["half_steps"] - counts["heevr"] >= 632
    assert counts["dense"] == counts["heevr"]
    assert abs(res.value - 0.49810657405824127) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=4)
@given(
    seed=st.integers(0, 2**32 - 1),
    weights=st.sampled_from([(1.0, 0.7, 1.3), (0.5, 2.0, 0.3)]),
)
@example(seed=None, weights=(1.0, 1.0, 1.0))  # the probe: I/4, two bridges
def test_matrix_free_product_and_drift_bound(seed, weights):
    # state lifts of random (2,2) states with gamma != beta carry all four
    # bridge atoms.  The matrix-free product must match the dense
    # conditioned matrix, and the drift bound must dominate the true
    # ||M(w) - M(w')||_2 for random, equal and orthogonal pairs.
    if seed is None:
        rho, rng = HermitianOperator((2, 2), np.eye(4) / 4.0), rng_for(57)
    else:
        rng = rng_for(seed)
        rho = random_density(rng, (2, 2))
    kernel = _SplitKernel(lift_state(rho, *weights).operator, dims=(256, 256))
    assert len(kernel._bridges) == (2 if weights[1] == weights[2] else 4)
    for half in ("A", "B"):
        dense_of = kernel.cond_a if half == "A" else kernel.cond_b
        w = random_unit_vector(rng, 256)
        other = random_unit_vector(rng, 256)
        ortho = other - np.vdot(w, other) * w
        ortho /= np.linalg.norm(ortho)
        (op,) = kernel.conditioned(half, w[None])
        D = dense_of(w)
        for x in (random_unit_vector(rng, 256), w):
            ref = D @ x
            assert np.linalg.norm(op.matvec(x) - ref) <= 1e-12 * np.linalg.norm(ref)
        for w2 in (other, w.copy(), ortho):
            (op2,) = kernel.conditioned(half, w2[None])
            true = np.abs(np.linalg.eigvalsh(D - dense_of(w2))).max()
            assert op.drift(op2) >= true


class _DenseConditioned:
    """A dense Hermitian M behind ``optimize._Conditioned``'s interface,
    so the Krylov certificate runs on a prescribed spectrum: the product
    M x, the Frobenius drift ||M - M_prev||_F, which bounds
    ||M - M_prev||_2, and the allowance at the scale ||M||_F."""

    def __init__(self, M):
        self.M, self.shape = M, M.shape

    @property
    def allowance(self):
        return optimize._gap_slack(self.shape[0]) * optimize._ZNRM2(self.M.reshape(-1))

    def matvec(self, x):
        return self.M @ x

    def drift(self, prev):
        return float(np.linalg.norm(self.M - prev.M))

    def dense(self):
        return self.M


def _bound_at(M, floor):
    """A gap bound that last solved M and holds ``floor`` for it."""
    bound = optimize._GapBound()
    bound.prev, bound.floor = _DenseConditioned(M), floor
    return bound


def test_krylov_rejects_excited_pair_from_wrong_block():
    # block-diagonal M whose ground state lives in the first block; a
    # start inside the second block keeps Lanczos there, where it
    # converges to that block's lowest pair (an excited pair of M) with
    # a tiny residual.  A valid gap bound (the true lambda_2 of M) must
    # not accept it.
    rng = rng_for(61)
    ground, _ = _spectral_matrix(rng, np.linspace(0.0, 0.5, 128))
    excited, Q = _spectral_matrix(rng, np.concatenate([[1.0], np.linspace(2.0, 3.0, 127)]))
    M = np.zeros((256, 256), dtype=np.complex128)
    M[:128, :128], M[128:, 128:] = ground, excited
    start = np.zeros(256, dtype=np.complex128)
    start[128:] = Q[:, 0] + 1e-3 * random_unit_vector(rng, 128)
    start /= np.linalg.norm(start)
    lam2 = np.linalg.eigvalsh(M)[1]
    op = _DenseConditioned(M)
    assert _krylov_ground_pair(op, start, lam2) is None
    lam, vec = _ground_pair(M, start)
    ref_lam, ref_vec = _ground_pair(M)
    assert lam == ref_lam
    np.testing.assert_array_equal(vec, ref_vec)
    assert lam == pytest.approx(0.0, abs=1e-12)
    # the carried-bound path refuses it too and falls back to zheevr
    bound = _bound_at(M.copy(), lam2)
    lam, vec = _ground_pair(op, start, bound)
    ref_lam, ref_vec = optimize._lowest_pairs(M, 2)
    assert lam == ref_lam[0]
    np.testing.assert_array_equal(vec, ref_vec[:, 0])
    assert bound.prev is op and bound.floor <= ref_lam[1]


def test_krylov_falls_back_on_small_gap():
    M = random_hermitian(rng_for(62), (256,)).entries
    start = random_unit_vector(rng_for(63), 256)
    op = _DenseConditioned(M)
    assert _krylov_ground_pair(op, start, np.linalg.eigvalsh(M)[1]) is None
    lam, vec = _ground_pair(M, start)
    ref_lam, ref_vec = _ground_pair(M)
    assert lam == ref_lam
    np.testing.assert_array_equal(vec, ref_vec)
    # with a carried bound the failed try falls back to zheevr as well
    lam, vec = _ground_pair(op, start, _bound_at(M.copy(), -np.inf))
    ref_lam, ref_vec = optimize._lowest_pairs(M, 2)
    assert lam == ref_lam[0]
    np.testing.assert_array_equal(vec, ref_vec[:, 0])


def test_krylov_degenerate_ground_space():
    # a threefold ground space has lambda_2 = lambda_1, so even the exact
    # floor cannot certify a Krylov pair inside it; zheevr solves it
    rng = rng_for(64)
    M, Q = _spectral_matrix(rng, np.concatenate([[0.0] * 3, np.linspace(0.5, 1.0, 253)]))
    start = Q[:, :3] @ random_unit_vector(rng, 3) + 1e-3 * random_unit_vector(rng, 256)
    start /= np.linalg.norm(start)
    lam2 = np.linalg.eigvalsh(M)[1]
    op = _DenseConditioned(M)
    assert _krylov_ground_pair(op, start, lam2) is None
    bound = _bound_at(M.copy(), lam2)
    lam, vec = _ground_pair(op, start, bound)
    ref_lam, ref_vec = optimize._lowest_pairs(M, 2)
    assert lam == ref_lam[0]
    np.testing.assert_array_equal(vec, ref_vec[:, 0])
    assert bound.prev is op and bound.floor <= ref_lam[1]
    assert abs(lam) <= 1e-12
    # any unit vector of the ground space is a valid answer
    assert np.linalg.norm(Q[:, :3].conj().T @ vec) >= 1.0 - 1e-10


@settings(derandomize=True, deadline=None, max_examples=12)
@given(
    seed=st.integers(0, 2**32 - 1),
    gap=st.floats(0.02, 0.5),
    drift=st.floats(0.0, 2.0),
    steps=st.integers(2, 8),
)
@example(seed=7, gap=0.3, drift=2.0, steps=8)  # crosses the gap: zheevr reseeds
def test_carried_gap_bound_stays_below_lambda_2(seed, gap, drift, steps):
    # M_{t+1} = M_t + eps E_t with ||E_t||_F = 1 and a total drift of
    # drift * gap, solved at side 128 by one carried bound, each solve
    # started from the previous answer
    rng = rng_for(seed)
    n = 128
    M, _ = _spectral_matrix(rng, np.concatenate([[0.0], gap + np.linspace(0.0, 1.0, n - 1)]))
    bound, start, total = optimize._GapBound(), None, 0.0
    lapack = {"heevr": 0}
    with mock.patch.object(optimize, "_HEEVR", _counted(lapack, "heevr", optimize._HEEVR)):
        for t in range(steps):
            if t:
                E = random_hermitian(rng, (n,)).entries
                step = drift * gap / (steps - 1) * E / np.linalg.norm(E)
                total += np.linalg.norm(step)
                M = M + step
            lam, vec = _ground_pair(_DenseConditioned(M), start, bound)
            start = vec
            ref = scipy.linalg.eigh(M, lower=False, eigvals_only=True, subset_by_index=(0, 1), driver="evr")
            assert abs(lam - ref[0]) <= 1e-9 * (1.0 + abs(lam))
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            assert bound.floor <= np.linalg.eigvalsh(M)[1]
    # the first solve seeds the bound at lambda_2 = gap; once the drift
    # has used up that gap the bound cannot certify the last step, so a
    # reseeding zheevr must have been computed
    assert lapack["heevr"] >= 1
    if total >= gap - ref[0]:
        assert lapack["heevr"] > 1


def _near_ground_start(rng, Q, offset):
    """Unit vector ``offset`` away from the ground vector Q[:, 0]."""
    start = Q[:, 0] + offset * random_unit_vector(rng, Q.shape[0])
    return start / np.linalg.norm(start)


def test_krylov_step_cap_falls_back_to_zheevr(monkeypatch):
    # a wide gap certifies from a start 1e-2 off the ground vector, but
    # not in one Lanczos step: at a cap of 1 the try gives up, and the
    # half-step is zheevr's, which reseeds the floor at lambda_2
    rng = rng_for(65)
    n = 256
    M, Q = _spectral_matrix(rng, np.concatenate([[0.0], np.linspace(0.5, 1.0, n - 1)]))
    start = _near_ground_start(rng, Q, 1e-2)
    ref_lam, ref_vec = optimize._lowest_pairs(M, 2)
    op = _DenseConditioned(M)
    assert _krylov_ground_pair(op, start, ref_lam[1]) is not None
    monkeypatch.setattr(optimize, "_KRYLOV_MAX_STEPS", 1)
    assert _krylov_ground_pair(op, start, ref_lam[1]) is None
    bound = _bound_at(M.copy(), ref_lam[1])
    lam, vec = _ground_pair(op, start, bound)
    assert lam == ref_lam[0]
    np.testing.assert_array_equal(vec, ref_vec[:, 0])
    assert bound.prev is op
    assert bound.floor == ref_lam[1] - optimize._gap_slack(n) * optimize._ZNRM2(M.reshape(-1))


@settings(derandomize=True, deadline=None, max_examples=15)
@given(
    seed=st.integers(0, 2**32 - 1),
    gap=st.floats(0.01, 0.5),
    offset=st.floats(0.0, 0.1),
)
@example(seed=3, gap=0.5, offset=1e-2)  # certified in well under the cap
@example(seed=4, gap=0.01, offset=0.1)  # too slow for the cap: None
def test_krylov_pair_is_the_ground_pair(seed, gap, offset):
    # with the exact lambda_2 as floor, a certified pair is zheevr's
    # lambda_1 within delta and its eigenvector up to phase
    rng = rng_for(seed)
    n = 128
    M, Q = _spectral_matrix(rng, np.concatenate([[0.0], gap + np.linspace(0.0, 1.0, n - 1)]))
    start = _near_ground_start(rng, Q, offset)
    vals, vecs = optimize._lowest_pairs(M, 2)
    pair = _krylov_ground_pair(_DenseConditioned(M), start, vals[1])
    if pair is None:
        return
    lam, vec = pair
    assert abs(lam - vals[0]) <= 1e-9 * (1.0 + abs(lam))
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(vecs[:, 0], vec)) >= 1.0 - 1e-10


def test_unbalanced_split_tries_krylov_only_on_structured_free_halves(monkeypatch):
    # one random (2,128) operator, dense and as its terms G_k (x) R_k
    # over the Pauli basis: the dense kernel solves its 128-dim half-steps
    # with zheevr alone; the structured one tries Lanczos on its
    # matrix-free 128-dim free half and solves its 2-dim free half with
    # the stacked eigh
    X = random_hermitian(rng_for(66), (2, 128))
    tens = X.entries.reshape(2, 128, 2, 128)
    paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    basis = paulis / np.sqrt(2.0)
    S = StructuredOperator(
        (2, 128),
        [(1.0, (DenseFactor(G), DenseFactor(np.einsum("ca,abcd->bd", G, tens)))) for G in basis],
    )
    np.testing.assert_allclose(S.to_dense(), X.entries, atol=1e-12)
    cfg = OptimizerConfig(restarts=4, seed=0)
    calls = {"krylov": 0}
    solved = []
    ground_pairs = optimize._ground_pairs

    def recorded(M, starts, bounds):
        solved.append((type(M).__name__, M[0].shape[0]))
        return ground_pairs(M, starts, bounds)

    monkeypatch.setattr(optimize, "_ground_pairs", recorded)
    monkeypatch.setattr(
        optimize, "_krylov_ground_pair", _counted(calls, "krylov", optimize._krylov_ground_pair)
    )
    dense = min_product_expectation(X, cfg)
    assert calls["krylov"] == 0
    assert set(solved) == {("ndarray", 2), ("ndarray", 128)}
    solved.clear()
    structured = min_product_expectation(S, cfg, dims=(2, 128))
    assert calls["krylov"] > 0
    # the list holds one matrix-free ``_Conditioned`` a row; the dense
    # 2-by-2 stacks take the stacked eigh
    assert set(solved) == {("list", 128), ("ndarray", 2)}
    assert abs(structured.value - dense.value) <= 1e-8


def test_structured_conditioned_matrices_match_dense():
    # the lifted Bell witness mixes split terms with whole-space bridge terms
    S = lift_witness(bell_state_witness()).operator
    kernel = _SplitKernel(S)
    assert kernel._coeffs.size and kernel._bridges
    cases = [(kernel, HermitianOperator((16, 16), S.to_dense()))]
    # dense operators enter through the Hermitian-basis split of the
    # smaller factor, so (3, 2) exercises the mirrored contraction
    for k, dims in enumerate([(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]):
        X = random_hermitian(rng_for(53, k), dims)
        cases.append((_SplitKernel(X), X))
    rng = rng_for(52)
    for kernel, dense in cases:
        d_a, d_b = dense.dims
        for _ in range(3):
            u = random_unit_vector(rng, d_a)
            v = random_unit_vector(rng, d_b)
            for side, w, got in (("A", u, kernel.cond_a(u)), ("B", v, kernel.cond_b(v))):
                ref = conditioned_matrix(dense, side, w)
                assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


_BRIDGE_ATOMS = (
    lambda s: SwapFactor(s * s),
    lambda s: BlockReversalFactor(s),
    lambda s: ClassicalProjectorFactor(s * s),
    lambda s: ClassicalSwapFactor(s),
)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(2, 6),
    bridges=st.lists(
        st.tuples(st.integers(0, len(_BRIDGE_ATOMS) - 1), st.floats(-2.0, 2.0)),
        min_size=1,
        max_size=6,
    ),
    n_split=st.integers(0, 3),
)
def test_fused_bridges_match_dense(seed, s, bridges, n_split):
    # halves of side s^2 on (C^s)^(x4): every bridge atom fits, repeats
    # merge into one term per atom, and split terms mix in
    d = s * s
    rng = rng_for(seed)
    terms = [(coeff, (_BRIDGE_ATOMS[k](s),)) for k, coeff in bridges]
    for _ in range(n_split):
        left = random_hermitian(rng, (s,)).entries
        right = random_hermitian(rng, (d,)).entries
        terms.append(
            (float(rng.uniform(-1.0, 1.0)),
             (DenseFactor(left), IdentityFactor(s), DenseFactor(right)))
        )
    S = StructuredOperator((s, s, s, s), terms)
    kernel = _SplitKernel(S)
    assert len(kernel._bridges) == len({k for k, _ in bridges})
    dense = HermitianOperator((d, d), S.to_dense())
    for _ in range(2):
        u = random_unit_vector(rng, d)
        v = random_unit_vector(rng, d)
        for side, w, got in (("A", u, kernel.cond_a(u)), ("B", v, kernel.cond_b(v))):
            ref = conditioned_matrix(dense, side, w)
            assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
    r1=st.integers(1, 8),
    extra=st.integers(1, 8),
)
def test_seesaw_restarts_are_batch_independent(seed, dims, r1, extra):
    # restarts share one stack of rows and leave it as they converge; a
    # restart's run must not depend on which other restarts share it
    X = random_hermitian(rng_for(seed), dims)
    small = optimize._seesaw_all(X, OptimizerConfig(restarts=r1, seed=seed))
    large = optimize._seesaw_all(X, OptimizerConfig(restarts=r1 + extra, seed=seed))
    assert [run.index for run in large] == list(range(r1 + extra))
    for a, b in zip(small, large):
        assert a.index == b.index
        assert abs(a.value - b.value) <= 1e-12 * (1.0 + abs(b.value))
        assert a.converged == b.converged
    for run in large:
        pv = ProductVector(run.u, run.v)
        assert abs(product_expectation(X, pv) - run.value) <= 1e-12 * (1.0 + abs(run.value))
    res = min_product_expectation(X, OptimizerConfig(restarts=r1 + extra, seed=seed))
    assert res.restarts_converged == sum(run.converged for run in large)


@pytest.mark.parametrize("d_a,d_b,lo,hi", [(2, 3, 0, 5), (3, 2, 4, 9), (16, 16, 0, 3)])
def test_start_table_rows_are_the_seeded_draws(d_a, d_b, lo, hi):
    # row k - lo of a table is restart k's start: u, then v, from rng_for(seed, k)
    table = optimize._start_table(11, d_a, d_b, lo, hi)
    assert table.shape == (hi - lo, d_a + d_b)
    for k, row in zip(range(lo, hi), table):
        rng = rng_for(11, k)
        np.testing.assert_array_equal(row[:d_a], random_unit_vector(rng, d_a))
        np.testing.assert_array_equal(row[d_a:], random_unit_vector(rng, d_b))
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def _same_minprod(a, b):
    assert a.value == b.value
    np.testing.assert_array_equal(a.argmin.u, b.argmin.u)
    np.testing.assert_array_equal(a.argmin.v, b.argmin.v)
    assert (a.converged, a.restarts_converged) == (b.converged, b.restarts_converged)


def test_minprod_same_on_cold_and_warm_start_tables():
    X = random_hermitian(rng_for(71), (2, 3))
    cfg = OptimizerConfig(restarts=24, seed=3)
    optimize._start_table.cache_clear()
    cold = min_product_expectation(X, cfg)
    assert optimize._start_table.cache_info().misses == 1
    optimize._SEESAW_MEMO.clear()  # else the repeat is served by the memo
    warm = min_product_expectation(X, cfg)
    assert optimize._start_table.cache_info().hits == 1
    _same_minprod(cold, warm)


def test_writes_into_results_do_not_reach_the_start_tables():
    # one sweep keeps the returned vectors as close to the starts as the
    # see-saw allows; scribbling on them must not change the next call,
    # and the runs the memo serves refuse writes
    X = random_hermitian(rng_for(73), (3, 3))
    cfg = OptimizerConfig(restarts=8, seed=4, max_sweeps=1)
    first = min_product_expectation(X, cfg)
    kept = min_product_expectation(X, cfg)
    for vec in (first.argmin.u, first.argmin.v):
        vec.setflags(write=True)  # argmin is a read-only copy; force it open
        vec[:] = 0.0
    for run in optimize._seesaw_all(X, cfg):
        for vec in (run.u, run.v):
            with pytest.raises(ValueError, match="read-only"):
                vec[:] = 0.0
    _same_minprod(min_product_expectation(X, cfg), kept)
    optimize._start_table.cache_clear()
    _same_minprod(min_product_expectation(X, cfg), kept)


def _same_runs(runs, others):
    assert len(runs) == len(others)
    for run, other in zip(runs, others):
        assert (run.value, run.converged, run.index, run.sweeps) == (
            other.value, other.converged, other.index, other.sweeps,
        )
        np.testing.assert_array_equal(run.u, other.u)
        np.testing.assert_array_equal(run.v, other.v)


def test_memo_serves_its_runs_without_copies():
    # an exact hit hands out the stored runs themselves, bitwise a cold
    # search; a shift search started from them leaves them as they were
    X = random_product_mixture(rng_for(95), (2, 3), 3)
    cfg = OptimizerConfig(restarts=8, seed=5)
    stored = optimize._seesaw_all(X, cfg)
    assert optimize._seesaw_all(X, cfg) is stored
    kept = [replace(run, u=run.u.copy(), v=run.v.copy()) for run in stored]
    with mock.patch.object(optimize, "_seesaw_rows", wraps=optimize._seesaw_rows) as rows:
        optimize._seesaw_all(X.shifted(0.3), cfg)
    assert rows.called
    _same_runs(stored, kept)
    assert not any(run.u.flags.writeable or run.v.flags.writeable for run in stored)
    optimize._SEESAW_MEMO.clear()
    _same_runs(optimize._seesaw_all(X, cfg), stored)


def test_start_table_cache_holds_at_most_its_bound():
    # and so does the see-saw memo, which drops its oldest entry first
    X = random_hermitian(rng_for(75), (2, 2))
    optimize._start_table.cache_clear()
    assert optimize._start_table.cache_info().maxsize == optimize._START_TABLES
    for seed in range(2 * optimize._START_TABLES):
        min_product_expectation(X, OptimizerConfig(restarts=2, seed=seed))
        assert optimize._start_table.cache_info().currsize <= optimize._START_TABLES
        assert len(optimize._SEESAW_MEMO) <= optimize._START_TABLES
    assert optimize._start_table.cache_info().currsize == optimize._START_TABLES
    seeds = [key[2].seed for key in optimize._SEESAW_MEMO]
    assert seeds == list(range(optimize._START_TABLES, 2 * optimize._START_TABLES))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
    c=st.floats(-2.0, 2.0),
    mixture=st.booleans(),
)
def test_shift_served_minprod_matches_a_cold_search(seed, dims, c, mixture):
    # <u,v|X - cI|u,v> = <u,v|X|u,v> - c on unit products: after a search
    # on X, the search on X - cI starts from X's end points, draws no
    # seeded starts, and lands where a cold search does
    rng = rng_for(seed)
    if mixture:
        X = random_product_mixture(rng, dims, 1 + seed % 5)
    else:
        X = random_hermitian(rng, dims)
    Y = X.shifted(c)
    cfg = OptimizerConfig(restarts=8, seed=seed)
    optimize._SEESAW_MEMO.clear()  # the autouse fixture runs per test, not per example
    cold = min_product_expectation(Y, cfg)
    optimize._SEESAW_MEMO.clear()
    min_product_expectation(X, cfg)
    with (
        mock.patch.object(optimize, "_start_table", side_effect=AssertionError("cold start")),
        mock.patch.object(optimize, "_seesaw_rows", wraps=optimize._seesaw_rows) as rows,
    ):
        served = min_product_expectation(Y, cfg)
    # the see-saw runs on Y itself, unless c is too small to move an entry
    assert rows.called == (not np.array_equal(Y.entries, X.entries))
    assert abs(served.value - cold.value) <= 1e-12 * (1.0 + abs(cold.value))
    attained = product_expectation(Y, served.argmin)
    assert abs(attained - served.value) <= 1e-12 * (1.0 + abs(served.value))
    assert served.restarts_converged >= cold.restarts_converged
    # only cold results are stored: the memo still holds X's search
    ((diag, _),) = optimize._SEESAW_MEMO.values()
    np.testing.assert_array_equal(diag, X.entries.diagonal().real)


def test_memo_misses_on_a_non_scalar_diagonal_or_another_config():
    X = random_hermitian(rng_for(91), (2, 3))
    cfg = OptimizerConfig(restarts=6, seed=2)
    first = min_product_expectation(X, cfg)
    bumped = X.shifted(0.25).entries.copy()
    bumped[0, 0] += 1e-9
    changed = {
        "restarts": 7, "seed": 3, "tol_converge": 1e-11, "tol_zero": 1e-6, "max_sweeps": 999,
    }
    misses = [(HermitianOperator(X.dims, bumped), cfg)]
    misses += [(X, replace(cfg, **{name: value})) for name, value in changed.items()]
    with mock.patch.object(optimize, "_start_table", wraps=optimize._start_table) as table:
        _same_minprod(min_product_expectation(X, cfg), first)
        assert table.call_count == 0
        for Y, other in misses:
            min_product_expectation(Y, other)
    assert table.call_count == len(misses)


def test_structured_and_large_dense_operators_bypass_the_memo():
    rng = rng_for(93)
    split = (
        DenseFactor(random_hermitian(rng, (2,)).entries),
        IdentityFactor(2),
        DenseFactor(random_hermitian(rng, (4,)).entries),
    )
    S = StructuredOperator((2, 2, 2, 2), [(0.5, split)])
    large = random_hermitian(rng, (16, 16))  # 65,536 entries
    cfg = OptimizerConfig(restarts=2, seed=0, max_sweeps=3)
    with mock.patch.object(optimize, "_start_table", wraps=optimize._start_table) as table:
        for X in (S, S, large, large):
            min_product_expectation(X, cfg)
    assert table.call_count == 4
    assert not optimize._SEESAW_MEMO


def test_seesaw_guard_catches_one_rising_row(monkeypatch):
    # the last row of the stack drifts up by 1e-6 more at every
    # half-step; the other rows descend as usual
    ground_pairs = optimize._ground_pairs
    calls = []

    def rising(M, starts, bounds):
        lam, vecs = ground_pairs(M, starts, bounds)
        calls.append(None)
        lam = lam.copy()
        lam[-1] += 1e-6 * len(calls)
        return lam, vecs

    monkeypatch.setattr(optimize, "_ground_pairs", rising)
    with pytest.raises(RuntimeError, match="objective increased"):
        min_product_expectation(sigma1(), CFG)


def test_minprod_counts_converged_restarts():
    # Choi sigma at 64 restarts, seed 0: without line extrapolation 19
    # restarts crawl to the sweep cap; with it every restart converges
    cfg = OptimizerConfig(restarts=64, seed=0)
    lo = min_product_expectation(choi_sigma(), cfg)
    assert lo.converged
    assert (lo.restarts_used, lo.restarts_converged) == (64, 64)
    runs = optimize._seesaw_all(choi_sigma(), cfg)
    assert lo.sweeps_max == max(run.sweeps for run in runs) == 17
    assert min(run.sweeps for run in runs) == 8
    hi = max_product_expectation(sigma1(), CFG)
    assert hi.restarts_converged == sum(
        run.converged for run in optimize._seesaw_all(-sigma1(), CFG)
    )


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_choi_sigma_converges_every_restart_within_100_sweeps(seed):
    # Choi sigma's flat valley holds plain see-saw restarts at the
    # 1,000-sweep cap; the line extrapolation brings each to the floor
    cfg = OptimizerConfig(restarts=64, seed=seed, max_sweeps=100)
    for X in (choi_sigma(), partial_transpose(choi_sigma())):
        res = min_product_expectation(X, cfg)
        assert res.restarts_converged == 64
        assert res.sweeps_max < 100
        assert abs(res.value - 2.0) <= 1e-9


def test_extrapolation_skips_large_halves_and_bridge_terms(monkeypatch):
    def refuse(*args):
        raise AssertionError("line extrapolation ran")

    monkeypatch.setattr(optimize, "_extrapolate", refuse)
    cfg = OptimizerConfig(restarts=4, seed=0, max_sweeps=40)
    for dims in ((9, 9), (2, 9)):  # dense, no bridge terms
        res = min_product_expectation(random_hermitian(rng_for(83), dims), cfg)
        assert res.sweeps_max > optimize._JUMP_FIRST
    # 4-dim halves, but a swap bridge term has no split halves to score
    rng = rng_for(87)
    split = (
        DenseFactor(random_hermitian(rng, (2,)).entries),
        IdentityFactor(2),
        DenseFactor(random_hermitian(rng, (4,)).entries),
    )
    S = StructuredOperator((2, 2, 2, 2), [(1.0, (SwapFactor(4),)), (0.5, split)])
    assert min_product_expectation(S, cfg).sweeps_max > optimize._JUMP_FIRST
    lifted = lift_witness(bell_state_witness(), cfg=cfg)
    res = min_product_expectation(lifted.operator, cfg, dims=(16, 16))
    assert res.sweeps_max > optimize._JUMP_FIRST
    rho = HermitianOperator((2, 2), np.eye(4) / 4.0)
    small = OptimizerConfig(restarts=1, seed=0, max_sweeps=optimize._JUMP_FIRST + 1)
    state = lift_state(rho, 1.0, 1.0, 1.0, cfg=small)
    res = min_product_expectation(state.operator, small, dims=(256, 256))
    assert res.sweeps_max == small.max_sweeps


def test_extrapolation_only_lowers_values_and_ignores_phases():
    # rows one plain sweep past random starts: a row moves only to a
    # point whose exact value is lower by more than the tolerance, and
    # the phases an eigensolver gives u and v change nothing
    X = random_hermitian(rng_for(85), (2, 3))
    kernel = _SplitKernel(X)
    rng = rng_for(86)
    U0 = np.array([random_unit_vector(rng, 2) for _ in range(40)])
    V0 = np.array([random_unit_vector(rng, 3) for _ in range(40)])
    _, V = optimize._ground_pairs(kernel.cond_a(U0), V0, [None] * 40)
    _, U = optimize._ground_pairs(kernel.cond_b(V), U0, [None] * 40)
    value = optimize._product_values(kernel, U, V)
    tol = 1e-12
    U1, V1, value1 = optimize._extrapolate(kernel, U0, V0, U, V, value, tol)
    moved = value1 != value
    assert moved.any() and not moved.all()
    assert np.all(value1[moved] < value[moved] - tol * (1.0 + np.abs(value[moved])))
    np.testing.assert_array_equal(U1[~moved], U[~moved])
    np.testing.assert_array_equal(V1[~moved], V[~moved])
    for u, v, val in zip(U1, V1, value1):
        assert abs(product_expectation(X, ProductVector(u, v)) - val) <= 1e-12 * (1.0 + abs(val))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (2, 40, 1)))
    _, _, value2 = optimize._extrapolate(
        kernel, U0, V0, U * phases[0], V * phases[1], value, tol
    )
    np.testing.assert_allclose(value2, value1, rtol=1e-12, atol=1e-12)


def test_extrapolation_stacks_stay_within_stack_entries(monkeypatch):
    # 8-dim halves: a see-saw chunk holds 1,024 rows, and a jump scores
    # its rows in chunks whose outer-product and conditioned-matrix
    # stacks stay within _STACK_ENTRIES complex entries
    line_forms, product_values = optimize._line_forms, optimize._product_values
    sizes = {"forms": [], "values": []}

    def forms(pinned, W, W0):
        sizes["forms"].append(4 * W.size * W.shape[1])
        return line_forms(pinned, W, W0)

    def values(kernel, U, V):
        sizes["values"].append(len(U) * kernel.d_b**2)
        return product_values(kernel, U, V)

    monkeypatch.setattr(optimize, "_line_forms", forms)
    monkeypatch.setattr(optimize, "_product_values", values)
    X = random_hermitian(rng_for(81), (8, 8))
    cfg = OptimizerConfig(restarts=300, seed=2, max_sweeps=optimize._JUMP_FIRST)
    optimize._seesaw_all(X, cfg)
    assert sizes["forms"] and sizes["values"]
    assert max(sizes["forms"]) == optimize._STACK_ENTRIES  # a full chunk ran
    assert max(sizes["values"]) <= optimize._STACK_ENTRIES


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4)]),
    mixture=st.booleans(),
)
def test_minprod_is_attained_and_above_both_spectra(seed, dims, mixture):
    # the value is a product expectation at the returned argmin, and no
    # product expectation lies below lambda_min of sigma or of sigma^Gamma:
    # <u,v|sigma|u,v> = <u,conj v|sigma^Gamma|u,conj v>
    rng = rng_for(seed)
    if mixture:
        X = random_product_mixture(rng, dims, 1 + seed % 5)
    else:
        X = random_hermitian(rng, dims)
    res = min_product_expectation(X, OptimizerConfig(restarts=8, seed=seed))
    assert abs(product_expectation(X, res.argmin) - res.value) <= 1e-12 * (1.0 + abs(res.value))
    floor = max(
        np.linalg.eigvalsh(X.entries)[0],
        np.linalg.eigvalsh(partial_transpose(X).entries)[0],
    )
    assert floor <= res.value + 1e-12


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3)]))
def test_minprod_is_invariant_under_partial_transpose(seed, dims):
    # (u, v) -> (u, conj v) maps the product landscape of X onto that of
    # X^Gamma, so the two product infima are one number
    X = random_hermitian(rng_for(seed), dims)
    cfg = OptimizerConfig(restarts=16, seed=seed)
    a = min_product_expectation(X, cfg).value
    b = min_product_expectation(partial_transpose(X), cfg).value
    assert abs(a - b) <= 1e-9


def test_seesaw_rejects_non_bipartite_dense():
    X = random_hermitian(rng_for(54), (2, 2, 2))
    with pytest.raises(DimensionError, match="needs a bipartite operator"):
        min_product_expectation(X, CFG)


def test_state_lift_split_rows_merge():
    # the state lift's seven split rows merge into (hh|P)+(tw|P),
    # (P|hh)+(P|tw), (I|I) and (V|V) for any state, and the merged stacks
    # condition like the sum of the terms taken one at a time
    rng = rng_for(55)
    sources = [
        (HermitianOperator((2, 2), np.eye(4) / 4.0), (1.0, 1.0, 1.0)),  # the probe
        (random_density(rng, (2, 2)), (1.0, 0.7, 1.3)),
    ]
    for rho, weights in sources:
        S = lift_state(rho, *weights).operator
        kernel = _SplitKernel(S, dims=(256, 256))
        assert kernel._coeffs.size == 4
        singles = [
            _SplitKernel(StructuredOperator(S.space_dims, [term]), dims=(256, 256))
            for term in S.terms
        ]
        for _ in range(2):
            u = random_unit_vector(rng, 256)
            v = random_unit_vector(rng, 256)
            for got, ref in (
                (kernel.cond_a(u), sum(k.cond_a(u) for k in singles)),
                (kernel.cond_b(v), sum(k.cond_b(v) for k in singles)),
            ):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_state_lift_conditioned_matrices_are_hermitian_within_gap_slack():
    # the carried gap bound follows the Hermitian part of each conditioned
    # matrix while the eigensolvers read its upper triangle; the two
    # differ by at most ||M - M^H||_F / 2, which must stay far inside the
    # bound's rounding allowance
    rng = rng_for(56)
    sources = [
        (HermitianOperator((2, 2), np.eye(4) / 4.0), (1.0, 1.0, 1.0)),  # the probe
        (random_density(rng, (2, 2)), (1.0, 2.0, 0.5)),
    ]
    for rho, weights in sources:
        kernel = _SplitKernel(lift_state(rho, *weights).operator, dims=(256, 256))
        for w in (random_unit_vector(rng, 256) for _ in range(2)):
            for M in (kernel.cond_a(w), kernel.cond_b(w)):
                skew = np.linalg.norm(M - M.conj().T)
                assert skew <= 1e-3 * optimize._gap_slack(256) * np.linalg.norm(M)


def test_structured_kernel_rejects_straddling_terms():
    A = random_hermitian(rng_for(47), (4,)).entries
    S = StructuredOperator(
        (2, 2, 2), [(1.0, (DenseFactor(A), IdentityFactor(2)))]
    )
    with pytest.raises(DimensionError):
        min_product_expectation(S, CFG, dims=(2, 4))


def test_collect_zero_products_and_spanning_rank():
    W = two_block_witness(1.0, 1.0)
    zeros = collect_zero_products(W, OptimizerConfig(restarts=32, seed=0))
    assert zeros
    for pv in zeros:
        assert abs(product_expectation(W, pv)) <= 1e-7
    for i, a in enumerate(zeros):
        for b in zeros[i + 1 :]:
            assert a.overlap(b) < 1.0 - 1e-6
    rank = spanning_rank(zeros, (2, 2))
    assert 1 <= rank <= 4
    assert spanning_rank([], (2, 2)) == 0


def test_grid_oracle_agrees_on_reference_floor():
    assert grid_oracle_minprod(sigma1(), resolution=96) == pytest.approx(
        0.5, abs=1e-2
    )


def _full_sphere_net(d, resolution):
    """The whole net from one meshgrid, the reference for the streamed rows."""
    theta = np.linspace(0.0, np.pi / 2.0, resolution)
    phi = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    axes = [theta] * (d - 1) + [phi] * (d - 1)
    grid = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    amps, s = [], np.ones(resolution ** (2 * (d - 1)))
    for t in grid[: d - 1]:
        amps.append(s * np.cos(t))
        s = s * np.sin(t)
    amps.append(s)
    phased = [a * np.exp(1j * p) for a, p in zip(amps[1:], grid[d - 1 :])]
    return np.stack([amps[0].astype(np.complex128), *phased], axis=1)


def test_streamed_net_matches_full_net():
    for d, resolution, bounds in [(1, 5, [0, 1]), (2, 7, [0, 5, 49]), (3, 6, [0, 1, 700, 1296])]:
        full = _full_sphere_net(d, resolution)
        rows = [
            optimize._sphere_net_rows(d, resolution, lo, hi)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        np.testing.assert_array_equal(np.concatenate(rows), full)
    for k, dims in enumerate([(2, 2), (2, 3)]):
        X = random_hermitian(rng_for(55, k), dims)
        d_a, d_b = dims
        tens = X.entries.reshape(d_a, d_b, d_a, d_b)
        u = _full_sphere_net(d_a, 64)
        M = np.einsum("ai,ijkl,ak->ajl", u.conj(), tens, u, optimize=True)
        assert grid_oracle_minprod(X) == float(np.linalg.eigvalsh(M)[:, 0].min())


def test_grid_oracle_validation():
    # a 64**4-point net on a qutrit exceeds the point cap
    with pytest.raises(DimensionError):
        grid_oracle_minprod(HermitianOperator.identity((3, 3)), resolution=64)
    with pytest.raises(DimensionError):
        grid_oracle_minprod(HermitianOperator.identity((2, 2, 2)))
    with pytest.raises(ValueError):
        grid_oracle_minprod(sigma1(), resolution=1)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4)]),
)
def test_grid_oracle_invariants(seed, dims):
    X = random_hermitian(rng_for(seed), dims)
    value = grid_oracle_minprod(X)
    assert abs(grid_oracle_minprod(partial_transpose(X)) - value) <= 1e-12
    assert abs(grid_oracle_minprod(X.shifted(0.7)) - (value - 0.7)) <= 1e-12
    d_a, d_b = dims
    if d_a != d_b:
        # the net follows the smaller factor; on equal dims it sits on the
        # first, so a swap moves it and changes the value by O(1/resolution)
        swapped = HermitianOperator(
            (d_b, d_a),
            X.entries.reshape(d_a, d_b, d_a, d_b)
            .transpose(1, 0, 3, 2)
            .reshape(X.side, X.side),
        )
        assert abs(grid_oracle_minprod(swapped) - value) <= 1e-12
    assert np.linalg.eigvalsh(X.entries)[0] <= value


def test_ppt_search_certifies_choi_violation():
    W = w_xyz(1.0, 1.0, 0.0).operator
    res = ppt_violation_search(W, OptimizerConfig(restarts=8, seed=0))
    assert res.violation is not None
    v = res.violation
    assert v.value < -1e-4
    rho = v.state
    assert rho.trace() == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-8
    assert np.linalg.eigvalsh(partial_transpose(rho).entries)[0] >= -1e-8
    assert float((W.entries @ rho.entries).trace().real) == pytest.approx(
        v.value, abs=1e-12
    )


def test_ppt_search_clean_on_decomposable_witness():
    W = two_block_witness(1.0, 1.0)
    res = ppt_violation_search(W, OptimizerConfig(restarts=4, seed=0))
    assert res.violation is None
    assert res.best_value >= -1e-7


def test_ppt_search_short_circuits_on_psd_input():
    res = ppt_violation_search(choi_sigma(), OptimizerConfig(restarts=2, seed=0))
    assert res.violation is None
    assert res.starts_used == 0
    assert res.best_value == pytest.approx(1.0, abs=1e-9)
    assert res.decomposition.success


def test_ppt_search_mixes_an_unfinished_split_into_a_certificate():
    # the split of this draw converges, so -Z is pushed off the PSD cone
    # by 2e-7 of its trace, as an unfinished split leaves it; mixing in
    # the identity still certifies it
    X = random_hermitian(rng_for(2328222968), (2, 3))
    W = X.shifted(float(np.linalg.eigvalsh(X.entries)[0]) + 0.2754700329103396)
    res = ppt_violation_search(W)
    dec = res.decomposition
    assert not dec.success
    found = res.violation
    assert float((W.entries @ found.state.entries).trace().real) == pytest.approx(
        found.value, abs=1e-12
    )
    neg_z = dec.P.entries + partial_transpose(dec.Q).entries - W.entries
    lowest = np.linalg.eigh(neg_z)[1][:, 0]
    neg_z -= 2e-7 * neg_z.trace().real * np.outer(lowest, lowest.conj())
    assert np.linalg.eigvalsh(neg_z)[0] < -1e-7 * neg_z.trace().real
    rho = HermitianOperator(W.dims, optimize._mix_into_ppt(neg_z, W.dims))
    assert abs(rho.trace() - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-12
    assert np.linalg.eigvalsh(partial_transpose(rho).entries)[0] >= -1e-12
    value = float((W.entries @ rho.entries).trace().real)
    assert value < -1e-3


def test_decomposition_succeeds_on_decomposable_witness():
    W = two_block_witness(1.0, 1.0)
    res = decomposition_search(W)
    assert res.success
    assert res.residual <= 1e-7
    assert np.linalg.eigvalsh(res.P.entries)[0] >= -1e-9
    assert np.linalg.eigvalsh(res.Q.entries)[0] >= -1e-9
    recon = res.P + partial_transpose(res.Q)
    assert np.abs(recon.entries - W.entries).max() <= 1e-6


def test_decomposition_fails_on_choi_witness():
    # this witness detects a PPT entangled state, so no PSD split with
    # a partially transposed second block can exist
    W = w_xyz(1.0, 1.0, 0.0).operator
    res = decomposition_search(W)
    assert not res.success


def test_decomposition_trivial_on_psd_input():
    res = decomposition_search(two_block_witness_optimal(1.0))
    # PT of a PSD corner block: P = 0, Q = corner works
    assert res.success


@pytest.mark.parametrize(
    "xyz, decomposes",
    [
        ((0.5, 1.0, 0.5), False),
        ((1.0, 1.2, 0.1), False),
        ((0.8, 0.6, 0.9), True),
        ((0.3, 1.5, 0.6), True),
    ],
)
def test_split_verdicts_on_wxyz(xyz, decomposes):
    res = ppt_violation_search(w_xyz(*xyz).operator)
    assert res.decomposition.success is decomposes
    assert (res.violation is None) is decomposes


def test_split_verdicts_on_wxyz_grid():
    grid = np.arange(7) * 0.25
    counts = {"decomposed": 0, "violated": 0, "inconclusive": 0}
    for xyz in itertools.product(grid, repeat=3):
        built = w_xyz(*xyz)
        if not built.condition_met:
            continue
        res = ppt_violation_search(built.operator)
        assert not (res.decomposition.success and res.violation is not None)
        if res.decomposition.success:
            counts["decomposed"] += 1
        elif res.violation is not None:
            counts["violated"] += 1
        else:
            counts["inconclusive"] += 1
    assert counts == {"decomposed": 166, "violated": 48, "inconclusive": 0}


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
    depth=st.floats(0.01, 1.0),
)
def test_split_exit_state_is_a_moreau_split(seed, dims, depth):
    X = random_hermitian(rng_for(seed), dims)
    W = X.shifted(float(np.linalg.eigvalsh(X.entries)[0]) + depth)
    dec = decomposition_search(W)
    assert 1 <= dec.iterations <= optimize._SPLIT_MAX_ITERS
    z = W.entries - dec.P.entries - partial_transpose(dec.Q).entries
    assert abs(np.linalg.norm(z) - dec.residual) <= 1e-12 * (1.0 + dec.residual)
    assert np.linalg.eigvalsh(dec.P.entries)[0] >= -1e-9
    assert np.linalg.eigvalsh(dec.Q.entries)[0] >= -1e-9
    z_pt = partial_transpose(HermitianOperator(dims, z)).entries
    assert np.linalg.eigvalsh(z_pt)[-1] <= 1e-9


@pytest.mark.parametrize(
    "seed, depth",
    [(1610, 0.859628127657393), (1487, 0.7913346578276198)],
)
def test_slow_draws_split_in_under_1000_iterations(seed, depth):
    # plain Dykstra took 9,986 and 5,475 iterations on these draws
    X = random_hermitian(rng_for(seed), (3, 3))
    W = X.shifted(float(np.linalg.eigvalsh(X.entries)[0]) + depth)
    res = ppt_violation_search(W)
    assert res.violation is not None
    assert res.decomposition.iterations < 1000


def test_rejected_extrapolations_fall_back_to_plain_dykstra(monkeypatch):
    # with D = 0 the safeguard rejects every extrapolated input, so the
    # loop must evaluate the plain Dykstra inputs in order, each rejected
    # input followed at once by g of the last accepted one
    W = w_xyz(1.0, 1.0, 0.0).operator
    w, dims = W.entries, W.dims
    plain = [np.zeros_like(w)]
    for _ in range(200):
        p = optimize._psd_clip(w - plain[-1])
        plain.append(optimize._pt2(optimize._psd_clip(optimize._pt2(w - p, dims)), dims))
    clip = optimize._psd_clip
    inputs, calls = [], []

    def logged_clip(a):
        # the first of each pair of clips is clip(W - q)
        if len(calls) % 2 == 0:
            inputs.append(w - a)
        calls.append(None)
        return clip(a)

    monkeypatch.setattr(optimize, "_psd_clip", logged_clip)
    monkeypatch.setattr(optimize, "_SAFEGUARD_D", 0.0)
    dec = decomposition_search(W)
    assert len(inputs) == dec.iterations
    j = rejected = 0
    after_rejection = False
    for q in inputs:
        if np.allclose(q, plain[j], rtol=0.0, atol=1e-12):
            j += 1
            after_rejection = False
        else:
            assert not after_rejection
            after_rejection = True
            rejected += 1
    assert rejected > 0
    assert j + rejected == dec.iterations
    monkeypatch.undo()
    assert decomposition_search(W).iterations < j


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
    depth=st.floats(0.01, 1.0),
)
# hard draws: violations found after 9,986 and 5,475 split iterations
@example(seed=1610, dims=(3, 3), depth=0.859628127657393)
@example(seed=1487, dims=(3, 3), depth=0.7913346578276198)
def test_split_outcomes_are_certificates(seed, dims, depth):
    X = random_hermitian(rng_for(seed), dims)
    # shift so that lambda_min(W) = -depth
    W = X.shifted(float(np.linalg.eigvalsh(X.entries)[0]) + depth)
    cfg = OptimizerConfig()
    res = ppt_violation_search(W, cfg)
    dec, violation = res.decomposition, res.violation
    assert not (dec.success and violation is not None)
    if dec.success:
        assert np.linalg.eigvalsh(dec.P.entries)[0] >= -1e-9
        assert np.linalg.eigvalsh(dec.Q.entries)[0] >= -1e-9
        recon = dec.P + partial_transpose(dec.Q)
        assert np.linalg.norm(recon.entries - W.entries) <= cfg.tol_zero
    if violation is not None:
        rho = violation.state
        assert abs(rho.trace() - 1.0) <= 1e-8
        assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-8
        assert np.linalg.eigvalsh(partial_transpose(rho).entries)[0] >= -1e-8
        value = float((W.entries @ rho.entries).trace().real)
        assert value < -cfg.tol_zero
        assert value == pytest.approx(violation.value, abs=1e-12)
