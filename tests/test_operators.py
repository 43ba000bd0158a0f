"""Value-type behavior: construction guards, spectra, partial
transpose, product expectations, JSON round trips."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from witnesskit.operators import (
    DENSE_SIDE_CAP,
    DimensionError,
    HermitianOperator,
    NonFiniteError,
    NonHermitianError,
    ProductVector,
    conditioned_matrix,
    eig_hermitian,
    inf_norm,
    load_operator,
    operator_from_json,
    operator_to_json,
    partial_transpose,
    product_expectation,
    save_operator,
    tensor,
)
from witnesskit.sampling import random_hermitian, random_product_vector, rng_for


def test_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        HermitianOperator((1, 2), [[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_rejects_non_finite(bad):
    entries = np.eye(4, dtype=np.complex128)
    entries[1, 1] = bad
    with pytest.raises(NonFiniteError):
        HermitianOperator((2, 2), entries)


def test_rejects_shape_mismatch():
    with pytest.raises(DimensionError):
        HermitianOperator((2, 2), np.eye(3))


def test_rejects_bad_dims():
    with pytest.raises(DimensionError):
        HermitianOperator((2, 0), np.eye(0))
    with pytest.raises(DimensionError):
        HermitianOperator((), np.eye(1))


def test_entries_are_read_only():
    X = HermitianOperator.identity((2, 2))
    with pytest.raises(ValueError):
        X.entries[0, 0] = 5.0


def test_arithmetic_and_shift():
    rng = rng_for(3)
    X = random_hermitian(rng, (2, 2))
    Y = random_hermitian(rng, (2, 2))
    np.testing.assert_allclose((X + Y).entries, X.entries + Y.entries)
    np.testing.assert_allclose((X - Y).entries, X.entries - Y.entries)
    np.testing.assert_allclose((2.5 * X).entries, 2.5 * X.entries)
    np.testing.assert_allclose((-X).entries, -X.entries)
    np.testing.assert_allclose(
        X.shifted(0.7).entries, X.entries - 0.7 * np.eye(4)
    )
    assert X.trace() == pytest.approx(float(X.entries.trace().real))


def test_add_requires_matching_dims():
    with pytest.raises(DimensionError):
        HermitianOperator.identity((2, 2)) + HermitianOperator.identity((1, 4))


def test_with_dims_regroups_without_copy():
    X = HermitianOperator.identity((2, 2))
    Y = X.with_dims((4,))
    assert Y.dims == (4,)
    np.testing.assert_array_equal(Y.entries, X.entries)
    with pytest.raises(DimensionError):
        X.with_dims((3, 2))


def test_product_vector_normalization_enforced():
    with pytest.raises(ValueError):
        ProductVector(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


def test_product_vector_kron_overlap_conjugate():
    rng = rng_for(11)
    pv = random_product_vector(rng, (2, 3))
    np.testing.assert_allclose(pv.kron(), np.kron(pv.u, pv.v))
    assert pv.overlap(pv) == pytest.approx(1.0)
    other = random_product_vector(rng, (2, 3))
    assert 0.0 <= pv.overlap(other) <= 1.0
    flipped = pv.conjugate_second()
    np.testing.assert_allclose(flipped.v, pv.v.conj())


def test_eig_hermitian_ascending_and_norm():
    rng = rng_for(5)
    X = random_hermitian(rng, (2, 3))
    spec = eig_hermitian(X)
    assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
    assert spec.lambda_min == pytest.approx(spec.eigenvalues[0])
    assert spec.lambda_max == pytest.approx(spec.eigenvalues[-1])
    recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    np.testing.assert_allclose(recon, X.entries, atol=1e-12)
    assert inf_norm(X) == pytest.approx(np.abs(spec.eigenvalues).max())


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=7)  # the fixed draw this check started from
def test_partial_transpose_involution_and_trace(seed):
    rng = rng_for(seed)
    for dims in ((2, 2), (2, 3), (3, 3)):
        X = random_hermitian(rng, dims)
        pt = partial_transpose(X)
        assert np.array_equal(partial_transpose(pt).entries, X.entries)
        assert pt.trace() == pytest.approx(X.trace(), abs=1e-14)
        # transposing both factors is the full transpose
        both = partial_transpose(partial_transpose(X, 0), 1)
        np.testing.assert_array_equal(both.entries, X.entries.T)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]))
def test_partial_transpose_conjugates_the_second_factor(seed, dims):
    # <u,v|X|u,v> = <u,v*|X^Gamma|u,v*>: the identity behind
    # minprod(X) = minprod(X^Gamma)
    rng = rng_for(seed)
    X = random_hermitian(rng, dims)
    pv = random_product_vector(rng, dims)
    expected = product_expectation(X, pv)
    got = product_expectation(partial_transpose(X), pv.conjugate_second())
    assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))


def test_partial_transpose_factor_index_bounds():
    X = HermitianOperator.identity((2, 2))
    with pytest.raises(DimensionError):
        partial_transpose(X, 2)


def test_tensor_concatenates_dims_and_caps_size():
    A = HermitianOperator.identity((2,))
    B = HermitianOperator.identity((3,))
    T = tensor(A, B)
    assert T.dims == (2, 3)
    big = HermitianOperator.identity((65,))
    wide = HermitianOperator.identity((64,))
    with pytest.raises(DimensionError):
        tensor(big, wide)


def test_product_expectation_matches_direct_form():
    rng = rng_for(13)
    X = random_hermitian(rng, (2, 3))
    pv = random_product_vector(rng, (2, 3))
    w = pv.kron()
    expected = float(np.vdot(w, X.entries @ w).real)
    assert product_expectation(X, pv) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(DimensionError):
        product_expectation(X, random_product_vector(rng, (3, 2)))


def test_conditioned_matrix_reproduces_expectation():
    rng = rng_for(17)
    X = random_hermitian(rng, (2, 3))
    pv = random_product_vector(rng, (2, 3))
    Ma = conditioned_matrix(X, "A", pv.u)
    Mb = conditioned_matrix(X, "B", pv.v)
    val = product_expectation(X, pv)
    assert float(np.vdot(pv.v, Ma @ pv.v).real) == pytest.approx(val, abs=1e-12)
    assert float(np.vdot(pv.u, Mb @ pv.u).real) == pytest.approx(val, abs=1e-12)
    np.testing.assert_allclose(Ma, Ma.conj().T, atol=1e-14)
    with pytest.raises(ValueError):
        conditioned_matrix(X, "C", pv.u)
    with pytest.raises(DimensionError):
        conditioned_matrix(X, "A", pv.v)


@settings(
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3),
)
@example(seed=19, dims=[2, 3])
def test_json_round_trip(tmp_path, seed, dims):
    # the document passes through JSON text and back bitwise, dims
    # included; so does a file written by save_operator (each example
    # overwrites the same file)
    X = random_hermitian(rng_for(seed), tuple(dims))
    doc = operator_to_json(X)
    assert doc["dims"] == dims
    back = operator_from_json(json.loads(json.dumps(doc)))
    assert back.dims == X.dims
    assert back.entries.tobytes() == X.entries.tobytes()
    path = tmp_path / "x.json"
    save_operator(X, str(path))
    loaded = load_operator(str(path))
    assert loaded.dims == X.dims
    assert loaded.entries.tobytes() == X.entries.tobytes()


def test_json_im_optional_and_validated():
    doc = {"dims": [1, 2], "re": [[1.0, 0.0], [0.0, 2.0]]}
    X = operator_from_json(doc)
    assert np.abs(X.entries.imag).max() == 0.0
    with pytest.raises(ValueError):
        operator_from_json({"re": [[1.0]]})
    with pytest.raises(ValueError):
        operator_from_json({"dims": [1, 2], "re": [[1, 0], [0, 1]], "im": [[0.0]]})
    # dims must be a JSON list of integers, not coerced by int()
    for bad in ("22", [2.5, 2], [True, 4]):
        with pytest.raises(ValueError, match="dims"):
            operator_from_json({"dims": bad, "re": np.eye(4).tolist()})


def test_dense_side_cap_value():
    assert DENSE_SIDE_CAP == 4096
