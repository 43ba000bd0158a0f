"""Classification and canonical-form construction: verdict boundaries,
separability gating, PT cross-checks, fineness, perturbations, and the
hyperplane normalization."""

import numpy as np
import pytest

from witnesskit.families import (
    isotropic_witness,
    maximally_entangled,
    pt_bell_witness_2x3,
    qutrit_pair_example,
    sigma1,
    two_block_witness,
    werner_state,
)
from witnesskit.operators import DimensionError, HermitianOperator, product_expectation
from witnesskit.optimize import (
    OptimizerConfig,
    max_product_expectation,
    min_product_expectation,
)
from witnesskit.sampling import random_hermitian, random_product_mixture, rng_for
from witnesskit.witness import (
    CanonicalWitness,
    NotAWitnessError,
    ProductViolationError,
    SeparabilityError,
    check_pt_invariance,
    check_pt_threshold_match,
    classify,
    dual_witness_from_separable,
    from_hyperplane_form,
    is_finer,
    perturb_add_positive,
    perturb_subtract_positive,
    quantify_over_set,
    to_hyperplane_form,
    witness_from_separable,
)

CFG = OptimizerConfig(restarts=24, seed=0)


def test_classify_weakly_optimal_at_exact_shift():
    rep = classify(sigma1().shifted(0.5), CFG)
    assert not rep.is_psd
    assert rep.is_witness
    assert rep.weakly_optimal
    assert rep.min_eigenvalue == pytest.approx(-0.5, abs=1e-9)
    assert abs(rep.minprod.value) <= 1e-7
    assert rep.zero_product is not None
    assert rep.negative_eigenvector is not None


def test_classify_witness_without_weak_optimality():
    rep = classify(sigma1().shifted(0.45), CFG)
    assert rep.is_witness
    assert not rep.weakly_optimal
    assert rep.minprod.value == pytest.approx(0.05, abs=1e-6)
    assert rep.zero_product is None


def test_classify_psd_input_is_not_witness():
    rep = classify(sigma1(), CFG)
    assert rep.is_psd
    assert not rep.is_witness
    assert rep.negative_eigenvector is None


def test_classify_rejects_product_violation():
    # shift past the product floor: still Hermitian, no longer a witness
    rep = classify(sigma1().shifted(0.7), CFG)
    assert not rep.is_psd
    assert not rep.is_witness
    assert rep.minprod.value == pytest.approx(-0.2, abs=1e-6)


def test_witness_from_separable_window():
    w = witness_from_separable(sigma1(), 0.5, CFG)
    assert isinstance(w, CanonicalWitness)
    assert not w.dual
    assert w.separability_evidence == "ppt-verified"
    np.testing.assert_allclose(
        w.operator.entries, sigma1().entries - 0.5 * np.eye(4), atol=1e-14
    )
    with pytest.raises(NotAWitnessError):
        witness_from_separable(sigma1(), 0.0, CFG)
    with pytest.raises(ProductViolationError) as err:
        witness_from_separable(sigma1(), 0.6, CFG)
    pv = err.value.product_vector
    assert product_expectation(sigma1(), pv) - 0.6 == pytest.approx(
        err.value.value, abs=1e-9
    )


def test_dual_witness_from_separable_window():
    # needs a separable sigma whose top eigenvector is entangled, so
    # that the product ceiling sits strictly below lambda_max
    rng = rng_for(51)
    sig = random_product_mixture(rng, (2, 2), 4)
    hi = max_product_expectation(sig, CFG).value
    lam_max = float(np.linalg.eigvalsh(sig.entries)[-1])
    assert hi < lam_max - 1e-6
    w = dual_witness_from_separable(sig, hi, CFG)
    assert w.dual
    rep = classify(w.operator, CFG)
    assert rep.is_witness and rep.weakly_optimal
    with pytest.raises(NotAWitnessError):
        dual_witness_from_separable(sig, lam_max, CFG)
    with pytest.raises(ProductViolationError):
        dual_witness_from_separable(sig, hi - 0.05, CFG)


def test_dual_witness_is_the_negated_shift():
    # both builders run one gate; the dual's operator, shift checks and
    # violation value are the primal ones negated, entry by entry
    sig = random_product_mixture(rng_for(51), (2, 2), 4)
    lo = min_product_expectation(sig, CFG).value
    hi = max_product_expectation(sig, CFG).value
    vals = np.linalg.eigvalsh(sig.entries)
    w = dual_witness_from_separable(sig, hi, CFG)
    np.testing.assert_array_equal(w.operator.entries, -sig.shifted(hi).entries)
    np.testing.assert_array_equal(w.operator.entries, hi * np.eye(4) - sig.entries)
    for build, c, edge, text in (
        (witness_from_separable, vals[0], "<= lambda_min", "sigma - c*I"),
        (dual_witness_from_separable, vals[-1], ">= lambda_max", "c*I - sigma"),
    ):
        with pytest.raises(NotAWitnessError) as info:
            build(sig, c, CFG)
        assert str(info.value) == (
            f"not a witness: shift {c} {edge} {c:.12g} keeps {text} positive semidefinite"
        )
    for build, c, value in (
        (witness_from_separable, lo + 0.05, lo - (lo + 0.05)),
        (dual_witness_from_separable, hi - 0.05, (hi - 0.05) - hi),
    ):
        with pytest.raises(ProductViolationError) as info:
            build(sig, c, CFG)
        assert info.value.value == value
        assert str(info.value) == (
            f"not a witness: negative on a product vector (expectation {value:.3e})"
        )


def test_witness_builders_take_sigma_spectrum_from_the_gate(monkeypatch):
    # the separability gate's eigvalsh of sigma also gives lambda_min
    # (lambda_max for the dual); neither builder solves sigma again
    sig = random_product_mixture(rng_for(51), (2, 2), 4)
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if a is sig.entries:
            solves.append(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    vals = eigvalsh(sig.entries)
    for build, c in ((witness_from_separable, vals[0]), (dual_witness_from_separable, vals[-1])):
        solves.clear()
        with pytest.raises(NotAWitnessError, match=f"{c:.12g}"):
            build(sig, c, CFG)
        assert len(solves) == 1


def test_separability_gate_rejects_entangled_sigma():
    psi = maximally_entangled(2)
    bell = HermitianOperator((2, 2), np.outer(psi, psi.conj()))
    with pytest.raises(SeparabilityError):
        witness_from_separable(bell, 0.1, CFG)


def test_separability_gate_above_2x3_needs_caller_assertion():
    # separable by construction on 3x3, but too lumpy for the
    # mixedness ball and too large for the PPT shortcut
    rng = rng_for(53)
    sig = random_product_mixture(rng, (3, 3), 6)
    with pytest.raises(SeparabilityError):
        witness_from_separable(sig, 1.0, CFG)
    mp = min_product_expectation(sig, CFG).value
    lam = float(np.linalg.eigvalsh(sig.entries)[0])
    assert lam < mp - 1e-6
    w = witness_from_separable(sig, mp, CFG, assert_separable=True)
    assert w.separability_evidence == "caller-asserted"


def test_separability_gate_rejects_non_psd():
    with pytest.raises(SeparabilityError):
        witness_from_separable(sigma1().shifted(0.2), 0.1, CFG)


def test_pt_threshold_match_on_reference_sigma():
    rep = check_pt_threshold_match(sigma1(), CFG)
    assert rep.agree
    assert rep.threshold == pytest.approx(0.5, abs=1e-6)
    assert rep.pt_lambda_min == pytest.approx(0.5, abs=1e-12)
    # the ceiling comparison does not coincide for this instance and
    # the report must say so rather than hide it
    assert rep.dual_threshold == pytest.approx(1.0, abs=1e-6)
    assert rep.pt_lambda_max == pytest.approx(1.5, abs=1e-12)
    assert not rep.dual_agree
    assert rep.shifted_pt_psd


def test_pt_invariance_random_instances():
    rng = rng_for(49)
    for dims in ((2, 2), (2, 3)):
        for _ in range(3):
            X = random_hermitian(rng, dims)
            rep = check_pt_invariance(X, CFG, atol=1e-8)
            assert rep.agree, f"gap {rep.gap} on dims {dims}"


def test_is_finer_shared_sigma_orders_by_shift():
    w1 = witness_from_separable(sigma1(), 0.45, CFG)
    w2 = witness_from_separable(sigma1(), 0.5, CFG)
    assert is_finer(w1, w2, CFG).verdict == "finer"
    back = is_finer(w2, w1, CFG)
    assert back.verdict == "not-finer"
    rho = back.counterexample
    assert rho is not None
    # detected by w2, invisible to w1
    assert float((w2.operator.entries @ rho.entries).trace().real) < 0
    assert float((w1.operator.entries @ rho.entries).trace().real) >= -1e-9


def test_is_finer_operator_order_fast_path():
    W1 = two_block_witness(1.0, 1.0)
    P = HermitianOperator((2, 2), np.diag([0.0, 0.1, 0.0, 0.0]))
    rep = is_finer(W1 + P, W1, CFG)
    assert rep.verdict == "finer"
    assert rep.samples_used == 0


def test_is_finer_sampled_counterexample():
    # the shifted sigma1 witness detects the singlet direction, which
    # the two-block witness sits exactly at zero on; sampling near the
    # detected projector must expose the miss
    W1 = sigma1().shifted(0.5)
    W2 = two_block_witness(1.0, 1.0)
    rep = is_finer(W1, W2, CFG)
    assert rep.verdict in ("not-finer", "undetermined")
    if rep.verdict == "not-finer":
        rho = rep.counterexample
        assert float((W1.entries @ rho.entries).trace().real) < 0
        assert float((W2.entries @ rho.entries).trace().real) > 0


def test_is_finer_dims_mismatch():
    from witnesskit.operators import DimensionError

    with pytest.raises(DimensionError):
        is_finer(two_block_witness(1.0, 1.0), HermitianOperator.identity((2, 3)), CFG)


def test_perturb_add_preserving_zero_set():
    ex = qutrit_pair_example()
    rep = perturb_add_positive(ex.W, ex.P, OptimizerConfig(restarts=64, seed=0))
    assert rep.survived_witness
    assert rep.survived_weak_optimality
    assert rep.zero_expectation is not None


def test_perturb_add_class_label_on_designed_projector():
    # every touching product vector of the two-block witness lies in
    # the kernel of the center-block projector, so adding it leaves
    # the zero set intact and the label must say so
    W = two_block_witness(1.0, 1.0)
    s = 1.0 / np.sqrt(2.0)
    chi = np.array([0.0, s, s, 0.0])
    P = HermitianOperator((2, 2), np.outer(chi, chi.conj()))
    rep = perturb_add_positive(W, P, OptimizerConfig(restarts=32, seed=0))
    assert rep.perturbation_class == "vanishing-on-zero-set"
    assert rep.vanishes_on_zero_set
    assert rep.survived_weak_optimality


def test_perturb_subtract_keeps_weak_optimality_on_reference_pair():
    ex = qutrit_pair_example()
    rep = perturb_subtract_positive(ex.W, ex.Q, OptimizerConfig(restarts=48, seed=0))
    assert rep.survived_witness
    assert rep.survived_weak_optimality


def test_perturb_validates_positivity():
    W = two_block_witness(1.0, 1.0)
    with pytest.raises(ValueError):
        perturb_add_positive(W, sigma1().shifted(0.5), CFG)
    with pytest.raises(ValueError):
        perturb_add_positive(W, HermitianOperator((2, 2), np.zeros((4, 4))), CFG)


def test_quantify_over_set():
    w = isotropic_witness(-1.0 / 3.0 + 1e-9)
    val = quantify_over_set(werner_state(1.0), [w])
    assert val == pytest.approx(1.0 / 6.0, abs=1e-6)
    assert quantify_over_set(werner_state(0.0), [w]) == 0.0
    with pytest.raises(ValueError):
        quantify_over_set(werner_state(0.5), [])
    with pytest.raises(ValueError):
        quantify_over_set(sigma1(), [w])  # trace 3, not a state


def test_quantify_over_set_rejects_mismatched_dims():
    w = pt_bell_witness_2x3()
    rho = np.eye(6) / 6.0
    assert quantify_over_set(HermitianOperator((2, 3), rho), [w]) >= 0.0
    # same side 6, transposed factors: the trace is defined but meaningless
    with pytest.raises(DimensionError, match="dims mismatch"):
        quantify_over_set(HermitianOperator((3, 2), rho), [w])
    with pytest.raises(DimensionError):
        quantify_over_set(werner_state(0.5), [isotropic_witness(-0.25), w])


def test_perturb_add_reports_no_survival_for_a_non_witness():
    # sigma1 - 0.6 I goes to -0.1 on products, so it is no witness;
    # adding 0.15 I makes a witness, but nothing "survived"
    W = sigma1().shifted(0.6)
    P = HermitianOperator.identity((2, 2)) * 0.15
    rep = perturb_add_positive(W, P, CFG)
    assert not classify(W, CFG).is_witness
    assert rep.classification.is_witness
    assert not rep.survived_witness
    assert not rep.survived_weak_optimality
    # sigma1 is PSD; removing 0.45 I makes a witness out of no witness
    sub = perturb_subtract_positive(sigma1(), P * 3.0, CFG)
    assert sub.classification.is_witness
    assert not sub.survived_witness


def test_hyperplane_round_trip():
    w = witness_from_separable(sigma1(), 0.5, CFG)
    form = to_hyperplane_form(w)
    assert form.c_prime == pytest.approx(2.0)
    back = from_hyperplane_form(form, CFG)
    assert back.c == pytest.approx(w.c, abs=1e-12)
    np.testing.assert_allclose(back.operator.entries, w.operator.entries, atol=1e-12)


def test_canonical_witness_consistency_guard():
    with pytest.raises(ValueError):
        CanonicalWitness(
            sigma=sigma1(),
            c=0.5,
            operator=sigma1(),  # not the shifted matrix
            separability_evidence="ppt-verified",
        )
