"""Canonical-form witnesses W = sigma - c*I and their classification.

For a separable unit-or-unnormalized PSD matrix sigma the shifted
operator sigma - c*I is an entanglement witness exactly when c lies in
the window

    lambda_min(sigma) < c <= min over products of <u,v|sigma|u,v>,

and it is *weakly optimal* (touches the separable body: some product
vector reaches expectation zero) exactly at the right endpoint.  The
factories here enforce that window and hand back immutable value
objects; ``classify`` re-derives everything from scratch for arbitrary
Hermitian input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    DimensionError,
    HermitianOperator,
    eig_hermitian,
    partial_transpose,
    product_expectation,
)
from .optimize import (
    OptimizerConfig,
    collect_zero_products,
    max_product_expectation,
    min_product_expectation,
)
from .sampling import random_density, rng_for

__all__ = [
    "CanonicalWitness",
    "ClassificationReport",
    "FinerReport",
    "HyperplaneForm",
    "NotAWitnessError",
    "PerturbationReport",
    "ProductViolationError",
    "PTInvarianceReport",
    "PTThresholdReport",
    "SeparabilityError",
    "check_pt_invariance",
    "check_pt_threshold_match",
    "classify",
    "dual_witness_from_separable",
    "from_hyperplane_form",
    "is_finer",
    "perturb_add_positive",
    "perturb_subtract_positive",
    "quantify_over_set",
    "to_hyperplane_form",
    "witness_from_separable",
]

PSD_ATOL = 1e-10


class NotAWitnessError(ValueError):
    """The requested shift keeps the operator positive semidefinite."""


class ProductViolationError(ValueError):
    """The operator goes negative on a product vector (so it is not a
    witness); carries the violating vector."""

    def __init__(self, message, product_vector, value):
        super().__init__(message)
        self.product_vector = product_vector
        self.value = value


class SeparabilityError(ValueError):
    """sigma could not be certified separable (or is provably not)."""


@dataclass(frozen=True)
class CanonicalWitness:
    """Witness in shifted form.  ``dual=False`` means sigma - c*I,
    ``dual=True`` means c*I - sigma."""

    sigma: HermitianOperator
    c: float
    operator: HermitianOperator
    separability_evidence: str
    dual: bool = False

    def __post_init__(self):
        expected = (
            float(self.c) * np.eye(self.sigma.side) - self.sigma.entries
            if self.dual
            else self.sigma.entries - float(self.c) * np.eye(self.sigma.side)
        )
        if np.abs(self.operator.entries - expected).max() > 1e-12:
            raise ValueError("operator does not equal the shifted sigma")


@dataclass(frozen=True)
class ClassificationReport:
    """Everything classify() established about one Hermitian operator."""

    is_psd: bool
    min_eigenvalue: float
    negative_eigenvector: object  # ndarray | None
    minprod: object  # MinProdResult
    is_witness: bool
    weakly_optimal: bool
    zero_product: object  # ProductVector | None
    tol_zero: float


def classify(X, cfg=None):
    """Witness / weak-optimality verdict for a bipartite Hermitian X.

    X is a witness when its product expectations stay above -tol_zero
    while some eigenvalue drops below; weakly optimal when additionally
    the product infimum vanishes, in which case the touching product
    vector is reported.
    """
    cfg = cfg or OptimizerConfig()
    spectrum = eig_hermitian(X)
    min_eig = spectrum.lambda_min
    has_negative = min_eig < -cfg.tol_zero
    mp = min_product_expectation(X, cfg)
    is_witness = has_negative and mp.value >= -cfg.tol_zero
    weakly_optimal = is_witness and abs(mp.value) <= cfg.tol_zero
    return ClassificationReport(
        is_psd=not has_negative,
        min_eigenvalue=min_eig,
        negative_eigenvector=spectrum.vector(0) if has_negative else None,
        minprod=mp,
        is_witness=is_witness,
        weakly_optimal=weakly_optimal,
        zero_product=mp.argmin if weakly_optimal else None,
        tol_zero=cfg.tol_zero,
    )


def _ball_criterion(sigma):
    """Sufficient separability test: closeness to the maximally mixed
    state in Frobenius norm."""
    d = sigma.side
    tr = sigma.trace()
    if tr <= 0:
        return False
    gap = float(np.linalg.norm(sigma.entries / tr - np.eye(d) / d))
    return gap <= 1.0 / math.sqrt(d * (d - 1))


def _separability_evidence(sigma, assert_separable):
    vals = np.linalg.eigvalsh(sigma.entries)
    if vals[0] < -PSD_ATOL:
        raise SeparabilityError(
            f"sigma is not positive semidefinite (lambda_min = {vals[0]:.3e})"
        )
    d_a, d_b = sigma.dims
    if d_a * d_b <= 6:
        # PPT decides separability at these sizes
        pt_vals = np.linalg.eigvalsh(partial_transpose(sigma).entries)
        if pt_vals[0] < -PSD_ATOL:
            raise SeparabilityError(
                f"sigma is NPT hence entangled (lambda_min of PT = {pt_vals[0]:.3e})"
            )
        return "ppt-verified", vals
    if _ball_criterion(sigma):
        return "ball-criterion", vals
    if assert_separable:
        return "caller-asserted", vals
    raise SeparabilityError(
        "cannot certify separability above 2x3; pass assert_separable=True "
        "to take responsibility"
    )


def _shifted_witness(sigma, c, cfg, assert_separable, dual):
    """sigma - c*I, or c*I - sigma when ``dual``, proven a witness.

    The dual is the same test on -sigma at shift -c: with sign = -1 each
    comparison below is the primal one negated, exactly in floating point.
    """
    cfg = cfg or OptimizerConfig()
    if len(sigma.dims) != 2:
        raise DimensionError(f"need a bipartite sigma, got dims {sigma.dims}")
    evidence, vals = _separability_evidence(sigma, assert_separable)
    c = float(c)
    sign = -1.0 if dual else 1.0
    edge = float(vals[-1] if dual else vals[0])
    if sign * c <= sign * edge:
        raise NotAWitnessError(
            f"not a witness: shift {c} {'>= lambda_max' if dual else '<= lambda_min'} "
            f"{edge:.12g} keeps {'c*I - sigma' if dual else 'sigma - c*I'} "
            "positive semidefinite"
        )
    search = max_product_expectation if dual else min_product_expectation
    mp = search(sigma, cfg)
    if sign * c > sign * mp.value + cfg.tol_zero:
        floor = sign * (mp.value - c)
        raise ProductViolationError(
            f"not a witness: negative on a product vector (expectation {floor:.3e})",
            mp.argmin,
            floor,
        )
    if dual:
        operator = HermitianOperator(sigma.dims, c * np.eye(sigma.side) - sigma.entries)
    else:
        operator = sigma.shifted(c)
    return CanonicalWitness(sigma, c, operator, evidence, dual)


def witness_from_separable(sigma, c, cfg=None, assert_separable=False):
    """Build sigma - c*I and prove it is a witness.

    Raises NotAWitnessError when c <= lambda_min(sigma) (the shift stays
    PSD) and ProductViolationError when c overshoots the product
    infimum, carrying the violating product vector.
    """
    return _shifted_witness(sigma, c, cfg, assert_separable, dual=False)


def dual_witness_from_separable(sigma, c, cfg=None, assert_separable=False):
    """Build c*I - sigma; valid for maxprod(sigma) <= c < lambda_max."""
    return _shifted_witness(sigma, c, cfg, assert_separable, dual=True)


# ---------------------------------------------------------------------------
# spectral cross-checks against the partial transpose
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PTThresholdReport:
    """Product-expectation extrema of sigma vs the PT spectrum edge.

    For sigma whose maximally-shifted witness is optimal and
    decomposable the threshold coincides with lambda_min(sigma^Gamma)
    (and dually the max threshold with lambda_max); ``agree`` records
    the comparison at 1e-6.
    """

    threshold: float
    pt_lambda_min: float
    agree: bool
    dual_threshold: float
    pt_lambda_max: float
    dual_agree: bool
    shifted_pt_psd: bool


def check_pt_threshold_match(sigma, cfg=None, atol=1e-6):
    cfg = cfg or OptimizerConfig()
    mp = min_product_expectation(sigma, cfg)
    mx = max_product_expectation(sigma, cfg)
    pt_vals = np.linalg.eigvalsh(partial_transpose(sigma).entries)
    pt_min, pt_max = float(pt_vals[0]), float(pt_vals[-1])
    return PTThresholdReport(
        threshold=mp.value,
        pt_lambda_min=pt_min,
        agree=abs(mp.value - pt_min) <= atol,
        dual_threshold=mx.value,
        pt_lambda_max=pt_max,
        dual_agree=abs(mx.value - pt_max) <= atol,
        shifted_pt_psd=pt_min - mp.value >= -1e-8,
    )


@dataclass(frozen=True)
class PTInvarianceReport:
    value: float
    value_pt: float
    gap: float
    agree: bool


def check_pt_invariance(X, cfg=None, atol=1e-6):
    """Product infimum of X vs of X^Gamma.

    Conjugating the second factor maps product vectors onto product
    vectors, so the two infima agree for every Hermitian X; the report
    records the numerical gap.
    """
    cfg = cfg or OptimizerConfig()
    a = min_product_expectation(X, cfg).value
    b = min_product_expectation(partial_transpose(X), cfg).value
    return PTInvarianceReport(a, b, abs(a - b), abs(a - b) <= atol)


# ---------------------------------------------------------------------------
# detection-set comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinerReport:
    verdict: str  # "finer" | "not-finer" | "undetermined"
    counterexample: object  # HermitianOperator | None
    samples_used: int


def _operator_of(w):
    return w.operator if isinstance(w, CanonicalWitness) else w


def is_finer(w1, w2, cfg=None, samples=200):
    """Does every state detected by w1 get detected by w2?

    Exact fast paths: shared sigma (compare shifts) and the operator
    order W2 <= W1.  Otherwise sampled states detected by w1 are
    checked against w2; a miss yields verdict "not-finer" with the
    counterexample state, no miss yields "undetermined" (sampling
    cannot prove inclusion).
    """
    cfg = cfg or OptimizerConfig()
    W1, W2 = _operator_of(w1), _operator_of(w2)
    if W1.dims != W2.dims:
        raise DimensionError(f"dims mismatch: {W1.dims} vs {W2.dims}")
    shared_sigma = (
        isinstance(w1, CanonicalWitness)
        and isinstance(w2, CanonicalWitness)
        and not w1.dual
        and not w2.dual
        and np.array_equal(w1.sigma.entries, w2.sigma.entries)
    )
    if shared_sigma:
        if w2.c >= w1.c:
            return FinerReport("finer", None, 0)
        counter = _between_detection(W1, W2, cfg)
        return FinerReport("not-finer", counter, 0)
    gap = float(np.linalg.eigvalsh(W2.entries - W1.entries)[-1])
    if gap <= 1e-12:
        # W2 <= W1 pointwise on states
        return FinerReport("finer", None, 0)
    rng = rng_for(cfg.seed, 733)
    dims = W1.dims
    spectrum = eig_hermitian(W1)
    candidates = []
    if spectrum.lambda_min < -cfg.tol_zero:
        v = spectrum.vector(0)
        candidates.append(np.outer(v, v.conj()))
    used = 0
    for _ in range(samples):
        used += 1
        rho = random_density(rng, dims).entries
        if candidates:
            # mix toward the detected projector to stay inside D_W1
            t = rng.uniform(0.0, 1.0)
            rho = t * rho + (1 - t) * candidates[0]
        val1 = float((W1.entries @ rho).trace().real)
        if val1 >= -cfg.tol_zero:
            continue
        val2 = float((W2.entries @ rho).trace().real)
        if val2 > cfg.tol_zero:
            return FinerReport(
                "not-finer", HermitianOperator(dims, rho), used
            )
    return FinerReport("undetermined", None, used)


def _between_detection(W1, W2, cfg):
    """State detected by W1 but not by W2 = W1 + t*I with t > 0.

    Such a state needs tr(W1 rho) in the open window (-t, 0); mixing
    the minimal eigenprojector with a positive-expectation product
    state lands the trace at any target inside (lambda_min, maxprod).
    """
    spectrum = eig_hermitian(W1)
    v = spectrum.vector(0)
    pi = np.outer(v, v.conj())
    lam = spectrum.lambda_min
    dims = W1.dims
    t_shift = float((W2.entries - W1.entries)[0, 0].real)
    if lam >= 0.0 or t_shift <= 0.0:
        return None
    if lam + t_shift >= 0.0:
        # the whole detection range of W1 is invisible to W2
        return HermitianOperator(dims, pi)
    mx = max_product_expectation(W1, cfg)
    pos_val = mx.value
    if pos_val <= 0.0:
        return None
    w_plus = mx.argmin.kron()
    pos = np.outer(w_plus, w_plus.conj())
    target = max(lam, -t_shift) / 2.0
    mix = (target - lam) / (pos_val - lam)
    rho = (1.0 - mix) * pi + mix * pos
    return HermitianOperator(dims, rho / rho.trace().real)


# ---------------------------------------------------------------------------
# perturbations by positive operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationReport:
    classification: ClassificationReport
    survived_witness: bool
    survived_weak_optimality: bool
    zero_expectation: object  # float | None: <u,v|P|u,v> at W's zero product
    vanishes_on_zero_set: object  # bool | None
    perturbation_class: object  # str | None


def _perturbation_report(
    before, after, zero_expectation=None, vanishes_on_zero_set=None, perturbation_class=None
):
    """W + P or W - Q (classified as ``after``) keeps a property only
    if W (``before``) had it."""
    return PerturbationReport(
        classification=after,
        survived_witness=before.is_witness and after.is_witness,
        survived_weak_optimality=before.weakly_optimal and after.weakly_optimal,
        zero_expectation=zero_expectation,
        vanishes_on_zero_set=vanishes_on_zero_set,
        perturbation_class=perturbation_class,
    )


def _require_positive(P, name):
    lam = float(np.linalg.eigvalsh(P.entries)[0])
    if lam < -PSD_ATOL:
        raise ValueError(f"{name} must be PSD (lambda_min = {lam:.3e})")
    if float(np.linalg.norm(P.entries)) <= 1e-12:
        raise ValueError(f"{name} must be nonzero")


def perturb_add_positive(W, P, cfg=None):
    """Classify W + P for PSD nonzero P, with zero-set diagnostics.

    The report records the expectation of P at W's touching product
    vector (when W has one), whether P vanishes somewhere on W's
    collected zero set, and a qualitative class:

    - "vanishing-on-zero-set":  P keeps some touching vector at zero,
      so weak optimality can survive;
    - "covers-negative-space":  range(P) covers every negative
      eigendirection of W, so witness-hood itself is at risk;
    - "keeps-negative-direction":  neither of the above.
    """
    cfg = cfg or OptimizerConfig()
    _require_positive(P, "P")
    before = classify(W, cfg)
    after = classify(W + P, cfg)
    zeros = collect_zero_products(W, cfg)
    zero_expect = None
    if before.zero_product is not None:
        zero_expect = product_expectation(P, before.zero_product)
    vanishes = (
        any(abs(product_expectation(P, z)) <= cfg.tol_zero for z in zeros)
        if zeros
        else None
    )
    if vanishes:
        klass = "vanishing-on-zero-set"
    else:
        klass = (
            "covers-negative-space"
            if _covers_negative_space(W, P, cfg)
            else "keeps-negative-direction"
        )
    return _perturbation_report(
        before,
        after,
        zero_expectation=zero_expect,
        vanishes_on_zero_set=vanishes,
        perturbation_class=klass,
    )


def _covers_negative_space(W, P, cfg):
    w_spec = eig_hermitian(W)
    neg = w_spec.eigenvectors[:, w_spec.eigenvalues < -cfg.tol_zero]
    if neg.shape[1] == 0:
        return False
    p_spec = eig_hermitian(P)
    keep = p_spec.eigenvalues > 1e-10 * max(p_spec.lambda_max, 1e-30)
    basis = p_spec.eigenvectors[:, keep]
    resid = neg - basis @ (basis.conj().T @ neg)
    return bool(np.linalg.norm(resid, axis=0).max() <= 1e-8)


def perturb_subtract_positive(W, Q, cfg=None):
    """Classify W - Q for PSD nonzero Q and report what survived."""
    cfg = cfg or OptimizerConfig()
    _require_positive(Q, "Q")
    before = classify(W, cfg)
    after = classify(W - Q, cfg)
    return _perturbation_report(before, after)


# ---------------------------------------------------------------------------
# witnessed entanglement over a fixed witness set
# ---------------------------------------------------------------------------


def quantify_over_set(rho, witnesses):
    """max(0, -min_W tr(W rho)) over a finite witness collection."""
    if not witnesses:
        raise ValueError("witness collection is empty")
    operators = [_operator_of(w) for w in witnesses]
    for W in operators:
        if W.dims != rho.dims:
            raise DimensionError(f"dims mismatch: witness {W.dims} vs rho {rho.dims}")
    vals = np.linalg.eigvalsh(rho.entries)
    if vals[0] < -1e-8:
        raise ValueError(f"rho is not PSD (lambda_min = {vals[0]:.3e})")
    if abs(rho.trace() - 1.0) > 1e-10:
        raise ValueError(f"rho must have unit trace, got {rho.trace():.12g}")
    worst = min(float((W.entries @ rho.entries).trace().real) for W in operators)
    return max(0.0, -worst)


# ---------------------------------------------------------------------------
# hyperplane normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperplaneForm:
    """Same witness with the shift scaled by the total dimension, i.e.
    tr(W rho) = tr(sigma rho) - c_prime * tr(rho I/d)."""

    sigma: HermitianOperator
    c_prime: float


def to_hyperplane_form(witness):
    d = witness.sigma.side
    return HyperplaneForm(witness.sigma, witness.c * d)


def from_hyperplane_form(form, cfg=None, assert_separable=False):
    d = form.sigma.side
    return witness_from_separable(
        form.sigma, form.c_prime / d, cfg, assert_separable
    )
