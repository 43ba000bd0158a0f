"""Named operator families and the reference-value registry.

Every constructor renders its matrix exactly (rational entries in
double precision); classification and optimization never enter the
builders.  ``reference_registry`` packages the known quantitative
facts about these families as runnable cases for the CLI ``reproduce``
command and the acceptance tests.  Cases flagged ``discrepancy`` record
internally inconsistent published claims: they report measured values
and never fail a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    HermitianOperator,
    ProductVector,
    eig_hermitian,
    partial_transpose,
    product_expectation,
)
from .lift import lift_state, lift_witness, operator_norm, projector_sandwich_gap, symmetric_expectation_gap
from .optimize import (
    OptimizerConfig,
    decomposition_search,
    min_product_expectation,
    ppt_violation_search,
)
from .witness import check_pt_invariance, classify, is_finer, witness_from_separable

__all__ = [
    "FAMILIES",
    "CaseCheck",
    "CaseResult",
    "ReferenceCase",
    "bell_state_witness",
    "choi_perturbation_pair",
    "choi_sigma",
    "get_case",
    "isotropic_sigma",
    "isotropic_witness",
    "maximally_entangled",
    "pt_bell_witness_2x3",
    "qutrit_pair_example",
    "reference_registry",
    "run_case",
    "sigma1",
    "sigma2",
    "two_block_witness",
    "two_block_witness_optimal",
    "w_xyz",
    "werner_state",
]


def maximally_entangled(d):
    """(1/sqrt(d)) sum_i |ii> on C^d (x) C^d."""
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[np.arange(d) * (d + 1)] = 1.0 / math.sqrt(d)
    return vec


def _lambda_min(X):
    """The smallest eigenvalue of X, by ``eigvalsh`` (the registry's
    zero-tolerance checks read its last bits)."""
    return float(np.linalg.eigvalsh(X.entries)[0])


def sigma1():
    """4x4 separable block matrix with product-expectation floor 1/2."""
    return HermitianOperator(
        (2, 2),
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
    )


def sigma2():
    """Companion of sigma1 with floor 0.6; same shifted witness."""
    return HermitianOperator(
        (2, 2),
        [
            [1.1, 0.0, 0.0, 0.0],
            [0.0, 0.6, 0.5, 0.0],
            [0.0, 0.5, 0.6, 0.0],
            [0.0, 0.0, 0.0, 1.1],
        ],
    )


def werner_state(p):
    """p |psi><psi| + (1-p) I/4 with |psi> = (|00>+|11>)/sqrt(2).

    Unit trace, PSD for 0 <= p <= 1; entangled exactly when p > 1/3.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    psi = maximally_entangled(2)
    return HermitianOperator(
        (2, 2), p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(4) / 4.0
    )


_ISO_RANGE_MSG = "q must lie in the open interval (-1/3, 0), got {}"


def isotropic_sigma(q, primed=False):
    """q |psi><psi| + (1-q) I/4, optionally with the extra off-diagonal
    -q/2 pattern of the primed variant.

    The primed matrix is rendered Hermitian by completing the printed
    entries symmetrically, which amounts to subtracting (q/2) sigma_x
    on the first qubit.
    """
    q = float(q)
    if not -1.0 / 3.0 < q < 0.0:
        raise ValueError(_ISO_RANGE_MSG.format(q))
    psi = maximally_entangled(2)
    sig = q * np.outer(psi, psi.conj()) + (1.0 - q) * np.eye(4) / 4.0
    if primed:
        sx_i = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        sig = sig - (q / 2.0) * sx_i
    return HermitianOperator((2, 2), sig)


def isotropic_witness(q, primed=False):
    """sigma_q - ((1+q)/4) I; detects the p-family of mixed entangled
    states with trace identity tr(W rho_p) = (3p-1)q/4."""
    return isotropic_sigma(q, primed).shifted((1.0 + float(q)) / 4.0)


@dataclass(frozen=True)
class WxyzResult:
    operator: HermitianOperator
    condition_met: bool


def w_xyz(x, y, z):
    """9x9 two-qutrit pattern witness.

    Diagonal cycles through (x, y, z) by (column - row) mod 3 in the
    factor indices; the six off-diagonal -1 entries connect |00>, |11>,
    |22>.  ``condition_met`` evaluates the known necessary-and-
    sufficient witness conditions:

        (a) 0 <= x < 2,
        (b) x + y + z >= 2,
        (c) if x <= 1 then y*z >= (1-x)^2.
    """
    x, y, z = float(x), float(y), float(z)
    if x < 0 or y < 0 or z < 0:
        raise ValueError(f"parameters must be nonnegative, got {(x, y, z)}")
    vals = (x, y, z)
    mat = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            mat[3 * i + j, 3 * i + j] = vals[(j - i) % 3]
    bell = [0, 4, 8]
    for k in bell:
        for l in bell:
            if k != l:
                mat[k, l] = -1.0
    met = (0.0 <= x < 2.0) and (x + y + z >= 2.0) and (x > 1.0 or y * z >= (1.0 - x) ** 2)
    return WxyzResult(HermitianOperator((3, 3), mat), met)


def choi_sigma():
    """The separable 9x9 matrix whose shift by 2I gives w_xyz(1,1,0)."""
    base = w_xyz(1.0, 1.0, 0.0).operator
    return HermitianOperator((3, 3), base.entries + 2.0 * np.eye(9))


def choi_perturbation_pair():
    """Two PSD operators built on eigenvectors of w_xyz(1,1,0); adding
    either preserves weak optimality."""
    v0 = maximally_entangled(3)
    v1 = np.zeros(9, dtype=np.complex128)
    v1[2] = 1.0  # |02>
    v2 = np.zeros(9, dtype=np.complex128)
    v2[3] = 1.0  # |10>
    v7 = np.zeros(9, dtype=np.complex128)
    v7[4], v7[0] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)  # (|11>-|00>)/sqrt2
    q0 = 0.5 * np.outer(v0, v0.conj()) + np.outer(v1, v1.conj())
    q1 = np.outer(v2, v2.conj()) + np.outer(v7, v7.conj())
    return HermitianOperator((3, 3), q0), HermitianOperator((3, 3), q1)


def two_block_witness(a, b):
    """Corner block partially transposed plus center block.

    The corner part a(|00>+|11>)(<00|+<11|) enters through its partial
    transpose; the center part spans |01>, |10> with uniform weight b.
    Weakly optimal with zero product u = (|0>-|1>)/sqrt2,
    v = (|0>+|1>)/sqrt2.
    """
    a, b = float(a), float(b)
    if a <= 0 or b <= 0:
        raise ValueError(f"a and b must be positive, got {(a, b)}")
    center = np.zeros((4, 4))
    center[np.ix_([1, 2], [1, 2])] = b
    return HermitianOperator((2, 2), two_block_witness_optimal(a).entries + center)


def two_block_witness_optimal(a):
    """The optimal counterpart: the partially transposed corner block alone."""
    a = float(a)
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    corner = np.zeros((4, 4))
    corner[np.ix_([0, 3], [0, 3])] = a
    return partial_transpose(HermitianOperator((2, 2), corner))


def two_block_zero_product():
    """The product vector with vanishing expectation for two_block_witness."""
    s = 1.0 / math.sqrt(2.0)
    return ProductVector(np.array([s, -s]), np.array([s, s]))


@dataclass(frozen=True)
class QutritPairExample:
    """Rank-one two-qutrit construction with perturbations P and Q.

    W = R1 + R2^Gamma + Q; adding P or removing Q keeps weak
    optimality (W1 = W + P, W2 = W - Q).
    """

    W: HermitianOperator
    W1: HermitianOperator
    W2: HermitianOperator
    P: HermitianOperator
    Q: HermitianOperator
    R1: HermitianOperator
    R2: HermitianOperator


def _ket9(pairs):
    vec = np.zeros(9, dtype=np.complex128)
    for idx, amp in pairs:
        vec[idx] = amp
    return vec


def qutrit_pair_example():
    s = 1.0 / math.sqrt(2.0)
    phi = _ket9([(1, s), (2, s)])  # |0>(|1>+|2>)
    phi_p = _ket9([(3, s), (5, s)])  # |1>(|0>+|2>)
    phi_pp = _ket9([(6, s), (7, s)])  # |2>(|0>+|1>)
    psi = maximally_entangled(3)
    r1 = HermitianOperator((3, 3), np.outer(phi, phi.conj()))
    r2 = HermitianOperator((3, 3), np.outer(psi, psi.conj()))
    q = HermitianOperator((3, 3), np.outer(phi_p, phi_p.conj()))
    p = HermitianOperator((3, 3), np.outer(phi_pp, phi_pp.conj()))
    w = r1 + partial_transpose(r2) + q
    return QutritPairExample(w, w + p, w - q, p, q, r1, r2)


def bell_state_witness():
    """(3/8) I - (1/2)|psi+><psi+| on two qubits; the four-copy lift
    example source."""
    psi = maximally_entangled(2)
    return HermitianOperator(
        (2, 2), 0.375 * np.eye(4) - 0.5 * np.outer(psi, psi.conj())
    )


def _embedded_bell_2x3():
    """Projector onto (|00> + |11>)/sqrt2 on C^2 (x) C^3."""
    psi = np.zeros(6, dtype=np.complex128)
    psi[0] = psi[4] = 1.0 / math.sqrt(2.0)
    return HermitianOperator((2, 3), np.outer(psi, psi.conj()))


def pt_bell_witness_2x3(Q=None):
    """Partially transposed embedded Bell projector plus a block operator
    on C^2 (x) C^3.

    Q must be PSD and supported on span{|00>,|01>,|10>,|11>} (columns
    0, 1, 3, 4); any such Q leaves <02|W|02> = 0, so the result is
    weakly optimal whenever it keeps a negative eigenvalue.  Default
    Q is the embedded Bell projector itself.
    """
    bell = _embedded_bell_2x3()
    base = partial_transpose(bell, factor_index=0)
    if Q is None:
        Q = bell
    if Q.dims != (2, 3):
        raise ValueError(f"Q must live on dims (2, 3), got {Q.dims}")
    if _lambda_min(Q) < -1e-10:
        raise ValueError("Q must be positive semidefinite")
    outside = [2, 5]
    if np.abs(Q.entries[outside, :]).max() > 1e-12 or np.abs(
        Q.entries[:, outside]
    ).max() > 1e-12:
        raise ValueError("Q must vanish outside span{|00>,|01>,|10>,|11>}")
    return base + Q


# name -> (constructor, parameter defaults) for the CLI ``family`` command
FAMILIES = {
    "sigma1": (sigma1, {}),
    "sigma2": (sigma2, {}),
    "choi-sigma": (choi_sigma, {}),
    "bell-witness": (bell_state_witness, {}),
    "pt-bell-2x3": (pt_bell_witness_2x3, {}),
    "werner": (werner_state, {"p": 0.5}),
    "isotropic-sigma": (isotropic_sigma, {"q": -0.25, "primed": False}),
    "isotropic-witness": (isotropic_witness, {"q": -0.25, "primed": False}),
    "wxyz": (w_xyz, {"x": 1.0, "y": 1.0, "z": 0.0}),
    "two-block": (two_block_witness, {"a": 1.0, "b": 1.0}),
    "two-block-optimal": (two_block_witness_optimal, {"a": 1.0}),
    "qutrit-pair": (qutrit_pair_example, {}),
}


# ---------------------------------------------------------------------------
# reference registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseCheck:
    """One expected quantity.  kind: 'eq' |measured-expected| <= tol;
    'ge' measured >= expected - tol; 'le' measured <= expected + tol."""

    quantity: str
    expected: object
    tolerance: float
    provenance: str  # "published" | "derived" | "trivial"
    kind: str = "eq"


@dataclass(frozen=True)
class ReferenceCase:
    name: str
    description: str
    build: object  # callable (OptimizerConfig) -> dict of measured values
    checks: tuple
    discrepancy: bool = False
    notes: str = ""


@dataclass(frozen=True)
class CaseResult:
    name: str
    status: str  # "pass" | "fail" | "documented-discrepancy"
    rows: tuple  # of dicts: quantity, expected, measured, tolerance, ok
    notes: str = ""


def _check_ok(check, measured):
    if check.kind == "eq":
        gap = np.max(np.abs(np.asarray(measured, dtype=float) - np.asarray(check.expected, dtype=float)))
        return bool(gap <= check.tolerance)
    if check.kind == "ge":
        return bool(float(measured) >= float(check.expected) - check.tolerance)
    if check.kind == "le":
        return bool(float(measured) <= float(check.expected) + check.tolerance)
    raise ValueError(f"unknown check kind {check.kind!r}")


def run_case(case, cfg=None):
    """Execute one registry case and compare against expectations."""
    cfg = cfg or OptimizerConfig()
    measured = case.build(cfg)
    rows = []
    all_ok = True
    for check in case.checks:
        got = measured[check.quantity]
        ok = _check_ok(check, got)
        all_ok = all_ok and ok
        rows.append(
            {
                "quantity": check.quantity,
                "expected": np.asarray(check.expected).tolist(),
                "measured": np.asarray(got).tolist(),
                "tolerance": check.tolerance,
                "provenance": check.provenance,
                "kind": check.kind,
                "ok": ok,
            }
        )
    reported = {c.quantity for c in case.checks}
    for key, val in measured.items():
        if key not in reported:
            rows.append(
                {
                    "quantity": key,
                    "expected": None,
                    "measured": np.asarray(val).tolist(),
                    "tolerance": None,
                    "provenance": "measured",
                    "kind": "report",
                    "ok": True,
                }
            )
    if case.discrepancy:
        status = "documented-discrepancy"
    else:
        status = "pass" if all_ok else "fail"
    return CaseResult(case.name, status, tuple(rows), case.notes)


def _build_sigma_floor(sigma_builder):
    def build(cfg):
        sig = sigma_builder()
        mp = min_product_expectation(sig, cfg)
        pt_min = _lambda_min(partial_transpose(sig))
        return {
            "min_product_expectation": mp.value,
            "pt_lambda_min": pt_min,
            "threshold_gap": abs(mp.value - pt_min),
        }

    return build


def _build_choi_eigenvalues(cfg):
    vals = eig_hermitian(w_xyz(1.0, 1.0, 0.0).operator).eigenvalues
    return {"eigenvalues": np.asarray(vals)}


def _build_choi_sigma_spectrum(cfg):
    sig = choi_sigma()
    return {
        "lambda_min": _lambda_min(sig),
        "pt_lambda_min": _lambda_min(partial_transpose(sig)),
    }


def _build_choi_cmax(cfg):
    rep = check_pt_invariance(choi_sigma(), cfg)
    return {"minprod": rep.value, "minprod_pt": rep.value_pt, "gap": rep.gap}


def _build_werner_identity(cfg):
    worst = 0.0
    q_grid = np.linspace(-1.0 / 3.0, 0.0, 13)[1:12]
    p_grid = np.linspace(0.0, 1.0, 11)
    for q in q_grid:
        w = isotropic_witness(q)
        for p in p_grid:
            rho = werner_state(p)
            got = float((w.entries @ rho.entries).trace().real)
            worst = max(worst, abs(got - (3.0 * p - 1.0) * q / 4.0))
    return {"max_identity_gap": worst}


def _floors(prefix, W, cfg):
    """The product floor and the spectral floor of W, as
    ``{prefix}minprod`` and ``{prefix}lambda_min``."""
    return {
        f"{prefix}minprod": min_product_expectation(W, cfg).value,
        f"{prefix}lambda_min": _lambda_min(W),
    }


def _build_two_block(cfg):
    w = two_block_witness(1.0, 1.0)
    return {
        "zero_product_expectation": product_expectation(w, two_block_zero_product()),
        **_floors("", w, cfg),
        "decomposition_residual": decomposition_search(w).residual,
    }


def _build_two_block_quantify(cfg):
    w = two_block_witness(1.0, 1.0)
    opt = two_block_witness_optimal(1.0)
    plus = np.zeros(4, dtype=np.complex128)
    plus[1] = plus[2] = 1.0 / math.sqrt(2.0)
    minus = np.zeros(4, dtype=np.complex128)
    minus[1], minus[2] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    rho_plus = np.outer(plus, plus.conj())
    rho_minus = np.outer(minus, minus.conj())
    return {
        "witness_on_printed_state": float((w.entries @ rho_plus).trace().real),
        "optimal_on_printed_state": float((opt.entries @ rho_plus).trace().real),
        "witness_on_sign_flipped": float((w.entries @ rho_minus).trace().real),
        "optimal_on_sign_flipped": float((opt.entries @ rho_minus).trace().real),
    }


def _build_qutrit_pair(cfg):
    ex = qutrit_pair_example()
    return {**_floors("w1_", ex.W1, cfg), **_floors("w2_", ex.W2, cfg)}


def _build_choi_perturbations(cfg):
    w = w_xyz(1.0, 1.0, 0.0).operator
    q0, q1 = choi_perturbation_pair()
    return {**_floors("plus_q0_", w + q0, cfg), **_floors("plus_q1_", w + q1, cfg)}


def _build_wxyz_conditions(cfg):
    ok_110 = w_xyz(1.0, 1.0, 0.0).condition_met
    bad_200 = w_xyz(2.0, 0.0, 0.0).condition_met
    mid = w_xyz(1.5, 1.5, 0.5)
    shifted = choi_sigma().shifted(1.5)
    return {
        "condition_110": float(ok_110),
        "condition_200": float(bad_200),
        "condition_mid": float(mid.condition_met),
        "mid_matches_shifted_sigma": float(
            np.abs(mid.operator.entries - shifted.entries).max()
        ),
    }


def _build_isotropic_finer(cfg):
    q = -0.25
    sig = isotropic_sigma(q)
    coarse = witness_from_separable(sig, (1.0 + 2.0 * q) / 4.0, cfg)
    fine = witness_from_separable(sig, (1.0 + q) / 4.0, cfg)
    fwd = is_finer(coarse, fine, cfg)
    rev = is_finer(fine, coarse, cfg)
    return {
        "fine_over_coarse": float(fwd.verdict == "finer"),
        "coarse_over_fine_not_finer": float(rev.verdict == "not-finer"),
    }


def _build_pt_bell_2x3(cfg):
    w = pt_bell_witness_2x3()
    e02 = float(w.entries[2, 2].real)
    rep = classify(w, cfg)
    spec = eig_hermitian(partial_transpose(_embedded_bell_2x3(), factor_index=0))
    neg = spec.vector(0)
    p = HermitianOperator((2, 3), np.outer(neg, neg.conj()))
    after = classify(w + p, cfg)
    return {
        "corner_expectation": e02,
        "is_witness": float(rep.is_witness),
        "weakly_optimal": float(rep.weakly_optimal),
        "plus_p_is_psd": float(after.is_psd),
        "plus_p_is_witness": float(after.is_witness),
    }


def _build_lift_constant(cfg):
    lifted = lift_witness(bell_state_witness(), cfg=cfg)
    # the constant comes from the closed form ||Y|| = ||W||^4; this row
    # reads ||Y|| by Lanczos on the structured Y, so the two rows check
    # the closed form against the matvec path
    y_norm = operator_norm(lifted.symmetric_part, seed=cfg.seed)
    return {
        "penalty_constant": lifted.constant,
        "gap_regime_constant": 2.0 * y_norm,
    }


def _build_lift_identity(cfg):
    lifted = lift_witness(bell_state_witness(), cfg=cfg)
    return {
        "expectation_identity_gap": symmetric_expectation_gap(
            lifted, n_probes=20, seed=cfg.seed
        ),
        "projector_invariance_gap": projector_sandwich_gap(lifted.symmetric_part, seed=cfg.seed),
    }


def _build_lift_sign(cfg):
    lifted = lift_witness(bell_state_witness(), cfg=cfg)
    minus = lifted.symmetric_part + lifted.asym_projector.scaled(
        -lifted.constant
    )
    probe_cfg = OptimizerConfig(
        restarts=min(cfg.restarts, 16), seed=cfg.seed, max_sweeps=200
    )
    mp = min_product_expectation(minus, probe_cfg)
    return {
        "implemented_constant": lifted.constant,
        "subtracted_variant_minprod": mp.value,
    }


def _build_choi_interval(cfg):
    sig_pt = partial_transpose(choi_sigma())
    return {
        "pt_lambda_min": _lambda_min(sig_pt),
        "shifted_by_one_lambda_min": _lambda_min(sig_pt.shifted(1.0)),
    }


def _build_isotropic_primed(cfg):
    return _floors("", isotropic_witness(-0.3, primed=True), cfg)


def _build_choi_ppt_violation(cfg):
    hit = ppt_violation_search(w_xyz(1.0, 1.0, 0.0).operator, cfg).violation
    return {"violation_value": hit.value if hit is not None else 0.0}


def _build_state_lift_probe(cfg):
    rho = HermitianOperator((2, 2), np.eye(4) / 4.0)
    lifted = lift_state(rho, 1.0, 1.0, 1.0, cfg=cfg)
    probe_cfg = OptimizerConfig(restarts=4, seed=cfg.seed, max_sweeps=80)
    mp = min_product_expectation(
        lifted.operator, probe_cfg, dims=(256, 256)
    )
    return {"probe_minprod": mp.value}


_GOLDEN = (5.0 - math.sqrt(5.0)) / 2.0


def reference_registry():
    """All runnable reference cases, keyed by name."""
    herm_tol = 1e-9
    opt_tol = 1e-6
    cases = [
        ReferenceCase(
            "sigma1-cmax",
            "product-expectation floor of the first block example and its "
            "partial-transpose ground energy",
            _build_sigma_floor(sigma1),
            (
                CaseCheck("min_product_expectation", 0.5, opt_tol, "published"),
                CaseCheck("pt_lambda_min", 0.5, herm_tol, "published"),
                CaseCheck("threshold_gap", 0.0, opt_tol, "published"),
            ),
        ),
        ReferenceCase(
            "sigma2-cmax",
            "same check on the 0.6-floor companion matrix",
            _build_sigma_floor(sigma2),
            (
                CaseCheck("min_product_expectation", 0.6, opt_tol, "published"),
                CaseCheck("pt_lambda_min", 0.6, herm_tol, "published"),
                CaseCheck("threshold_gap", 0.0, opt_tol, "published"),
            ),
        ),
        ReferenceCase(
            "choi-eigenvalues",
            "full spectrum of the 9x9 pattern witness at (1,1,0)",
            _build_choi_eigenvalues,
            (
                CaseCheck(
                    "eigenvalues",
                    (-1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0),
                    herm_tol,
                    "published",
                ),
            ),
        ),
        ReferenceCase(
            "choi-sigma-spectrum",
            "spectral floors of the shifted-form sigma and its partial transpose",
            _build_choi_sigma_spectrum,
            (
                CaseCheck("lambda_min", 1.0, herm_tol, "published"),
                CaseCheck("pt_lambda_min", _GOLDEN, herm_tol, "published"),
            ),
        ),
        ReferenceCase(
            "choi-cmax-pt",
            "product floor 2 shared by sigma and its partial transpose",
            _build_choi_cmax,
            (
                CaseCheck("minprod", 2.0, opt_tol, "published"),
                CaseCheck("minprod_pt", 2.0, opt_tol, "published"),
                CaseCheck("gap", 0.0, opt_tol, "published"),
            ),
        ),
        ReferenceCase(
            "werner-detection",
            "trace identity tr(W rho_p) = (3p-1)q/4 on an 11x11 grid",
            _build_werner_identity,
            (CaseCheck("max_identity_gap", 0.0, 1e-12, "published"),),
        ),
        ReferenceCase(
            "two-block-zero-product",
            "zero product vector, weak optimality and decomposability of "
            "the corner/center block witness",
            _build_two_block,
            (
                CaseCheck("zero_product_expectation", 0.0, 1e-12, "published"),
                CaseCheck("minprod", 0.0, 1e-7, "published"),
                CaseCheck("lambda_min", -1.0, herm_tol, "derived"),
                CaseCheck("decomposition_residual", 0.0, 1e-7, "published"),
            ),
        ),
        ReferenceCase(
            "two-block-quantify",
            "expectation values of the block witness and its optimal "
            "counterpart on both sign readings of the printed state",
            _build_two_block_quantify,
            (
                CaseCheck("witness_on_printed_state", 3.0, 1e-12, "derived"),
                CaseCheck("optimal_on_printed_state", 1.0, 1e-12, "derived"),
                CaseCheck("witness_on_sign_flipped", -1.0, 1e-12, "derived"),
                CaseCheck("optimal_on_sign_flipped", -1.0, 1e-12, "derived"),
            ),
            notes="the printed state is not detected by either operator; "
            "the sign-flipped companion is, with equal values",
        ),
        ReferenceCase(
            "qutrit-pair-weak-optimality",
            "weak optimality of the rank-one construction after adding P "
            "and after removing Q",
            _build_qutrit_pair,
            (
                CaseCheck("w1_minprod", 0.0, 1e-7, "published"),
                CaseCheck("w2_minprod", 0.0, 1e-7, "published"),
                CaseCheck("w1_lambda_min", 0.0, 0.0, "published", kind="le"),
                CaseCheck("w2_lambda_min", 0.0, 0.0, "published", kind="le"),
            ),
        ),
        ReferenceCase(
            "choi-zero-class-perturbations",
            "adding either eigenvector-built block to the 9x9 witness "
            "keeps weak optimality",
            _build_choi_perturbations,
            (
                CaseCheck("plus_q0_minprod", 0.0, 1e-7, "published"),
                CaseCheck("plus_q1_minprod", 0.0, 1e-7, "published"),
                CaseCheck("plus_q0_lambda_min", 0.0, 0.0, "published", kind="le"),
                CaseCheck("plus_q1_lambda_min", 0.0, 0.0, "published", kind="le"),
            ),
        ),
        ReferenceCase(
            "wxyz-conditions",
            "witness conditions at named parameter points and the identity "
            "with the shifted sigma at (1.5, 1.5, 0.5)",
            _build_wxyz_conditions,
            (
                CaseCheck("condition_110", 1.0, 0.0, "published"),
                CaseCheck("condition_200", 0.0, 0.0, "published"),
                CaseCheck("condition_mid", 1.0, 0.0, "published"),
                CaseCheck("mid_matches_shifted_sigma", 0.0, 1e-12, "published"),
            ),
        ),
        ReferenceCase(
            "isotropic-finer",
            "the maximally shifted isotropic witness is finer than the "
            "half-shifted one",
            _build_isotropic_finer,
            (
                CaseCheck("fine_over_coarse", 1.0, 0.0, "published"),
                CaseCheck("coarse_over_fine_not_finer", 1.0, 0.0, "derived"),
            ),
        ),
        ReferenceCase(
            "pt-bell-2x3",
            "corner expectation zero on C2xC3 and loss of witness-hood "
            "after adding the negative-eigenvector projector",
            _build_pt_bell_2x3,
            (
                CaseCheck("corner_expectation", 0.0, 1e-12, "published"),
                CaseCheck("is_witness", 1.0, 0.0, "published"),
                CaseCheck("weakly_optimal", 1.0, 0.0, "published"),
                CaseCheck("plus_p_is_psd", 1.0, 0.0, "published"),
                CaseCheck("plus_p_is_witness", 0.0, 0.0, "published"),
            ),
        ),
        ReferenceCase(
            "lift-penalty-constant",
            "antisymmetric-penalty weight of the lifted Bell-corner "
            "witness equals 162/4096",
            _build_lift_constant,
            (
                CaseCheck("penalty_constant", 162.0 / 4096.0, 1e-9, "published"),
                CaseCheck(
                    "gap_regime_constant", 162.0 / 4096.0, 1e-9, "published"
                ),
            ),
        ),
        ReferenceCase(
            "lift-expectation-identity",
            "symmetric-vector expectation splits into two squared "
            "half-space forms; projector sandwich leaves the lift fixed",
            _build_lift_identity,
            (
                CaseCheck("expectation_identity_gap", 0.0, 1e-10, "published"),
                CaseCheck("projector_invariance_gap", 0.0, 1e-10, "published"),
            ),
        ),
        ReferenceCase(
            "lift-penalty-sign",
            "subtracting (instead of adding) the weighted antisymmetric "
            "projector breaks positivity on products",
            _build_lift_sign,
            (CaseCheck("implemented_constant", 162.0 / 4096.0, 1e-9, "derived"),),
            discrepancy=True,
            notes="one printed formula subtracts the weighted projector; the "
            "additive form is required for nonnegativity on products and is "
            "what this library implements. The reported subtracted-variant "
            "product floor is strictly negative.",
        ),
        ReferenceCase(
            "choi-decomposability-interval",
            "the claimed decomposability window for the partially "
            "transposed sigma lies below its spectral floor",
            _build_choi_interval,
            (
                CaseCheck("pt_lambda_min", _GOLDEN, 1e-9, "published"),
                CaseCheck(
                    "shifted_by_one_lambda_min",
                    _GOLDEN - 1.0,
                    1e-9,
                    "derived",
                ),
            ),
            discrepancy=True,
            notes="shifts c <= 1 keep the operator positive semidefinite "
            "(floor ~0.382 above zero), so no witness exists on the claimed "
            "interval; the claim is recorded as unverified.",
        ),
        ReferenceCase(
            "isotropic-primed",
            "the Hermitian completion of the primed isotropic matrix goes "
            "negative on products at the stated shift",
            _build_isotropic_primed,
            (
                CaseCheck("minprod", -0.15, 1e-6, "derived"),
            ),
            discrepancy=True,
            notes="the printed primed matrix is not Hermitian; its "
            "symmetric completion has product floor q/2 < 0 at the stated "
            "shift (1+q)/4, so the weak-optimality claim fails for every "
            "sign completion.",
        ),
        ReferenceCase(
            "choi-ppt-violation",
            "a PPT state with negative expectation certifies "
            "non-decomposability of the 9x9 pattern witness",
            _build_choi_ppt_violation,
            (CaseCheck("violation_value", -1e-4, 0.0, "published", kind="le"),),
        ),
        ReferenceCase(
            "state-lift-probe",
            "four-copy lift of the maximally mixed two-qubit state stays "
            "nonnegative on probed products",
            _build_state_lift_probe,
            (CaseCheck("probe_minprod", -1e-6, 0.0, "derived", kind="ge"),),
        ),
    ]
    return tuple(cases)


def get_case(name):
    for case in reference_registry():
        if case.name == name:
            return case
    raise KeyError(f"unknown reference case {name!r}")
