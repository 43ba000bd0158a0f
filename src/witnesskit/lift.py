"""Four-copy product-space constructions with an antisymmetric penalty.

Tensor powers of a witness (or of a state) carry its sign structure
into a larger product space.  The symmetrized power Y commutes with
the involution K = V (x) V of the half-space factors, is fixed by the
K-sandwich, and stays nonnegative on diagonal vectors |u>|u>.  Adding
C times the antisymmetric projector (1/2)(I - S) of the product
bipartition, with S the swap of the two halves and C >= 2 ||Y||_inf,
makes every product expectation nonnegative: [Y, S] = 0 kills the
cross term between the swap-symmetric and swap-antisymmetric parts of
|u,v>, polarization turns the symmetric part into diagonal vectors
(where Y is nonnegative), and the penalty covers the rest,

    <u,v|Y + C P_asym|u,v> >= (1 - |<u|v>|^2) (C - 2 ||Y||_inf) / 2.

Negative eigenvalue directions survive inside the swap-symmetric
subspace, so the result is a witness whenever the source has mixed
spectrum.  Everything here is matrix free: the lifted operators are
``StructuredOperator`` sums whose factors act axis by axis, so a
65,536-dimensional state lift is never materialized densely.  The
penalty's ||Y||_inf comes in closed form for witness lifts (||W||^4,
one eigvalsh of W) and from ``operator_norm``, a three-vector Lanczos
recurrence on the structured matvec, for state lifts.  A state lift
also carries a proven upper bound on ||Y||_inf, the triangle inequality
over its merged terms (``StructuredOperator.norm_bound``).  Y commutes
with K by construction, so no lift re-measures that;
``projector_sandwich_gap`` measures it where a report reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .operators import (
    DimensionError,
    HermitianOperator,
    eig_hermitian,
    inf_norm,
)
from .optimize import OptimizerConfig, _lanczos
from .sampling import random_unit_vector, rng_for
from .structured import (
    BlockReversalFactor,
    ClassicalProjectorFactor,
    ClassicalSwapFactor,
    DenseFactor,
    IdentityFactor,
    StructuredOperator,
    SwapFactor,
    SwapKronFactor,
)
from .witness import NotAWitnessError, classify

__all__ = [
    "MAX_LIFT_TOTAL",
    "LiftedWitness",
    "lift_state",
    "lift_witness",
    "lifted_dim",
    "negative_direction",
    "operator_norm",
    "projector_sandwich_gap",
    "state_expectation_components",
    "symmetric_expectation_gap",
]

# Hard ceiling on the lifted dimension: a two-qubit source (65,536)
# must pass, the next bipartite size must not silently take minutes.
MAX_LIFT_TOTAL = 1 << 16


# Relative residual at which ``operator_norm`` stops, and its step cap
_NORM_RTOL = 1e-8
_NORM_MAX_STEPS = 500


def operator_norm(S, seed=0):
    """Largest |eigenvalue| of a Hermitian ``StructuredOperator``.

    ``optimize._lanczos`` on the structured matvec from a seeded start
    vector: three work vectors besides the matvec's own.  After k steps
    let theta be the Ritz value of T_k of largest |theta| and s_k the
    last entry of its unit eigenvector; S has an eigenvalue within
    beta_k |s_k| of theta.  The iteration stops once beta_k |s_k| <=
    ``_NORM_RTOL`` |theta|, which includes beta_k = 0 (an invariant
    subspace, theta exact).  Plain power iteration is hopeless here:
    constructions built from swaps and projectors cluster their extreme
    eigenvalues within a fraction of a percent.

    No reorthogonalization is needed for an extreme eigenvalue.  In
    floating point the Lanczos vectors lose orthogonality only as Ritz
    values converge, and the loss only duplicates converged Ritz values,
    which stay inside the spectrum (Paige, Linear Algebra Appl. 34
    (1980)); so the result never exceeds ||S|| beyond rounding.  Raises
    ``ArithmeticError`` when the test is not met within
    ``_NORM_MAX_STEPS`` steps.
    """
    steps = _lanczos(S.matvec, random_unit_vector(rng_for(seed, 9090), S.total_dim))
    alphas, betas, beta, _ = next(steps)
    for _ in range(_NORM_MAX_STEPS):
        ends = [
            eigh_tridiagonal(alphas, betas, select="i", select_range=(i, i))
            for i in (0, len(alphas) - 1)
        ]
        vals, vecs = max(ends, key=lambda end: abs(end[0][0]))
        theta = float(vals[0])
        if beta * abs(vecs[-1, 0]) <= _NORM_RTOL * abs(theta):
            return abs(theta)
        alphas, betas, beta, _ = next(steps)
    raise ArithmeticError(
        f"operator norm iteration did not settle in {_NORM_MAX_STEPS} steps"
    )


def _witness_lift_norm(W):
    """||Y||_inf of a witness lift's symmetric part, in closed form.

    Y = (M0 (x) M0 + M1 (x) M1) / 2 with M0 = W (x) W and M1 = M0 V.
    M0 commutes with the swap V, so M1 is Hermitian with ||M1|| =
    ||M0|| = ||W||^2, hence ||Y|| <= ||W||^4; a (x) a (x) a (x) a, with
    a an eigenvector of W for its largest |eigenvalue|, is fixed by V in
    each half and attains the bound.  So ||Y|| = ||W||^4, from one
    eigvalsh of W.  That eigvalsh is backward stable, so the computed
    ||W|| is within about n eps relative of the exact one (n = W.side),
    and the fourth power at most quadruples a relative error: the value
    is raised by 4 n eps so that C = 2 y_norm stays at or above 2 ||Y||.
    """
    return inf_norm(W) ** 4 * (1.0 + 4.0 * W.side * np.finfo(float).eps)


def _half_swap_sym_projector(space_dims):
    """(1/2)(I (x) I + V (x) V) with V the swap inside each half."""
    if len(space_dims) != 4 or len(set(space_dims)) != 1:
        raise DimensionError(
            f"sandwich projector needs four equal tensor slots, got {space_dims}"
        )
    d = space_dims[0]
    return StructuredOperator(
        space_dims,
        [
            (0.5, (IdentityFactor(d * d), IdentityFactor(d * d))),
            (0.5, (SwapFactor(d), SwapFactor(d))),
        ],
    )


def _asym_projector(space_dims):
    """(1/2)(I - S) with S the swap of the two halves of the space."""
    half = space_dims[0] * space_dims[1]
    return StructuredOperator(
        space_dims,
        [
            (0.5, (IdentityFactor(half), IdentityFactor(half))),
            (-0.5, (SwapFactor(half),)),
        ],
    )


def projector_sandwich_gap(Y, seed=0):
    """max over 4 probes of ||P_sym Y P_sym x - Y x||_inf on unit x,
    with P_sym = (1/2)(I + K); zero up to rounding when [Y, K] = 0."""
    sym = _half_swap_sym_projector(Y.space_dims)
    rng = rng_for(seed, 4242)
    worst = 0.0
    for _ in range(4):
        x = random_unit_vector(rng, Y.total_dim)
        ref = Y.matvec(x)
        sandwiched = sym.matvec(Y.matvec(sym.matvec(x)))
        worst = max(worst, float(np.abs(sandwiched - ref).max()))
    return worst


@dataclass(frozen=True)
class LiftedWitness:
    """A four-copy construction together with its penalty bookkeeping.

    ``operator = symmetric_part + constant * asym_projector``; all
    three live on ``space`` (four equal tensor slots, seen by product
    optimizers as the balanced bipartition slot(1,2) | slot(3,4)).
    ``params`` carries the (alpha, beta, gamma) weights of a state
    lift and stays empty for witness lifts.  ``y_norm`` is ||Y||_inf
    for Y = ``symmetric_part``: the closed form ||W||^4 with its
    rounding allowance for witness lifts, the Lanczos value of
    ``operator_norm`` for state lifts, which can only sit at or below
    ||Y||_inf.  ``y_norm_bound`` is a proven upper bound on ||Y||_inf:
    the same closed form for witness lifts, ``norm_bound`` of Y for
    state lifts (inf when none is known).  The module bound needs
    C >= 2 ||Y||_inf, so a ``constant`` below 2 ``y_norm`` (less 1e-9)
    is rejected.  Y commutes with K by construction, and no field measures it.
    """

    operator: StructuredOperator
    symmetric_part: StructuredOperator
    asym_projector: StructuredOperator
    constant: float
    y_norm: float
    space: tuple
    source_kind: str
    source: HermitianOperator
    params: tuple = ()
    y_norm_bound: float = math.inf

    def __post_init__(self):
        if not math.isfinite(self.constant):
            raise ValueError(f"penalty constant must be finite, got {self.constant}")
        if self.constant < 2.0 * self.y_norm - 1e-9:
            raise ValueError(
                f"penalty constant {self.constant:.6g} is below twice the "
                f"norm {self.y_norm:.6g} of the symmetric part"
            )


def lifted_dim(X, kind):
    """Dimension of the four-copy lift of X: four copies of a witness,
    or of the state pair rho (x) rho."""
    return X.side ** (4 if kind == "witness" else 8)


def _check_source(X, kind, C):
    """The checks both lifts make before any lift work: a bipartite
    ``HermitianOperator`` source whose lift (``lifted_dim``) fits
    ``MAX_LIFT_TOTAL``, and a finite penalty override C."""
    if not isinstance(X, HermitianOperator):
        raise TypeError(f"lift_{kind} expects a HermitianOperator")
    if len(X.dims) != 2:
        raise DimensionError(f"{kind} must be bipartite, got dims {X.dims}")
    total = lifted_dim(X, kind)
    if total > MAX_LIFT_TOTAL:
        raise DimensionError(
            f"lift budget exceeded: the four-copy lift of a dim-{X.side} {kind} "
            f"needs {total} > {MAX_LIFT_TOTAL} dimensions"
        )
    if C is not None and not math.isfinite(C):
        raise ValueError(f"penalty constant must be finite, got {C}")


def _finish_lift(Y, C, y_norm, y_norm_bound, source_kind, source, params=()):
    """Set the penalty on the symmetric part Y (default C = 2 ``y_norm``,
    with ``y_norm`` = ||Y||_inf) and assemble the ``LiftedWitness``."""
    constant = 2.0 * y_norm if C is None else float(C)
    asym = _asym_projector(Y.space_dims)
    return LiftedWitness(
        operator=Y + asym.scaled(constant),
        symmetric_part=Y,
        asym_projector=asym,
        constant=constant,
        y_norm=y_norm,
        y_norm_bound=y_norm_bound,
        space=Y.space_dims,
        source_kind=source_kind,
        source=source,
        params=params,
    )


def lift_witness(W, C=None, cfg=None):
    """Lift a bipartite witness W to four copies of its full space.

    The symmetric part is Y = (W4 + W4 K) / 2 with W4 = W (x) W (x) W
    (x) W and K the half-space involution V (x) V; equivalently
    Y = (M0 (x) M0 + M1 (x) M1) / 2 with M0 = W (x) W, M1 = M0 V, so
    <u,u|Y|u,u> = (<u|M0|u>^2 + <u|M1|u>^2) / 2 >= 0 for every half
    vector u.  The returned operator Y + C P_asym, with P_asym the
    antisymmetric projector of the two halves and the default
    C = 2 ||Y||_inf, is nonnegative on all product vectors of the
    balanced bipartition (see the module docstring for the bound)
    while keeping negative eigenvalue directions whenever W has any.
    """
    cfg = cfg if cfg is not None else OptimizerConfig()
    _check_source(W, "witness", C)
    n = W.side
    report = classify(W, cfg)
    if not report.is_witness:
        raise NotAWitnessError(
            "source operator is not a witness (min eigenvalue "
            f"{report.min_eigenvalue:.3e}, min product expectation "
            f"{report.minprod.value:.3e})"
        )
    block = DenseFactor(W.entries)
    cross = SwapKronFactor(W.entries)
    Y = StructuredOperator(
        (n, n, n, n),
        [(0.5, (block, block, block, block)), (0.5, (cross, cross))],
    )
    y_norm = _witness_lift_norm(W)
    return _finish_lift(Y, C, y_norm, y_norm, "witness", W)


def _state_symmetric_terms(rho_tilde, s, alpha, beta, gamma):
    """Terms of the symmetrized state construction on (C^s)^(x4).

    The unsymmetrized operator is

        A = alpha (B (x) P_w + P_w (x) B) / 2
          + beta (S - P_x) + gamma (P_x - I / s^2)

    with B the four-copy state rho^(x4) on one slot, P_w the classical
    projector inside the other slot, S the swap of the two slots, P_x
    the classical projector across the two slots.  The alpha term is
    averaged over the two slot placements so that A commutes with S;
    placing B on one side only would break the swap symmetry the
    product lower bound rests on.  Every piece commutes with the
    involution K = V (x) V, so the symmetric sandwich equals
    (A + A K) / 2, expanded here term by term.  Zero coefficients drop
    their terms, which keeps the split into alpha/beta/gamma
    components exact.
    """
    m = s * s
    terms = []
    if alpha != 0.0:
        half = DenseFactor(rho_tilde)
        keep = ClassicalProjectorFactor(s)
        twist = SwapKronFactor(rho_tilde)
        terms.append((0.25 * alpha, (half, half, keep)))
        terms.append((0.25 * alpha, (keep, half, half)))
        terms.append((0.25 * alpha, (twist, keep)))
        terms.append((0.25 * alpha, (keep, twist)))
    if beta != 0.0:
        terms.append((0.5 * beta, (SwapFactor(m),)))
        terms.append((0.5 * beta, (BlockReversalFactor(s),)))
    if gamma != beta:
        terms.append((0.5 * (gamma - beta), (ClassicalProjectorFactor(m),)))
        terms.append((0.5 * (gamma - beta), (ClassicalSwapFactor(s),)))
    if gamma != 0.0:
        terms.append((-0.5 * gamma / m, (IdentityFactor(m), IdentityFactor(m))))
        terms.append((-0.5 * gamma / m, (SwapFactor(s), SwapFactor(s))))
    return terms


def lift_state(rho, alpha, beta, gamma, C=None, cfg=None):
    """Lift a bipartite state rho to a witness-shaped operator on four
    copies of rho (x) rho.

    Each tensor slot is two copies of the state space; the diagonal
    expectation of the symmetric part splits into three nonnegative
    pieces,

        alpha <u|rho^(x4)|u> <u|P_w|u>
        + beta (1 - sum_I |u_I|^4) + gamma (sum_I |u_I|^4 - 1/s^2),

    where u_I are the coefficients of the half vector u in the slot
    basis, so the product minimum of the returned operator (default
    penalty C = 2 ||Y||_inf) stays nonnegative for any state and any
    positive weights with gamma <= s^2 beta.
    """
    cfg = cfg if cfg is not None else OptimizerConfig()
    _check_source(rho, "state", C)
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    if not all(math.isfinite(w) and w > 0.0 for w in (alpha, beta, gamma)):
        raise ValueError("weights alpha, beta, gamma must all be positive and finite")
    n = rho.side
    s = n * n
    if gamma > beta * s * s:
        # beyond this ratio the diagonal floor turns negative on
        # off-diagonal slot vectors, and no penalty can repair products
        raise ValueError(
            f"gamma must not exceed beta * {s * s} for a dim-{n} state"
        )
    if abs(rho.trace() - 1.0) > 1e-10:
        raise ValueError(f"state must have unit trace, got {rho.trace():.12g}")
    lam_min = eig_hermitian(rho).lambda_min
    if lam_min < -1e-10:
        raise ValueError(
            f"state must be positive semidefinite (lambda_min {lam_min:.3e})"
        )
    rho_tilde = np.kron(rho.entries, rho.entries)
    Y = StructuredOperator(
        (s, s, s, s), _state_symmetric_terms(rho_tilde, s, alpha, beta, gamma)
    )
    y_norm = operator_norm(Y, seed=cfg.seed)
    return _finish_lift(
        Y, C, y_norm, Y.norm_bound(), "state", rho, (alpha, beta, gamma)
    )


def symmetric_expectation_gap(lifted, n_probes=50, seed=0):
    """Worst |<u,u|Y|u,u> - (m0(u)^2 + m1(u)^2) / 2| over random u.

    m0(u) = <u|W (x) W|u> and m1(u) = <u|(W (x) W) V|u>; the identity
    characterizes the symmetric part of a witness lift on diagonal
    vectors and is what forces it nonnegative there.
    """
    if lifted.source_kind != "witness":
        raise ValueError("the expectation identity applies to witness lifts")
    w = lifted.source.entries
    m0 = np.kron(w, w)
    m1 = SwapKronFactor(w).dense()
    half = lifted.space[0] * lifted.space[1]
    rng = rng_for(seed, 777)
    worst = 0.0
    for _ in range(n_probes):
        u = random_unit_vector(rng, half)
        lhs = lifted.symmetric_part.expectation(np.kron(u, u))
        e0 = float(np.vdot(u, m0 @ u).real)
        e1 = float(np.vdot(u, m1 @ u).real)
        worst = max(worst, abs(lhs - 0.5 * (e0 * e0 + e1 * e1)))
    return worst


def negative_direction(lifted):
    """An explicit unit vector with negative lifted expectation.

    Extreme eigenvectors a (most negative) and b (most positive) of
    the source witness combine into an exact eigenvector of the lifted
    operator, symmetric under both the half involution and the half
    swap so neither projector contributes; its eigenvalue is the more
    negative of lo * hi^3 and lo^3 * hi.  Returns (vector, measured
    expectation), the latter evaluated by structured matvec.
    """
    if lifted.source_kind != "witness":
        raise ValueError("negative directions come from witness sources")
    spectrum = eig_hermitian(lifted.source)
    vals, vecs = spectrum.eigenvalues, spectrum.eigenvectors
    lo, hi = float(vals[0]), float(vals[-1])
    if not (lo < 0.0 < hi):
        raise ValueError("source witness has no mixed-sign spectrum")
    a, b = vecs[:, 0], vecs[:, -1]
    if lo * hi ** 3 <= lo ** 3 * hi:
        tail = np.kron(b, b)
        x = np.kron(np.kron(a, b), tail) + np.kron(np.kron(b, a), tail)
    else:
        head = np.kron(a, a)
        x = np.kron(head, np.kron(a, b)) + np.kron(head, np.kron(b, a))
    half = lifted.space[0] * lifted.space[1]
    x = x + x.reshape(half, half).T.reshape(-1)  # add the swapped copy
    x = x / np.linalg.norm(x)
    return x, lifted.operator.expectation(x)


def state_expectation_components(lifted, u):
    """Per-weight diagonal expectations of a state lift at unit weights.

    Returns (ea, eb, eg) with

        <u,u|Y|u,u> = alpha ea + beta eb + gamma eg

    for the stored weights; each component is evaluated by structured
    matvec on the diagonal vector |u>|u>.
    """
    if lifted.source_kind != "state":
        raise ValueError("the component split applies to state lifts")
    s = lifted.space[0]
    if u.shape != (s * s,):
        raise DimensionError(f"probe vector must have length {s * s}")
    rho = lifted.source
    rho_tilde = np.kron(rho.entries, rho.entries)
    diag = np.kron(u, u)
    parts = []
    for weights in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        comp = StructuredOperator(
            lifted.space, _state_symmetric_terms(rho_tilde, s, *weights)
        )
        parts.append(comp.expectation(diag))
    return tuple(parts)
