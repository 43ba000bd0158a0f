"""The benchmark's workloads: inputs for one pass and the gated tasks.

A workload has a one-time ``setup(workdir)`` and a ``build(setup_state,
seed)`` that returns the tasks of one pass as (name, callable) pairs.
Every task raises on any miss, so a fast wrong answer counts as a
failure.  The workloads call the package only through module
attributes (``witness.classify``, not a copied name), so that spans
installed by ``tracing.Tracer`` see every call.
"""

import contextlib
import functools
import io
import json
import os

import numpy as np

from witnesskit import cli, families, lift, operators, optimize, sampling, witness

# Registry cases whose published claims are internally inconsistent;
# they must report this status and never "pass" or "fail".
DOCUMENTED_DISCREPANCIES = frozenset(
    {"lift-penalty-sign", "choi-decomposability-interval", "isotropic-primed"}
)

SEESAW_CASES = (
    "sigma1-cmax",
    "sigma2-cmax",
    "choi-cmax-pt",
    "qutrit-pair-weak-optimality",
    "choi-zero-class-perturbations",
    "isotropic-finer",
    "pt-bell-2x3",
    "isotropic-primed",
    "two-block-zero-product",
)

LIFT_CASES = (
    "lift-penalty-constant",
    "lift-expectation-identity",
    "lift-penalty-sign",
    "state-lift-probe",
)


class GateError(Exception):
    """A task missed the tolerance it carries."""


def check(ok, message):
    if not ok:
        raise GateError(message)


def _registry_tasks(names, cfg):
    cases = {case.name: case for case in families.reference_registry()}
    return [(name, functools.partial(_registry_task, cases[name], cfg)) for name in names]


def _registry_task(case, cfg):
    expected = "documented-discrepancy" if case.name in DOCUMENTED_DISCREPANCIES else "pass"
    res = families.run_case(case, cfg)
    check(res.status == expected, f"{case.name}: status {res.status}, expected {expected}")


# ---------------------------------------------------------------------------
# seesaw-small
# ---------------------------------------------------------------------------


def _separable_draws(seed, tag, dims, count, cfg):
    """Random separable mixtures whose shift window is wide enough to
    place a witness 0.05 below the product infimum (acceptance
    criterion 7)."""
    out = []
    for attempt in range(300):
        rng = np.random.default_rng([seed, tag, attempt])
        sigma = sampling.random_product_mixture(rng, dims, int(rng.integers(2, 7)))
        mp = optimize.min_product_expectation(sigma, cfg).value
        lam = float(np.linalg.eigvalsh(sigma.entries)[0])
        if mp - lam > 0.055:
            out.append((sigma, mp, lam))
            if len(out) == count:
                return out
    raise RuntimeError(f"only {len(out)} usable {dims} draws for seed {seed}")


def _window_task(sigma, mp, lam, cfg):
    exact = witness.witness_from_separable(sigma, mp, cfg)
    rep = witness.classify(exact.operator, cfg)
    check(rep.is_witness and rep.weakly_optimal, "exact shift is not weakly optimal")
    inside = witness.witness_from_separable(sigma, mp - 0.05, cfg)
    rep = witness.classify(inside.operator, cfg)
    check(rep.is_witness and not rep.weakly_optimal, "interior shift is not a plain witness")
    try:
        witness.witness_from_separable(sigma, lam, cfg)
    except witness.NotAWitnessError:
        return
    raise GateError("shift at lambda_min was accepted")


def _seesaw_setup(workdir):
    return None


def _seesaw_build(state, seed):
    tasks = _registry_tasks(SEESAW_CASES, optimize.OptimizerConfig(restarts=64, seed=seed))
    cfg = optimize.OptimizerConfig(restarts=32, seed=seed)
    draws = _separable_draws(seed, 405, (2, 2), 10, cfg)
    draws += _separable_draws(seed, 406, (2, 3), 10, cfg)
    for k, draw in enumerate(draws):
        tasks.append((f"window-{k}", functools.partial(_window_task, *draw, cfg)))
    return tasks


# ---------------------------------------------------------------------------
# lift-fullscale
# ---------------------------------------------------------------------------


def _witness_lift_task(W, cfg):
    """Acceptance criterion 5: lifted see-saw and negative direction."""
    lifted = lift.lift_witness(W, cfg=cfg)
    check(lifted.space == (4, 4, 4, 4), f"lift space {lifted.space}")
    check(abs(lifted.constant - 162.0 / 4096.0) <= 1e-9, f"constant {lifted.constant}")
    check(abs(lifted.constant - 2.0 * operators.inf_norm(W) ** 4) <= 1e-9, "constant != 2||W||^4")
    gap = lift.symmetric_expectation_gap(lifted, n_probes=100, seed=cfg.seed)
    check(gap <= 1e-10, f"expectation identity gap {gap:.3e}")
    mp = optimize.min_product_expectation(lifted.operator, cfg)
    check(mp.value >= -1e-7, f"lifted product floor {mp.value:.3e}")
    _, neg = lift.negative_direction(lifted)
    check(neg <= -1e-4, f"negative direction expectation {neg:.3e}")


def _component_task(rho, probes, cfg):
    """Acceptance criterion 9: component linearity at 65,536 dims."""
    lifted = lift.lift_state(rho, 1.0, 1.0, 1.0, cfg=cfg)
    check(lifted.operator.total_dim == 65536, f"lifted dim {lifted.operator.total_dim}")
    for u in probes:
        ea, eb, eg = lift.state_expectation_components(lifted, u)
        whole = lifted.symmetric_part.expectation(np.kron(u, u))
        check(abs(whole - (ea + eb + eg)) <= 1e-10, f"component gap {abs(whole - (ea + eb + eg)):.3e}")


def _lift_setup(workdir):
    return {
        "witness": families.bell_state_witness(),
        "state": operators.HermitianOperator((2, 2), np.eye(4) / 4.0),
    }


def _lift_build(state, seed):
    cfg = optimize.OptimizerConfig(restarts=64, seed=seed)
    tasks = _registry_tasks(LIFT_CASES, cfg)
    tasks.append(("witness-lift", functools.partial(_witness_lift_task, state["witness"], cfg)))
    rng = sampling.rng_for(seed, 407)
    # a half of the 65,536-dim space: two copies of rho (x) rho, 16 * 16
    probes = [sampling.random_unit_vector(rng, 256) for _ in range(20)]
    probe_cfg = optimize.OptimizerConfig(restarts=4, seed=seed, max_sweeps=80)
    tasks.append(
        ("state-lift-components", functools.partial(_component_task, state["state"], probes, probe_cfg))
    )
    return tasks


# ---------------------------------------------------------------------------
# decompose-cli
# ---------------------------------------------------------------------------

# name -> (operator constructor, decomposition must succeed, PPT violation must be found)
DECOMPOSE_INPUTS = {
    "two-block": (lambda: families.two_block_witness(1.0, 1.0), True, False),
    "pt-bell-2x3": (families.pt_bell_witness_2x3, True, False),
    "wxyz-110": (lambda: families.w_xyz(1.0, 1.0, 0.0).operator, False, True),
}


def _decompose_task(path, seed, decomposes, violates):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["decompose", path, "--seed", str(seed)])
    report = json.loads(out.getvalue())
    check(code == 0, f"exit code {code}")
    check(report["status"] == "pass", f"status {report['status']}")
    results = report["results"]
    check(results["decomposition"]["success"] == decomposes, "decomposition outcome")
    check(results["ppt_search"]["violation_found"] == violates, "PPT search outcome")


def _decompose_setup(workdir):
    paths = {}
    for name, (build, _, _) in DECOMPOSE_INPUTS.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        operators.save_operator(build(), paths[name])
    return paths


def _decompose_build(paths, seed):
    return [
        (name, functools.partial(_decompose_task, paths[name], seed, decomposes, violates))
        for name, (_, decomposes, violates) in DECOMPOSE_INPUTS.items()
    ]


# name -> (setup, build)
WORKLOADS = {
    "seesaw-small": (_seesaw_setup, _seesaw_build),
    "lift-fullscale": (_lift_setup, _lift_build),
    "decompose-cli": (_decompose_setup, _decompose_build),
}
