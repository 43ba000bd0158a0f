#!/usr/bin/env python3
"""Command line front end for witnesskit.

Usage:
    witnesskit classify matrix.json            Witness verdict for an operator
    witnesskit minprod matrix.json             Product-expectation floor
    witnesskit minprod matrix.json --max       ... or the ceiling
    witnesskit lift matrix.json --mode witness Four-copy lift of a witness
    witnesskit lift state.json --mode state    Four-copy lift of a state
    witnesskit family --name choi-sigma        Emit a named reference matrix
    witnesskit decompose matrix.json           PSD split and PPT search
    witnesskit reproduce --all                 Run the reference-case registry

Operators travel as JSON documents {"dims": [dA, dB], "re": [[...]],
"im": [[...]]}.  Every command prints one JSON report to stdout.  Exit
codes: 0 on success (for classify: the operator is a witness), 10 when
classify finds no witness, 1 on any error.  The default seed comes
from the WF_SEED environment variable; --seed overrides it.
"""

import argparse
import dataclasses
import json
import os
import sys
import traceback

import numpy as np

from . import families
from .lift import (
    lift_state,
    lift_witness,
    lifted_dim,
    negative_direction,
    projector_sandwich_gap,
    state_expectation_components,
    symmetric_expectation_gap,
)
from .operators import (
    DENSE_SIDE_CAP,
    HermitianOperator,
    load_operator,
    operator_to_json,
)
from .optimize import (
    OptimizerConfig,
    max_product_expectation,
    min_product_expectation,
    ppt_violation_search,
)
from .sampling import random_unit_vector, rng_for
from .witness import classify

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_WITNESS = 10


def _resolve_seed(seed):
    if seed is not None:
        return int(seed)
    return int(os.environ.get("WF_SEED", "0"))


def _config(args):
    return OptimizerConfig(
        restarts=args.restarts,
        seed=_resolve_seed(args.seed),
        tol_zero=args.tol_zero,
    )


def _num(value, tolerance):
    """A numeric result never travels without the tolerance it was
    judged against."""
    return {"value": float(value), "tolerance": float(tolerance)}


def _vec(v):
    v = np.asarray(v)
    return {"re": v.real.tolist(), "im": v.imag.tolist()}


def _product_vector(pv):
    return {"u": _vec(pv.u), "v": _vec(pv.v)}


def _emit(report):
    sys.stdout.write(json.dumps(report, indent=2) + "\n")


def _report(command, inputs, results, status, diagnostics=None):
    """Every successful command's report: command, inputs, results,
    diagnostics (when the command has any) and status, in that order."""
    report = {"command": command, "inputs": inputs, "results": results}
    if diagnostics is not None:
        report["diagnostics"] = diagnostics
    report["status"] = status
    _emit(report)


def _error_report(command, exc):
    _emit(
        {
            "command": command,
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
        }
    )
    return EXIT_ERROR


def cmd_classify(args):
    cfg = _config(args)
    X = load_operator(args.matrix)
    rep = classify(X, cfg)
    results = {
        "dims": list(X.dims),
        "is_psd": bool(rep.is_psd),
        "min_eigenvalue": _num(rep.min_eigenvalue, cfg.tol_zero),
        "min_product_expectation": _num(rep.minprod.value, cfg.tol_zero),
        "minprod_converged": bool(rep.minprod.converged),
        "is_witness": bool(rep.is_witness),
        "weakly_optimal": bool(rep.weakly_optimal),
    }
    if rep.negative_eigenvector is not None:
        results["negative_eigenvector"] = _vec(rep.negative_eigenvector)
    if rep.zero_product is not None:
        results["zero_product"] = _product_vector(rep.zero_product)
    _report(
        "classify",
        {"matrix": args.matrix, "seed": cfg.seed, "restarts": cfg.restarts},
        results,
        "pass" if rep.minprod.converged else "indeterminate",
    )
    return EXIT_OK if rep.is_witness else EXIT_NOT_WITNESS


def cmd_minprod(args):
    cfg = _config(args)
    X = load_operator(args.matrix)
    search = max_product_expectation if args.max else min_product_expectation
    res = search(X, cfg)
    _report(
        "minprod",
        {
            "matrix": args.matrix,
            "seed": cfg.seed,
            "restarts": cfg.restarts,
            "maximize": bool(args.max),
        },
        {
            "value": _num(res.value, cfg.tol_zero),
            "argmin": _product_vector(res.argmin),
            "converged": bool(res.converged),
            "restarts_used": int(res.restarts_used),
            "restarts_converged": int(res.restarts_converged),
        },
        "pass" if res.converged else "indeterminate",
        diagnostics={"sweeps_max": int(res.sweeps_max)},
    )
    return EXIT_OK


def _lift_probes(lifted, cfg):
    """Diagnostic block shared by both lift modes."""
    probes = {
        "projector_invariance_gap": _num(
            projector_sandwich_gap(lifted.symmetric_part, seed=cfg.seed), 1e-8
        ),
    }
    if lifted.source_kind == "witness":
        probes["symmetric_expectation_gap"] = _num(
            symmetric_expectation_gap(lifted, n_probes=100, seed=cfg.seed), 1e-10
        )
        _, neg = negative_direction(lifted)
        probes["negative_direction_expectation"] = _num(neg, 1e-4)
        mp = min_product_expectation(lifted.operator, cfg)
        probes["seesaw_minprod"] = _num(mp.value, cfg.tol_zero)
    else:
        rng = rng_for(cfg.seed, 31)
        half = lifted.space[0] * lifted.space[1]
        worst = 0.0
        a, b, g = lifted.params
        for _ in range(20):
            u = random_unit_vector(rng, half)
            ea, eb, eg = state_expectation_components(lifted, u)
            whole = lifted.symmetric_part.expectation(np.kron(u, u))
            worst = max(worst, abs(whole - (a * ea + b * eb + g * eg)))
        probes["component_linearity_gap"] = _num(worst, 1e-10)
        probe_cfg = OptimizerConfig(restarts=4, seed=cfg.seed, max_sweeps=80)
        mp = min_product_expectation(lifted.operator, probe_cfg, dims=(half, half))
        probes["seesaw_minprod"] = _num(mp.value, 1e-6)
    return probes


def cmd_lift(args):
    cfg = _config(args)
    X = load_operator(args.source)
    total = lifted_dim(X, args.mode)
    if args.dump_dense and total > DENSE_SIDE_CAP:
        raise ValueError(
            f"dense dump refused: lifted dimension {total} exceeds {DENSE_SIDE_CAP}"
        )
    if args.mode == "witness":
        lifted = lift_witness(X, C=args.constant, cfg=cfg)
    else:
        lifted = lift_state(
            X, args.alpha, args.beta, args.gamma, C=args.constant, cfg=cfg
        )
    results = {
        "mode": args.mode,
        "space": list(lifted.space),
        "half_dim": lifted.space[0] * lifted.space[1],
        "total_dim": total,
        "term_count": len(lifted.operator.terms),
        "constant": _num(lifted.constant, 1e-9),
        "y_norm": _num(lifted.y_norm, 1e-8),
        # a proven bound, judged against no tolerance
        "y_norm_bound": _num(lifted.y_norm_bound, 0.0),
        "probes": _lift_probes(lifted, cfg),
    }
    if args.mode == "state":
        results["weights"] = {
            "alpha": args.alpha,
            "beta": args.beta,
            "gamma": args.gamma,
        }
    if args.dump_dense:
        dense = lifted.operator.to_dense()
        results["dense"] = {"re": dense.real.tolist(), "im": dense.imag.tolist()}
    _report(
        "lift",
        {
            "source": args.source,
            "mode": args.mode,
            "seed": cfg.seed,
            "constant_override": args.constant,
        },
        results,
        "pass",
    )
    return EXIT_OK


def _parse_params(pairs, defaults, name):
    params = dict(defaults)
    for item in pairs or ():
        key, sep, raw = item.partition("=")
        if not sep:
            raise ValueError(f"--param expects key=value, got {item!r}")
        if key not in defaults:
            allowed = ", ".join(sorted(defaults)) or "none"
            raise ValueError(
                f"family {name!r} takes no parameter {key!r} (allowed: {allowed})"
            )
        # by the default's type; a bool reads a number, so "0" is False
        params[key] = type(defaults[key])(float(raw))
    return params


def cmd_family(args):
    if args.name not in families.FAMILIES:
        available = ", ".join(sorted(families.FAMILIES))
        raise ValueError(f"unknown family {args.name!r}; available: {available}")
    build, defaults = families.FAMILIES[args.name]
    params = _parse_params(args.param, defaults, args.name)
    built = build(**params)
    if isinstance(built, HermitianOperator):
        fields = {"operator": built}
    else:  # a result dataclass: its fields in declaration order
        fields = {f.name: getattr(built, f.name) for f in dataclasses.fields(built)}
    results = {
        label: operator_to_json(obj) if isinstance(obj, HermitianOperator) else obj
        for label, obj in fields.items()
    }
    _report("family", {"name": args.name, "params": params}, results, "pass")
    return EXIT_OK


def cmd_decompose(args):
    cfg = _config(args)
    X = load_operator(args.matrix)
    ppt = ppt_violation_search(X, cfg)
    dec = ppt.decomposition
    results = {
        "decomposition": {
            "success": bool(dec.success),
            "residual": _num(dec.residual, cfg.tol_zero),
        },
        "ppt_search": {
            "violation_found": ppt.violation is not None,
            "best_value": _num(ppt.best_value, cfg.tol_zero),
        },
    }
    if dec.success:
        results["decomposition"]["P"] = operator_to_json(dec.P)
        results["decomposition"]["Q"] = operator_to_json(dec.Q)
    if ppt.violation is not None:
        results["ppt_search"]["state"] = operator_to_json(ppt.violation.state)
        results["ppt_search"]["value"] = _num(ppt.violation.value, cfg.tol_zero)
    _report(
        "decompose",
        {
            "matrix": args.matrix,
            "seed": cfg.seed,
            "restarts": cfg.restarts,
        },
        results,
        "pass" if (dec.success or ppt.violation) else "indeterminate",
        diagnostics={"split_iterations": int(dec.iterations)},
    )
    return EXIT_OK


def cmd_reproduce(args):
    cfg = _config(args)
    if args.case:
        cases = [families.get_case(args.case)]
    else:
        cases = list(families.reference_registry())
    rows = []
    failed = 0
    for case in cases:
        res = families.run_case(case, cfg)
        if res.status == "fail":
            failed += 1
        rows.append(
            {
                "name": res.name,
                "status": res.status,
                "checks": list(res.rows),
                "notes": res.notes,
            }
        )
    _report(
        "reproduce",
        {
            "case": args.case,
            "all": bool(args.all),
            "seed": cfg.seed,
            "restarts": cfg.restarts,
        },
        {"cases": rows, "failed": failed, "total": len(rows)},
        "pass" if failed == 0 else "fail",
    )
    return EXIT_OK if failed == 0 else EXIT_ERROR


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (default: WF_SEED or 0)")
    parser.add_argument("--restarts", type=int, default=64, help="see-saw restarts")
    parser.add_argument("--tol-zero", type=float, default=1e-7, help="zero threshold for expectations")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="witnesskit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="witness verdict for a JSON operator")
    p.add_argument("matrix")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("minprod", help="product-expectation floor (or ceiling)")
    p.add_argument("matrix")
    p.add_argument("--max", action="store_true", help="maximize instead of minimize")
    _add_common(p)
    p.set_defaults(func=cmd_minprod)

    p = sub.add_parser("lift", help="four-copy product-space lift")
    p.add_argument("source")
    p.add_argument("--mode", choices=("witness", "state"), required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--constant", type=float, default=None, help="override the penalty constant C (C >= 2 ||Y||, Y the symmetric part)")
    p.add_argument("--dump-dense", action="store_true", help=f"include the dense matrix (dim <= {DENSE_SIDE_CAP})")
    _add_common(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("family", help="emit a named reference construction")
    p.add_argument("--name", required=True)
    p.add_argument("--param", action="append", help="key=value, repeatable")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("decompose", help="PSD + partial-transposed-PSD split and PPT search")
    p.add_argument("matrix")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reproduce", help="run the reference-case registry")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--case", help="single case name")
    group.add_argument("--all", action="store_true", help="every registered case")
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, ArithmeticError, TypeError) as exc:
        return _error_report(args.command, exc)
    except Exception as exc:
        # not an input error: report it the same way, keep the traceback
        traceback.print_exc(file=sys.stderr)
        return _error_report(args.command, exc)


if __name__ == "__main__":
    sys.exit(main())
