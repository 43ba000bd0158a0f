"""Command-line interface: exit codes, JSON report shape, seeding,
and determinism, driven through ``cli.main`` in process."""

import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from witnesskit import cli, families, lift, optimize
from witnesskit.families import (
    bell_state_witness,
    choi_sigma,
    pt_bell_witness_2x3,
    sigma1,
    two_block_witness,
    w_xyz,
)
from witnesskit.operators import HermitianOperator, operator_from_json, operator_to_json
from witnesskit.sampling import random_density, rng_for


def _write_operator(tmp_path, name, op):
    path = tmp_path / name
    path.write_text(json.dumps(operator_to_json(op)))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _sigma1_witness_path(tmp_path):
    return _write_operator(tmp_path, "w.json", sigma1().shifted(0.5))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_witness_exit_zero(tmp_path, capsys):
    path = _sigma1_witness_path(tmp_path)
    code, report = _run(capsys, ["classify", path, "--seed", "0"])
    assert code == cli.EXIT_OK
    assert report["command"] == "classify"
    assert report["status"] == "pass"
    res = report["results"]
    assert res["dims"] == [2, 2]
    assert res["is_psd"] is False
    assert res["is_witness"] is True
    assert res["weakly_optimal"] is True
    assert res["min_eigenvalue"]["value"] == pytest.approx(-0.5, abs=1e-9)
    assert isinstance(res["min_eigenvalue"]["tolerance"], float)
    assert abs(res["min_product_expectation"]["value"]) <= 1e-7
    assert res["zero_product"] is not None


def test_classify_non_witness_exit_ten(tmp_path, capsys):
    path = _write_operator(tmp_path, "psd.json", sigma1())
    code, report = _run(capsys, ["classify", path])
    assert code == cli.EXIT_NOT_WITNESS
    assert report["results"]["is_psd"] is True
    assert report["results"]["is_witness"] is False


def test_classify_unconverged_search_is_indeterminate(tmp_path, capsys, monkeypatch):
    # one sweep cannot meet the convergence tolerance from a random start;
    # the see-saw value stays an upper bound on the floor 0, so the
    # verdict (and its exit code) is still "witness"
    monkeypatch.setattr(
        cli, "_config", lambda args: cli.OptimizerConfig(restarts=4, max_sweeps=1)
    )
    code, report = _run(capsys, ["classify", _sigma1_witness_path(tmp_path)])
    assert report["results"]["minprod_converged"] is False
    assert report["results"]["is_witness"] is True
    assert report["status"] == "indeterminate"
    assert code == cli.EXIT_OK


def test_classify_missing_file_exit_one(tmp_path, capsys):
    code, report = _run(capsys, ["classify", str(tmp_path / "absent.json")])
    assert code == cli.EXIT_ERROR
    assert report["status"] == "error"
    assert "error" in report


def test_classify_malformed_json_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dims": [2, 2], "re": [[1, 0], [0, 1]]}')  # wrong shape
    code, report = _run(capsys, ["classify", str(path)])
    assert code == cli.EXIT_ERROR
    assert report["status"] == "error"


def test_classify_non_finite_entry_exit_one(tmp_path, capsys):
    entries = np.eye(4)
    entries[2, 2] = np.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"dims": [2, 2], "re": entries.tolist()}))
    code, report = _run(capsys, ["classify", str(path)])
    assert code == cli.EXIT_ERROR
    assert report["status"] == "error"
    assert "NonFiniteError" in report["error"]


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_classify_rejects_non_finite_tolerance(tmp_path, capsys, tol):
    # lambda_min = -0.125: a NaN or infinite zero threshold would call
    # this witness PSD
    path = _write_operator(tmp_path, "bw.json", bell_state_witness())
    code, report = _run(capsys, ["classify", path, "--tol-zero", tol])
    assert code == cli.EXIT_ERROR
    assert report["status"] == "error"
    assert "finite" in report["error"]


def test_unexpected_failure_reaches_json_error(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("see-saw objective increased")

    monkeypatch.setattr(cli, "min_product_expectation", boom)
    code, report = _run(capsys, ["minprod", _sigma1_witness_path(tmp_path)])
    assert code == cli.EXIT_ERROR
    assert report["status"] == "error"
    assert report["error"] == "RuntimeError: see-saw objective increased"


# ---------------------------------------------------------------------------
# minprod
# ---------------------------------------------------------------------------


def test_minprod_choi_value(tmp_path, capsys):
    path = _write_operator(tmp_path, "choi.json", choi_sigma())
    code, report = _run(capsys, ["minprod", path, "--restarts", "32"])
    assert code == cli.EXIT_OK
    res = report["results"]
    assert res["value"]["value"] == pytest.approx(2.0, abs=1e-6)
    assert res["converged"] is True
    assert res["restarts_used"] == 32
    assert res["restarts_converged"] == 32
    assert 1 <= report["diagnostics"]["sweeps_max"] <= 100
    u = np.asarray(res["argmin"]["u"]["re"]) + 1j * np.asarray(
        res["argmin"]["u"]["im"]
    )
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-9)


def test_minprod_rejects_restarts_above_the_work_budget(tmp_path, capsys):
    # a count of 10^9 used to run the see-saw until killed
    path = _write_operator(tmp_path, "choi.json", choi_sigma())
    code, report = _run(capsys, ["minprod", path, "--restarts", "1000000000"])
    assert code == cli.EXIT_ERROR
    assert report["status"] == "error"
    assert report["error"] == "ValueError: restarts must be between 1 and 4096"


def test_minprod_max_flag(tmp_path, capsys):
    path = _write_operator(tmp_path, "s1.json", sigma1())
    _, lo = _run(capsys, ["minprod", path])
    _, hi = _run(capsys, ["minprod", path, "--max"])
    assert lo["results"]["value"]["value"] == pytest.approx(0.5, abs=1e-6)
    assert hi["results"]["value"]["value"] > lo["results"]["value"]["value"]


def test_seed_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    path = _write_operator(tmp_path, "s1.json", sigma1())
    monkeypatch.setenv("WF_SEED", "7")
    _, via_env = _run(capsys, ["minprod", path])
    assert via_env["inputs"]["seed"] == 7
    _, via_flag = _run(capsys, ["minprod", path, "--seed", "3"])
    assert via_flag["inputs"]["seed"] == 3
    monkeypatch.delenv("WF_SEED")
    _, default = _run(capsys, ["minprod", path])
    assert default["inputs"]["seed"] == 0


def test_minprod_deterministic_per_seed(tmp_path, capsys):
    path = _write_operator(tmp_path, "wq.json", two_block_witness(1.0, 1.0))
    outs = []
    for _ in range(2):
        cli.main(["minprod", path, "--seed", "11"])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    cli.main(["minprod", path, "--seed", "12"])
    other = capsys.readouterr().out
    argmin_a = json.loads(outs[0])["results"]["argmin"]
    argmin_b = json.loads(other)["results"]["argmin"]
    assert argmin_a != argmin_b or outs[0] == other


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------


def test_lift_witness_report(tmp_path, capsys):
    from witnesskit.families import bell_state_witness

    path = _write_operator(tmp_path, "bw.json", bell_state_witness())
    code, report = _run(capsys, ["lift", path, "--mode", "witness"])
    assert code == cli.EXIT_OK
    res = report["results"]
    assert res["space"] == [4, 4, 4, 4]
    assert res["constant"]["value"] == pytest.approx(162.0 / 4096.0, abs=1e-9)
    probes = res["probes"]
    assert probes["projector_invariance_gap"]["value"] <= 1e-8
    assert probes["symmetric_expectation_gap"]["value"] <= 1e-10
    assert probes["negative_direction_expectation"]["value"] <= -1e-4
    assert probes["seesaw_minprod"]["value"] >= -1e-7


def test_lift_state_report(tmp_path, capsys):
    # the (1,2) maximally mixed state: a 256-dim lift
    rho = HermitianOperator((1, 2), np.eye(2) / 2.0)
    path = _write_operator(tmp_path, "rho.json", rho)
    code, report = _run(capsys, ["lift", path, "--mode", "state"])
    assert code == cli.EXIT_OK
    res = report["results"]
    assert res["total_dim"] == 256
    assert res["weights"] == {"alpha": 1.0, "beta": 1.0, "gamma": 1.0}
    probes = res["probes"]
    assert probes["component_linearity_gap"]["value"] <= 1e-10
    assert probes["seesaw_minprod"]["value"] >= -1e-6


def test_lift_reports_y_norm_bound(tmp_path, capsys):
    # the witness lift's bound is its closed form; the state lift's, the
    # triangle inequality over its terms, lies at or above the Ritz value
    rho = random_density(rng_for(66), (1, 2))
    for name, X, mode in (("bw.json", bell_state_witness(), "witness"), ("rho.json", rho, "state")):
        path = _write_operator(tmp_path, name, X)
        code, report = _run(capsys, ["lift", path, "--mode", mode])
        assert code == cli.EXIT_OK
        res = report["results"]
        assert res["y_norm"]["value"] <= res["y_norm_bound"]["value"]
        if mode == "witness":
            assert res["y_norm_bound"]["value"] == res["y_norm"]["value"]


def test_lift_witness_dump_dense(tmp_path, capsys):
    from witnesskit.families import bell_state_witness

    path = _write_operator(tmp_path, "bw.json", bell_state_witness())
    code, report = _run(
        capsys, ["lift", path, "--mode", "witness", "--dump-dense"]
    )
    assert code == cli.EXIT_OK
    dense = report["results"]["dense"]
    M = np.asarray(dense["re"]) + 1j * np.asarray(dense["im"])
    assert M.shape == (256, 256)
    np.testing.assert_allclose(M, M.conj().T, atol=1e-12)


@pytest.mark.parametrize(
    "mode, op, total",
    [
        ("witness", HermitianOperator((3, 3), np.eye(9) - 0.5 * np.ones((9, 9))), 9**4),
        ("state", HermitianOperator((2, 2), np.eye(4) / 4.0), 4**8),
    ],
)
def test_lift_dump_dense_refuses_oversize_before_lifting(tmp_path, capsys, monkeypatch, mode, op, total):
    # the lifted side follows from the input (n^4 for a witness, n^8 for
    # a state), so an oversize dump is refused before classify or the norm
    reached = []
    monkeypatch.setattr(lift, "classify", lambda *a, **k: reached.append("classify"))
    monkeypatch.setattr(lift, "operator_norm", lambda *a, **k: reached.append("operator_norm"))
    path = _write_operator(tmp_path, "src.json", op)
    code, report = _run(capsys, ["lift", path, "--mode", mode, "--dump-dense"])
    assert code == cli.EXIT_ERROR
    assert report["command"] == "lift" and report["status"] == "error"
    assert f"lifted dimension {total} exceeds" in report["error"]
    assert reached == []


def test_cli_import_loads_no_scipy_sparse():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, witnesskit.cli; print([m for m in sys.modules if m.startswith('scipy.sparse')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_lift_state_rejects_bad_weights(tmp_path, capsys):
    from witnesskit.operators import HermitianOperator

    rho = HermitianOperator((1, 2), np.eye(2) / 2.0)
    path = _write_operator(tmp_path, "rho.json", rho)
    code, report = _run(
        capsys, ["lift", path, "--mode", "state", "--alpha", "0"]
    )
    assert code == cli.EXIT_ERROR
    assert "positive" in report["error"]


@pytest.mark.parametrize(
    "mode, flags",
    [
        ("state", ["--alpha", "nan"]),
        ("state", ["--beta", "nan"]),
        ("state", ["--gamma", "inf"]),
        ("state", ["--constant", "nan"]),
        ("state", ["--constant", "inf"]),
        ("witness", ["--constant", "nan"]),
    ],
)
def test_lift_rejects_non_finite_scalars(tmp_path, capsys, monkeypatch, mode, flags):
    from witnesskit.operators import HermitianOperator

    def no_norm(*args, **kwargs):
        raise AssertionError("operator_norm reached with a non-finite scalar")

    # the scalars are refused before the lift's Lanczos norm runs
    monkeypatch.setattr(lift, "operator_norm", no_norm)
    if mode == "witness":
        source = bell_state_witness()
    else:
        source = HermitianOperator((1, 2), np.eye(2) / 2.0)
    path = _write_operator(tmp_path, "src.json", source)
    code, report = _run(capsys, ["lift", path, "--mode", mode, *flags])
    assert code == cli.EXIT_ERROR
    assert report["status"] == "error"
    assert "ValueError" in report["error"] and "finite" in report["error"]


def test_lift_state_unsettled_norm_is_a_json_error(tmp_path, capsys, monkeypatch):
    from witnesskit.operators import HermitianOperator

    monkeypatch.setattr(lift, "_NORM_MAX_STEPS", 2)
    rho = HermitianOperator((1, 2), np.eye(2) / 2.0)
    path = _write_operator(tmp_path, "rho.json", rho)
    code, report = _run(capsys, ["lift", path, "--mode", "state"])
    assert code == cli.EXIT_ERROR
    assert report["status"] == "error"
    assert "ArithmeticError" in report["error"]


def test_lift_state_rejects_oversize(tmp_path, capsys):
    from witnesskit.operators import HermitianOperator

    rho = HermitianOperator((2, 3), np.eye(6) / 6.0)
    path = _write_operator(tmp_path, "rho23.json", rho)
    code, report = _run(capsys, ["lift", path, "--mode", "state"])
    assert code == cli.EXIT_ERROR
    assert "budget" in report["error"]


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(families.FAMILIES))
def test_family_emits_loadable_operator(capsys, name):
    code, report = _run(capsys, ["family", "--name", name])
    assert code == cli.EXIT_OK
    ops = {
        label: operator_from_json(doc)
        for label, doc in report["results"].items()
        if isinstance(doc, dict)
    }
    assert "operator" in ops or "W" in ops
    if name == "choi-sigma":
        op = ops["operator"]
        np.testing.assert_allclose(op.entries, choi_sigma().entries, atol=1e-12)
        assert op.dims == (3, 3)


def test_family_with_params(capsys):
    code, report = _run(
        capsys,
        ["family", "--name", "wxyz", "--param", "x=1", "--param", "y=1", "--param", "z=0"],
    )
    assert code == cli.EXIT_OK
    assert report["results"]["condition_met"] is True


def test_family_unknown_name(capsys):
    code, report = _run(capsys, ["family", "--name", "no-such-family"])
    assert code == cli.EXIT_ERROR
    assert report["status"] == "error"


def test_family_bad_param(capsys):
    code, report = _run(capsys, ["family", "--name", "werner", "--param", "q=0.2"])
    assert code == cli.EXIT_ERROR


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_two_block(tmp_path, capsys):
    path = _write_operator(tmp_path, "wq.json", two_block_witness(1.0, 1.0))
    code, report = _run(capsys, ["decompose", path])
    assert code == cli.EXIT_OK
    dec = report["results"]["decomposition"]
    assert dec["success"] is True
    assert dec["residual"]["value"] <= 1e-7
    assert report["results"]["ppt_search"]["violation_found"] is False
    P = np.asarray(dec["P"]["re"])
    assert np.linalg.eigvalsh(P)[0] >= -1e-8


@pytest.mark.parametrize(
    "op, decomposes",
    [(two_block_witness(1.0, 1.0), True), (w_xyz(1.0, 1.0, 0.0).operator, False)],
)
def test_decompose_runs_one_split(tmp_path, capsys, monkeypatch, op, decomposes):
    original = optimize.decomposition_search
    calls = []

    def counted(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    # ``from .optimize import`` copies the function: patch every copy
    for name, module in list(sys.modules.items()):
        if name == "witnesskit" or name.startswith("witnesskit."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    path = _write_operator(tmp_path, "w.json", op)
    code, report = _run(capsys, ["decompose", path])
    assert code == cli.EXIT_OK
    assert report["status"] == "pass"
    res = report["results"]
    assert res["decomposition"]["success"] is decomposes
    assert res["ppt_search"]["violation_found"] is not decomposes
    assert res["decomposition"]["residual"]["tolerance"] == 1e-7
    assert len(calls) == 1
    assert report["diagnostics"] == {"split_iterations": calls[0].iterations}


@pytest.mark.parametrize("op", [two_block_witness(1.0, 1.0), pt_bell_witness_2x3()])
def test_decompose_reports_the_proven_floor(tmp_path, capsys, op):
    # a split that decomposes proves tr(W rho) >= -||Z||_F on every PPT
    # state; that floor is the reported value, not a reading of -Z
    path = _write_operator(tmp_path, "w.json", op)
    code, report = _run(capsys, ["decompose", path])
    assert code == cli.EXIT_OK
    res = report["results"]
    assert res["decomposition"]["success"] is True
    residual = res["decomposition"]["residual"]["value"]
    best = res["ppt_search"]["best_value"]
    assert best["value"] == -residual
    assert -best["tolerance"] <= best["value"] <= 0.0


def test_decompose_twice_in_one_process(tmp_path, capsys):
    # each call writes one report exactly as json.dump(report, indent=2)
    # plus a newline would, and the second matches the first byte for byte
    path = _write_operator(tmp_path, "w.json", w_xyz(1.0, 1.0, 0.0).operator)
    outs = []
    for _ in range(2):
        assert cli.main(["decompose", path, "--seed", "3"]) == cli.EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    expected = io.StringIO()
    json.dump(json.loads(outs[0]), expected, indent=2)
    assert outs[0] == expected.getvalue() + "\n"


# ---------------------------------------------------------------------------
# the report envelope
# ---------------------------------------------------------------------------

_ENVELOPE = ["command", "inputs", "results", "status"]
_WITH_DIAGNOSTICS = ["command", "inputs", "results", "diagnostics", "status"]


@pytest.mark.parametrize(
    "argv, op, keys",
    [
        (["classify", "{}", "--restarts", "8"], sigma1().shifted(0.5), _ENVELOPE),
        (["minprod", "{}", "--restarts", "8"], sigma1(), _WITH_DIAGNOSTICS),
        (["minprod", "{}", "--restarts", "8", "--max"], sigma1(), _WITH_DIAGNOSTICS),
        (["lift", "{}", "--mode", "witness", "--restarts", "8"], bell_state_witness(), _ENVELOPE),
        (["decompose", "{}", "--restarts", "8"], two_block_witness(1.0, 1.0), _WITH_DIAGNOSTICS),
        (["family", "--name", "sigma1"], None, _ENVELOPE),
        (["reproduce", "--case", "werner-detection"], None, _ENVELOPE),
    ],
    ids=["classify", "minprod", "minprod-max", "lift", "decompose", "family", "reproduce"],
)
def test_report_envelope_key_order(tmp_path, capsys, argv, op, keys):
    if op is not None:
        path = _write_operator(tmp_path, "op.json", op)
        argv = [path if a == "{}" else a for a in argv]
    code, report = _run(capsys, argv)
    assert code in (cli.EXIT_OK, cli.EXIT_NOT_WITNESS)
    assert list(report) == keys
    assert report["command"] == argv[0]


@pytest.mark.parametrize(
    "argv",
    [["family", "--name", "no-such-family"], ["classify", "no-such-file.json"]],
)
def test_error_report_shape(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, report = _run(capsys, argv)
    assert code == cli.EXIT_ERROR
    assert list(report) == ["command", "status", "error"]
    assert report["command"] == argv[0]
    assert report["status"] == "error"


@pytest.mark.parametrize("raw, primed", [(None, False), ("1", True), ("0", False)])
def test_family_primed_param_is_a_bool(capsys, raw, primed):
    argv = ["family", "--name", "isotropic-sigma"]
    if raw is not None:
        argv += ["--param", f"primed={raw}"]
    code, report = _run(capsys, argv)
    assert code == cli.EXIT_OK
    assert report["inputs"]["params"] == {"q": -0.25, "primed": primed}
    op = operator_from_json(report["results"]["operator"])
    np.testing.assert_array_equal(op.entries, families.isotropic_sigma(-0.25, primed).entries)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_single_case(capsys):
    code, report = _run(capsys, ["reproduce", "--case", "sigma1-cmax"])
    assert code == cli.EXIT_OK
    rows = report["results"]["cases"]
    assert len(rows) == 1
    assert rows[0]["name"] == "sigma1-cmax"
    assert rows[0]["status"] == "pass"


def test_reproduce_unknown_case(capsys):
    code, report = _run(capsys, ["reproduce", "--case", "nonexistent"])
    assert code == cli.EXIT_ERROR
    assert report["status"] == "error"


def test_reproduce_requires_selector():
    with pytest.raises(SystemExit):
        cli.main(["reproduce"])


def test_reproduce_all(capsys):
    code, report = _run(capsys, ["reproduce", "--all"])
    assert code == cli.EXIT_OK
    rows = report["results"]["cases"]
    assert len(rows) == 20
    statuses = [r["status"] for r in rows]
    assert statuses.count("pass") == 17
    assert statuses.count("documented-discrepancy") == 3
    flagged = {r["name"] for r in rows if r["status"] == "documented-discrepancy"}
    assert flagged == {
        "lift-penalty-sign",
        "choi-decomposability-interval",
        "isotropic-primed",
    }
    for row in rows:
        if row["status"] == "documented-discrepancy":
            assert row["notes"]
