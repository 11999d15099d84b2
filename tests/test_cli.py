import argparse
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES, GOLDEN, golden_diff, random_problem

from nchodisk import SchemaError, cli, heun_like_parameters, pencil, spectral, standard_ncho_problem
from nchodisk.cli import main, parse_problem

SQ3 = math.sqrt(3.0)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_spectrum_both_runs_the_truncation_once(capsys, monkeypatch):
    calls = []
    real = spectral.spectrum_truncated

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "spectrum_truncated", counted)
    monkeypatch.setattr(cli, "spectrum_truncated", counted)
    argv = ["spectrum", str(FIXTURES / "classical_eta01_mu15.json"), "--method", "both"]
    code, out = run_cli(capsys, argv + ["--count", "3"])
    assert code == 0 and len(calls) == 1
    payload = json.loads(out)
    assert payload["max_disagreement"] < 1e-6


def test_pole_ranks_are_decided_once_per_decomposition(capsys, monkeypatch):
    # one kernel at a sample point, one at 0 and one per pole, all inside the
    # decomposition: no later layer works a pole's rank out again (the kernel
    # rule is pencil._kernel, which pencil_kernel calls too)
    calls = []
    real = pencil._kernel

    def counted(*args):
        calls.append(1)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("nchodisk") and hasattr(module, "_kernel"):
            monkeypatch.setattr(module, "_kernel", counted)
    path = str(FIXTURES / "classical_eta01_mu15.json")
    for argv in (["fuchsian", path, "--lambda", "0.5"], ["verify-pencil", path]):
        calls.clear()
        code, out = run_cli(capsys, argv)
        poles = json.loads(out)["singular_points" if argv[0] == "fuchsian" else "poles"]
        assert code == 0 and len(poles) == 4
        assert len(calls) == 2 + len(poles), argv


def test_each_command_runs_the_pencil_qz_a_fixed_number_of_times(capsys, monkeypatch):
    # one QZ per command that needs the pencil, in its one PencilAnalysis: the
    # positivity rule, the truncation's inner radius and the decomposition all
    # read it, and spectrum_connection reuses the truncation's (heun-params
    # standardizes this non-standard fixture)
    calls = []
    real = pencil._linearization_eigvals
    monkeypatch.setattr(pencil, "_linearization_eigvals", lambda a, b: calls.append(1) or real(a, b))
    path = str(FIXTURES / "classical_eta01_mu15.json")
    expected = [
        (["verify-pencil"], 1),
        (["fuchsian", "--lambda", "0.5"], 1),
        (["spectrum", "--method", "trunc"], 1),
        (["eigenfunction"], 1),
        (["standardize"], 1),
        (["heun-params", "--lambda", "0.5"], 1),
        (["spectrum", "--method", "connect"], 1),
        (["spectrum", "--method", "both"], 1),
        (["positivity"], 0),
    ]
    for argv, count in expected:
        calls.clear()
        code, _ = run_cli(capsys, [argv[0], path, *argv[1:]])
        assert (code, len(calls)) == (0, count), argv


def test_a_positive_pencil_the_decomposition_refuses_keeps_each_refusal_class(capsys, tmp_path):
    # M = B e^{i phi} + I + B' e^{-i phi} > 0 on the circle, but det Q(z) =
    # 0.91 z^2 has only 0 as a finite root: the truncation needs the roots and
    # the radius alone and answers, while every solver that decomposes refuses
    path = tmp_path / "nilpotent_b.json"
    path.write_text(json.dumps({
        "p": 2,
        "mu": 1.0,
        "A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "B": [[[0.0, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "C0": [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.1, 0.0]]],
    }))
    code, _ = run_cli(capsys, ["spectrum", str(path), "--method", "trunc"])
    assert code == 0
    code, out = run_cli(capsys, ["spectrum", str(path), "--method", "connect"])
    error = json.loads(out)["error"]
    assert (code, error["class"]) == (4, "SimplePoleViolation")
    assert error["message"].startswith("more than dim ker B' = 1 pencil eigenvalues at infinity; ")
    code, out = run_cli(capsys, ["standardize", str(path)])
    error = json.loads(out)["error"]
    assert (code, error["class"]) == (4, "NotGenericError")
    assert error["message"].startswith("repeated pencil root: ")


def test_parse_p1_fixture():
    prob, extras = parse_problem(str(FIXTURES / "p1_quarter.json"))
    assert prob.p == 1 and prob.mu == 0.5
    assert prob.A[0, 0] == 1.0 and prob.B[0, 0] == 0.25
    assert extras == {}


def test_parse_mu_from_sector_labels():
    prob, _ = parse_problem(str(FIXTURES / "classical_mu_nk.json"))
    assert prob.mu == 0.5


def test_parse_a123_alternative():
    prob, extras = parse_problem(str(FIXTURES / "p1_a123.json"))
    assert abs(prob.B[0, 0] - 0.25) < 1e-15
    assert extras["lambda"] == 0.25


def test_parse_missing_b_is_schema_error():
    with pytest.raises(SchemaError):
        parse_problem(str(FIXTURES / "bad_missing_b.json"))


@pytest.mark.parametrize("key", ["lambda", "tol"])
def test_parse_rejects_non_finite_extras(key):
    data = json.loads((FIXTURES / "p1_quarter.json").read_text())
    data[key] = math.nan
    with pytest.raises(SchemaError, match="must be a finite number"):
        parse_problem(data)


def test_heun_params_random_p2_with_b2(capsys, tmp_path):
    # a random admissible p = 2 problem standardizes to b2 != 0: five singular
    # points, and the coalescent flag must serialize as a JSON boolean
    prob = random_problem(np.random.default_rng(7), p=2)

    def pairs(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]

    path = tmp_path / "random_p2.json"
    path.write_text(json.dumps(
        {"p": 2, "mu": prob.mu, "A": pairs(prob.A), "B": pairs(prob.B), "C0": pairs(prob.C0)}
    ))
    code, out = run_cli(capsys, ["heun-params", str(path), "--lambda", "1.3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["standardized"] is True
    assert payload["n_singularities"] == 5
    assert payload["coalescent"] is False


def test_exit_code_schema(capsys):
    code, out = run_cli(capsys, ["verify-pencil", str(FIXTURES / "bad_missing_b.json")])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "schema"


def test_exit_code_contract(capsys):
    code, out = run_cli(capsys, ["verify-pencil", str(FIXTURES / "bad_non_hermitian.json")])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "contract"


def test_exit_code_solver(capsys):
    code, out = run_cli(capsys, ["standardize", str(FIXTURES / "degenerate_b0.json")])
    assert code == 4
    err = json.loads(out)["error"]
    assert err["type"] == "solver" and err["class"] == "NotGenericError"


def test_verify_pencil_six_passes(capsys):
    code, out = run_cli(capsys, ["verify-pencil", str(FIXTURES / "p1_quarter.json")])
    assert code == 0
    assert out.count('"status": "PASS"') == 6
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 6


def test_positivity_output(capsys):
    code, out = run_cli(capsys, ["positivity", str(FIXTURES / "classical_eta0.json")])
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["margin"] > 0


def test_standardize_output_round_trips(capsys):
    code, out = run_cli(capsys, ["standardize", str(FIXTURES / "classical_eta0.json")])
    assert code == 0
    payload = json.loads(out)
    std_prob, _ = parse_problem(payload["problem"])
    assert np.max(np.abs(std_prob.A - np.eye(2))) < 1e-10
    assert [step["kind"] for step in payload["transcript"]] == ["mobius", "normalize", "gauge"]


def test_fuchsian_report(capsys):
    code, out = run_cli(
        capsys, ["fuchsian", str(FIXTURES / "p1_quarter.json"), "--lambda", "0.0"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sum_rule_residual"] < 1e-12
    assert payload["infinity_formula_residual"] < 1e-12
    assert payload["residue_at_infinity"][0][0][0] == pytest.approx(0.5, abs=1e-12)


def test_fuchsian_lambda_required(capsys):
    code, out = run_cli(capsys, ["fuchsian", str(FIXTURES / "p1_quarter.json")])
    assert code == 2


def test_heun_params_classical_point(capsys):
    code, out = run_cli(
        capsys,
        ["heun-params", str(FIXTURES / "classical_eta0.json"), "--lambda", "3.4641016"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["standardized"] is True
    assert payload["n_singularities"] == 4
    assert abs(payload["kappa0"][0] - 1.0) < 1e-6 and abs(payload["kappa0"][1]) < 1e-9
    assert abs(payload["kappa1"][0] - 1.0) < 1e-6
    assert abs(payload["alpha"][0] - 0.5) < 1e-9
    assert payload["locations"]["infinity"] == "infinity"


def test_spectrum_both_p1(capsys):
    code, out = run_cli(
        capsys,
        ["spectrum", str(FIXTURES / "p1_quarter.json"), "--method", "both", "--count", "5"],
    )
    assert code == 0
    payload = json.loads(out)
    expect = [SQ3 * (m + 0.25) for m in range(5)]
    assert np.max(np.abs(np.array(payload["truncation"]["eigenvalues"]) - expect)) < 1e-8
    assert payload["max_disagreement"] < 1e-6


def test_spectrum_connect_reaches_far_up_p1(capsys):
    argv = ["spectrum", str(FIXTURES / "p1_quarter.json"), "--method", "connect", "--count", "60"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    got = np.array(json.loads(out)["connection"]["eigenvalues"])
    expect = SQ3 * (np.arange(60) + 0.25)
    assert np.max(np.abs(got - expect) / expect) <= 1e-12


@pytest.mark.parametrize("name", ["classical_eta0.json", "classical_mu_nk.json"])
def test_spectrum_both_on_double_eigenvalues(capsys, name):
    argv = ["spectrum", str(FIXTURES / name), "--method", "both", "--count", "6"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    conn = payload["connection"]["eigenvalues"]
    assert payload["max_disagreement"] < 1e-10
    assert max(abs(a - b) for a, b in zip(conn[::2], conn[1::2])) < 1e-10


def test_spectrum_both_with_b_zero(capsys):
    argv = ["spectrum", str(FIXTURES / "degenerate_b0.json"), "--method", "both"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["connection"]["eigenvalues"] == [1.0, 1.0, 3.0, 3.0, 5.0]
    assert payload["max_disagreement"] == 0.0


def test_eigenfunction_csv(capsys):
    code, out = run_cli(
        capsys,
        [
            "eigenfunction",
            str(FIXTURES / "p1_quarter.json"),
            "--index",
            "0",
            "--tmax",
            "4.0",
            "--samples",
            "9",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,re_0,im_0"
    assert len(lines) == 10
    first = [float(x) for x in lines[1].split(",")]
    assert len(first) == 3


def test_eigenfunction_solves_each_truncation_order_once(capsys, monkeypatch, tmp_path):
    # the truncation seeds of the requested eigenvalue are handed to the
    # profile, which neither settles the order again nor grows k past them
    solves = []
    real = spectral.eigen_banded_lowest

    def counted(band, count):
        solves.append((band.shape[1], count))
        return real(band, count)

    monkeypatch.setattr(spectral, "eigen_banded_lowest", counted)
    for name, index in (("p1_quarter.json", 0), ("classical_eta01_mu15.json", 2)):
        solves.clear()
        code, _ = run_cli(capsys, ["eigenfunction", str(FIXTURES / name), "--index", str(index)])
        assert code == 0
        sizes = [n for n, _ in solves]
        assert len(sizes) >= 2 and len(set(sizes)) == len(sizes), solves
        assert {count for _, count in solves} == {index + 1}, solves
    # a certified start (orders 164, 202 on the beta gamma = 1.02 ladder)
    # solves its first order only: the second is certified by inverse iteration
    ladder = standard_ncho_problem(2.0, 0.51, 0.1, 1.5)

    def pairs(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]

    path = tmp_path / "ladder_1.02.json"
    path.write_text(json.dumps(
        {"p": 2, "mu": ladder.mu, "A": pairs(ladder.A), "B": pairs(ladder.B), "C0": pairs(ladder.C0)}
    ))
    builds = []
    build = spectral.build_truncated

    def counted_build(problem, order):
        builds.append(order)
        return build(problem, order)

    monkeypatch.setattr(spectral, "build_truncated", counted_build)
    solves.clear()
    code, _ = run_cli(capsys, ["eigenfunction", str(path), "--index", "7"])
    assert code == 0
    # the two certified orders, then the profile's order, twice the first
    assert builds == [164, 202, 2 * 164]
    assert solves == [(2 * 164, 9)], solves


def test_confluence_csv(capsys):
    code, out = run_cli(
        capsys,
        [
            "confluence",
            "--coupling",
            "0.3",
            "--delta",
            "0.5",
            "--mu-list",
            "40,160",
            "--count",
            "3",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mu,max_abs_deviation"
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][1]) > float(rows[1][1]) > 0


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, ["positivity", str(FIXTURES / "p1_quarter.json"), "--out", str(target)]
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["certified"] is True


GOLDEN_CASES = [
    ("verify_pencil_p1.json", ["verify-pencil", str(FIXTURES / "p1_quarter.json")]),
    ("positivity_classical.json", ["positivity", str(FIXTURES / "classical_eta0.json")]),
    ("standardize_classical.json", ["standardize", str(FIXTURES / "classical_eta0.json")]),
    (
        "fuchsian_p1_lam0.json",
        ["fuchsian", str(FIXTURES / "p1_quarter.json"), "--lambda", "0.0"],
    ),
    (
        "heun_params_classical.json",
        ["heun-params", str(FIXTURES / "classical_eta0.json"), "--lambda", "3.4641016"],
    ),
    (
        "spectrum_both_p1.json",
        ["spectrum", str(FIXTURES / "p1_quarter.json"), "--method", "both", "--count", "3"],
    ),
    (
        "eigenfunction_p1.csv",
        [
            "eigenfunction",
            str(FIXTURES / "p1_quarter.json"),
            "--index",
            "0",
            "--tmax",
            "4.0",
            "--samples",
            "9",
        ],
    ),
    (
        "confluence_small.csv",
        ["confluence", "--coupling", "0.3", "--delta", "0.5", "--mu-list", "20,40", "--count", "2"],
    ),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_files_and_repeatability(capsys, name, argv):
    code1, out1 = run_cli(capsys, argv)
    code2, out2 = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical across runs
    golden = (GOLDEN / name).read_text()
    assert out1 == golden, golden_diff(golden, out1)


def test_golden_diff_names_discrete_and_numeric_changes():
    msg = golden_diff(
        '{"a": [1.0, "x", 3], "b": true, "c": 2.0}',
        '{"a": [1.5, "y", 4], "b": false, "d": 2.0}',
    )
    for part in ("$.a[1]: 'x' -> 'y'", "$.a[2]: 3 -> 4", "$.b: True -> False",
                 "$.c: key only in golden", "$.d: key only in output",
                 "largest absolute change 0.5", "largest relative change 0.333"):
        assert part in msg, msg
    csv = golden_diff("i,v\n0,1.0\n1,2.0\n", "i,v\n0,1.0\n2,2.2\n")
    assert "$[2][0]: 1 -> 2" in csv and "largest absolute change 0.2" in csv, csv
    assert "formatting" in golden_diff('{"a": 1.0}', '{"a":1.0}')


def _run_sequence(capsys, sequence):
    """(exit code, stdout, stderr) of each main call; an argparse error is
    its SystemExit code."""
    results = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_main_builds_its_parser_once_and_keeps_no_state(capsys, monkeypatch):
    p1, classical = str(FIXTURES / "p1_quarter.json"), str(FIXTURES / "classical_eta0.json")
    sequence = [
        ["positivity", classical, "--grid-size", "4096"],
        ["positivity", classical],
        ["fuchsian", p1, "--lambda", "0.0"],
        ["fuchsian", p1],
        ["spectrum", p1, "--no-such-flag"],
        ["verify-pencil", p1, "--json-indent", "0"],
        ["verify-pencil", p1],
        ["heun-params", classical, "--lambda", "3.4641016"],
        ["standardize", classical],
        ["positivity", p1],
    ]
    # each run of _build_parser's body adds the subcommands once
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        built.append(1)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    cli._build_parser.cache_clear()
    try:
        reused = _run_sequence(capsys, sequence)
        assert len(built) == 1
    finally:
        cli._build_parser.cache_clear()

    assert json.loads(reused[0][1])["grid_size"] == 4096
    assert json.loads(reused[1][1])["grid_size"] == 256
    assert reused[2][0] == 0 and reused[3][0] == 2
    assert reused[4][0] == 2 and reused[5][0] == 0 and reused[6][0] == 0
    assert reused[5][1] != reused[6][1]  # --json-indent does not carry over

    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _run_sequence(capsys, sequence)
    assert len(built) == 1 + len(sequence)
    assert reused == fresh


@pytest.mark.parametrize(
    "argv",
    [
        ["confluence", "--coupling", "nan", "--mu-list", "20"],
        ["fuchsian", str(FIXTURES / "p1_quarter.json"), "--lambda", "nan"],
        ["heun-params", str(FIXTURES / "classical_eta0.json"), "--lambda", "nan"],
        ["heun-params", str(FIXTURES / "classical_eta0.json"), "--lambda", "inf"],
        ["eigenfunction", str(FIXTURES / "p1_quarter.json"), "--tmax", "nan"],
        ["spectrum", str(FIXTURES / "p1_quarter.json"), "--tol", "nan"],
        ["fuchsian", str(FIXTURES / "p1_quarter.json"), "--lambda", "abc"],
    ],
    ids=["coupling-nan", "fuchsian-lambda-nan", "heun-lambda-nan", "heun-lambda-inf",
         "tmax-nan", "tol-nan", "lambda-abc"],
)
def test_non_finite_float_option_is_an_argparse_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected a finite number" in captured.err


@pytest.mark.parametrize(
    "argv,option,code",
    [
        (["spectrum", str(FIXTURES / "p1_quarter.json"), "--tol", "-1e-3"], "--tol", 3),
        (["fuchsian", str(FIXTURES / "p1_a123.json"), "--lambda", "-1e-3"], "--lambda", 0),
        (["confluence", "--delta", "-1e-3", "--coupling", "0.3", "--mu-list", "20",
          "--count", "2"], "--delta", 0),
        (["confluence", "--coupling", "-3e-1", "--mu-list", "20", "--count", "2"],
         "--coupling", 0),
    ],
    ids=["tol", "lambda", "delta", "coupling"],
)
def test_negative_value_with_an_exponent_is_the_option_value(capsys, argv, option, code):
    # argparse before Python 3.13 reads -1e-3 as an option, not as a number
    got, out = run_cli(capsys, argv)
    assert got == code
    i = argv.index(option)
    joined = argv[:i] + [f"{option}={argv[i + 1]}"] + argv[i + 2:]
    assert run_cli(capsys, joined) == (got, out)  # the form argparse always read
    if code == 3:
        assert json.loads(out)["error"]["message"] == "tol must be non-negative and finite"
    elif option == "--lambda":
        assert json.loads(out)["lambda"] == -1e-3


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_negative_seed_is_an_argparse_error(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["verify-pencil", str(FIXTURES / "p1_quarter.json"), "--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected a non-negative integer" in captured.err


def _counting_samples(monkeypatch):
    calls, real = [], pencil._reconstruction_residual
    monkeypatch.setattr(pencil, "_reconstruction_residual", lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("name", ["p1_quarter", "classical_eta01_mu15"])
def test_seed_moves_only_the_reconstruction_sample(capsys, monkeypatch, name):
    # the decomposition's probe uses the problem's own stream; --seed seeds
    # the one reconstruction sample of each verify-pencil call
    samples = _counting_samples(monkeypatch)
    argv = ["verify-pencil", str(FIXTURES / f"{name}.json")]
    seen = []
    for seed in ([], ["--seed", "0"], ["--seed", "7"], ["--seed", "123456789"]):
        samples.clear()
        code, out = run_cli(capsys, argv + seed)
        payload = json.loads(out)
        assert code == 0 and len(samples) == 1
        assert payload["reconstruction_residual"] < 1e-12
        checks = [(c["name"], c["status"]) for c in payload["checks"]]
        seen.append((checks, payload["poles"], payload["zero_is_pole"]))
    assert all(s == seen[0] for s in seen)


def test_no_other_command_samples_the_reconstruction(capsys, monkeypatch):
    samples = _counting_samples(monkeypatch)
    path = str(FIXTURES / "classical_eta01_mu15.json")
    for argv in (
        ["fuchsian", path, "--lambda", "0.5"],
        ["standardize", path],
        ["heun-params", path, "--lambda", "0.5"],
        ["spectrum", path, "--method", "both", "--count", "3"],
    ):
        code, _ = run_cli(capsys, argv)
        assert code == 0, argv
    assert samples == []


@pytest.mark.parametrize("omega", ["0", "-1"])
def test_confluence_non_positive_omega_is_refused_at_once(capsys, monkeypatch, omega):
    # the Rabi ladder is unbounded below: without the check it runs to the order cap
    bands = []
    real = spectral._rabi_band

    def counted(*args, **kwargs):
        bands.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "_rabi_band", counted)
    code, out = run_cli(
        capsys, ["confluence", "--coupling", "0.3", "--mu-list", "20", "--omega", omega]
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "contract"
    assert bands == []


@pytest.mark.parametrize(
    "argv,code,kind",
    [
        (["eigenfunction", str(FIXTURES / "p1_quarter.json"), "--samples", "0"], 3, "contract"),
        (["eigenfunction", str(FIXTURES / "p1_quarter.json"), "--samples", "-1"], 3, "contract"),
        (["confluence", "--coupling", "0.3", "--mu-list", "20,x"], 2, "schema"),
        (["confluence", "--coupling", "0.3", "--mu-list", ","], 2, "schema"),
        (["confluence", "--coupling", "0.3", "--mu-list", "-5"], 3, "contract"),
        (["spectrum", str(FIXTURES / "p1_quarter.json"), "--tol", "-1"], 3, "contract"),
        (["spectrum", str(FIXTURES / "p1_quarter.json"), "--tol", "-1", "--method", "connect"],
         3, "contract"),
        # start orders above half the order cap leave no second order to compare
        (["spectrum", str(FIXTURES / "p1_quarter.json"), "--count", "100000"], 3, "contract"),
        (["confluence", "--coupling", "0.3", "--mu-list", "20", "--count", "100000"],
         3, "contract"),
        (["eigenfunction", str(FIXTURES / "p1_quarter.json"), "--index", "-1"], 3, "contract"),
    ],
    ids=["samples-0", "samples-neg", "mu-list-non-number", "mu-list-empty", "mu-list-negative",
         "tol-neg", "tol-neg-connect", "count-past-cap", "confluence-count-past-cap", "index-neg"],
)
def test_bad_argv_value_exits_with_json_error(capsys, monkeypatch, argv, code, kind):
    builds = []
    for name in ("build_truncated", "_rabi_band"):

        def counted(*args, real=getattr(spectral, name), **kwargs):
            builds.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(spectral, name, counted)
    got, out = run_cli(capsys, argv)
    assert got == code
    assert json.loads(out)["error"]["type"] == kind
    assert builds == []  # refused before any truncation is built


@pytest.mark.parametrize("tmax", ["1e300", "1e5"])
def test_eigenfunction_overflow_exits_3(capsys, tmax):
    # the Laguerre sum of the profile leaves the floating-point range: a
    # contract error, not nan values with exit 0
    argv = ["eigenfunction", str(FIXTURES / "p1_quarter.json"), "--tmax", tmax, "--samples", "3"]
    code, out = run_cli(capsys, argv)
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "contract",
        "message": f"the radial modes overflow at t up to {float(tmax):g}; take a smaller t",
    }


def test_confluence_refuses_the_count_before_omega(capsys):
    argv = ["confluence", "--coupling", "0.3", "--mu-list", "20", "--count", "0", "--omega", "-1"]
    code, out = run_cli(capsys, argv)
    assert code == 3
    assert json.loads(out)["error"]["message"] == "count must be at least 1"


def _p1_with(**fields):
    node = json.loads((FIXTURES / "p1_quarter.json").read_text())
    node.update(fields)
    return json.dumps(node).encode()


@pytest.mark.parametrize(
    "content,extra,path",
    [
        (_p1_with(p=True), [], "$.p"),
        (_p1_with(mu=True), [], "$.mu"),
        (_p1_with(mu={"n": True, "k": 0}), [], "$.mu"),
        (_p1_with(A=[[[True, 0]]]), [], "$.A[0][0]"),
        (_p1_with(tol=True), [], "$.tol"),
        (_p1_with(**{"lambda": True}), [], "$.lambda"),
        ('{"p": 1, "mu": 0.5, "\xe9": 0}'.encode("latin-1"), [], "file"),
        (b"[" * 200000 + b"]" * 200000, [], "file"),
        (_p1_with(), ["--out", "missing/x.json"], "$.out"),
    ],
    ids=["p-true", "mu-true", "mu-nk-true", "entry-true", "tol-true", "lambda-true",
         "not-utf8", "nested-200000", "out-dir-missing"],
)
def test_bad_input_exits_2_with_a_schema_error(capsys, tmp_path, content, extra, path):
    problem = tmp_path / "problem.json"
    problem.write_bytes(content)
    extra = [str(tmp_path / x) if x.endswith(".json") else x for x in extra]
    code, out = run_cli(capsys, ["positivity", str(problem), *extra])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "schema"
    assert err["path"] == (str(problem) if path == "file" else path)


# every command that reads a problem file, with the options it needs
_EVERY_COMMAND = [
    ["verify-pencil"],
    ["positivity"],
    ["standardize"],
    ["fuchsian", "--lambda", "0.5"],
    ["heun-params", "--lambda", "0.5"],
    ["spectrum", "--method", "both"],
    ["eigenfunction"],
]


@pytest.mark.parametrize("field", ["A", "B", "C0"])
@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=lambda argv: argv[0])
def test_huge_entries_exit_with_an_error_not_a_traceback(capsys, tmp_path, field, argv):
    # 1e308 is finite, but the pencil at |z| > 1.8, the norms of its
    # linearization and the truncated band overflow on it
    problem = tmp_path / "problem.json"
    problem.write_bytes(_p1_with(**{field: [[[1e308, 0.0]]]}))
    code, out = run_cli(capsys, [argv[0], str(problem), *argv[1:]])
    assert code in (2, 3, 4)
    assert json.loads(out)["error"]["type"] == "contract"


def test_error_json_bytes(capsys, tmp_path):
    # each error object keeps its key order: type, path, message / type,
    # message / type, class, message
    unwritable = tmp_path / "missing" / "x.json"
    cases = [
        (["verify-pencil", str(FIXTURES / "bad_missing_b.json")], 2,
         '{"error": {"type": "schema", "path": "$.A", '
         '"message": "$.A: provide exactly one of (A, B) or a123"}}\n'),
        (["verify-pencil", str(FIXTURES / "bad_non_hermitian.json")], 3,
         '{"error": {"type": "contract", "message": "A must be Hermitian"}}\n'),
        (["standardize", str(FIXTURES / "degenerate_b0.json")], 4,
         '{"error": {"type": "solver", "class": "NotGenericError", "message": '
         '"determinant has 1 distinct roots; standardization needs at least 3"}}\n'),
        (["positivity", str(FIXTURES / "p1_quarter.json"), "--out", str(unwritable)], 2,
         json.dumps({"error": {"type": "schema", "path": "$.out", "message":
                    f"$.out: cannot write output file: [Errno 2] No such file or directory: "
                    f"'{unwritable}'"}}) + "\n"),
    ]
    for argv, code, expected in cases:
        assert run_cli(capsys, argv) == (code, expected)


def _strict_json(text):
    # json.loads reads NaN, Infinity and -Infinity, which JSON does not have
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["heun-params", "classical_eta01_mu15", "--lambda", "1e155"],
         "the Heun parameters overflow at lambda = 1e+155; take a smaller lambda"),
        (["heun-params", "classical_eta01_mu15", "--lambda", "1e300"],
         "the Heun parameters overflow at lambda = 1e+300; take a smaller lambda"),
        (["positivity", "classical_eta01_mu15", "--grid-size", "65537"],
         "grid_size must be from 64 to 65536"),
        (["positivity", "classical_eta01_mu15", "--grid-size", "100000000000000000000"],
         "grid_size must be from 64 to 65536"),
        (["verify-pencil", "p1_quarter", "--tol", "-1"], "tol must be non-negative and finite"),
        (["eigenfunction", "p1_quarter", "--samples", "100001"],
         "samples must be from 1 to 100000"),
        (["eigenfunction", "p1_quarter", "--samples", "100000000000000000000"],
         "samples must be from 1 to 100000"),
    ],
    ids=["heun-lambda-1e155", "heun-lambda-1e300", "grid-65537", "grid-1e20", "verify-tol-neg",
         "samples-100001", "samples-1e20"],
)
def test_out_of_range_values_exit_3_with_strict_json(capsys, argv, message):
    # under pytest's warnings-as-errors, as from a shell: no RuntimeWarning
    # escapes main, and stdout is the error object alone
    argv = [argv[0], str(FIXTURES / f"{argv[1]}.json"), *argv[2:]]
    code, out = run_cli(capsys, argv)
    assert code == 3
    assert out == json.dumps({"error": {"type": "contract", "message": message}}) + "\n"
    _strict_json(out)


@pytest.mark.parametrize("subcommand", ["positivity", "confluence"])
def test_a_non_finite_result_exits_3(capsys, monkeypatch, subcommand):
    # whatever a layer lets through, neither the JSON nor the CSV output
    # carries nan or inf
    if subcommand == "positivity":
        real = cli.positivity_margin
        monkeypatch.setattr(
            cli, "positivity_margin",
            lambda *a, **k: dataclasses.replace(real(*a, **k), margin=math.nan),
        )
        argv = ["positivity", str(FIXTURES / "p1_quarter.json")]
    else:
        sweep = types.SimpleNamespace(mu_values=[20.0], deviations=[math.inf])
        monkeypatch.setattr(cli, "confluence_sweep", lambda *a, **k: sweep)
        argv = ["confluence", "--coupling", "0.3", "--mu-list", "20"]
    code, out = run_cli(capsys, argv)
    assert code == 3
    assert _strict_json(out)["error"] == {
        "type": "contract",
        "message": "the result holds a non-finite number, which the output cannot carry",
    }


def test_problem_from_stdin(capsys, monkeypatch):
    text = (FIXTURES / "classical_eta0.json").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out = run_cli(capsys, ["positivity", "-"])
    assert code == 0
    assert out == (GOLDEN / "positivity_classical.json").read_text()


def test_negative_index_error_names_the_index(capsys):
    argv = ["eigenfunction", str(FIXTURES / "p1_quarter.json"), "--index", "-1"]
    code, out = run_cli(capsys, argv)
    assert code == 3
    assert "index must be at least 0" in json.loads(out)["error"]["message"]


def _env_with_src():
    env = dict(os.environ)
    src = str(Path(cli.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_runs_the_cli():
    env = _env_with_src()
    done = subprocess.run(
        [sys.executable, "-m", "nchodisk", "positivity", str(FIXTURES / "classical_eta0.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / "positivity_classical.json").read_text()


def test_import_does_not_load_scipy_optimize():
    # no command needs it: importing the CLI must not load it
    env = _env_with_src()
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, nchodisk.cli; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def _problem_file(tmp_path, name, a, b):
    """A problem file with the given A and B, C0 = 0 and mu = 1."""
    a, b = np.atleast_2d(a).astype(complex), np.atleast_2d(b).astype(complex)

    def pairs(m):
        return [[[v.real, v.imag] for v in row] for row in m]

    path = tmp_path / f"{name}.json"
    node = {"p": len(a), "mu": 1.0, "A": pairs(a), "B": pairs(b), "C0": pairs(0 * a)}
    path.write_text(json.dumps(node))
    return str(path)


@pytest.mark.parametrize(
    "case,message",
    [
        ("unit_circle_p1", "sits on the unit circle"),
        ("p1_b06", "sits on the unit circle"),
        ("p2_a_negative", "A + B + B' is not positive definite (least eigenvalue -8.000e-01)"),
    ],
)
def test_a_problem_not_positive_on_the_circle_is_refused_before_any_band(
    capsys, monkeypatch, tmp_path, case, message
):
    # a root on the unit circle (B = 0.7 or 0.6, A = 1) or A + B + B' < 0:
    # no band is built, where the truncation once divided by log 1 or ran to
    # its order cap
    paths = {
        "unit_circle_p1": str(FIXTURES / "unit_circle_p1.json"),
        "p1_b06": _problem_file(tmp_path, "p1_b06", 1.0, 0.6),
        "p2_a_negative": _problem_file(tmp_path, "p2_a_negative", -np.eye(2), 0.1 * np.eye(2)),
    }
    built = []
    real = spectral.build_truncated
    monkeypatch.setattr(spectral, "build_truncated", lambda *a: built.append(1) or real(*a))
    for argv in (["spectrum", "--method", "trunc"], ["spectrum", "--method", "connect"],
                 ["eigenfunction"]):
        code, out = run_cli(capsys, [argv[0], paths[case], *argv[1:]])
        assert code == 4
        err = _strict_json(out)["error"]
        assert err["class"] == "PositivityError" and message in err["message"]
    assert built == []


@pytest.mark.parametrize(
    "a,b,message",
    [
        (-np.eye(2), 0.1 * np.eye(2),
         "A + B + B' is not positive definite (least eigenvalue -8.000e-01)"),
        (np.eye(2), np.diag([0.7, 0.1]), "sits on the unit circle"),
    ],
    ids=["a-plus-b-negative", "unimodular-root"],
)
def test_standardize_refuses_a_problem_not_positive_on_the_circle(capsys, tmp_path, a, b, message):
    code, out = run_cli(capsys, ["standardize", _problem_file(tmp_path, "p2", a, b)])
    assert code == 4
    err = _strict_json(out)["error"]
    assert err["class"] == "PositivityError" and message in err["message"]


def test_a_jordan_root_on_the_circle_is_a_positivity_error_for_every_solver(capsys):
    # p = 2, A = I, B = diag(0.5, 0.1): the root -1 is a Jordan double root, so
    # M(pi) is singular with M >= 0.  The solvers that need positivity refuse
    # it by the rule before they decompose; verify-pencil and fuchsian do not
    # need it and refuse the pole of order 2
    path = str(FIXTURES / "jordan_circle_p2.json")
    positivity = json.dumps({"error": {"type": "solver", "class": "PositivityError",
                                       "message": "pencil pole (-1+0j) sits on the unit circle"}})
    double_pole = json.dumps({"error": {"type": "solver", "class": "SimplePoleViolation", "message":
        "2 pencil eigenvalues at (-1.0000000000000002+0j) but ker Q(alpha) has dimension 1; "
        "the reduction assumes order-1 poles"}})
    for argv, expected in (
        (["standardize"], positivity),
        (["heun-params", "--lambda", "0.5"], positivity),
        (["spectrum", "--method", "connect"], positivity),
        (["verify-pencil"], double_pole),
        (["fuchsian", "--lambda", "0.5"], double_pole),
    ):
        assert run_cli(capsys, [argv[0], path, *argv[1:]]) == (4, expected + "\n"), argv


def test_heun_params_standardizes_exactly_when_the_problem_is_not_in_standard_form(
    capsys, monkeypatch, tmp_path
):
    calls = []
    real = cli.standardize_p2
    monkeypatch.setattr(cli, "standardize_p2", lambda prob: calls.append(1) or real(prob))
    std, _ = real(parse_problem(str(FIXTURES / "classical_eta01_mu15.json"))[0])
    path = tmp_path / "standard.json"
    path.write_text(json.dumps(cli._serial_problem(std)))

    code, out = run_cli(capsys, ["heun-params", str(path), "--lambda", "3"])
    assert code == 0 and calls == []
    payload = json.loads(out)
    params = heun_like_parameters(std, 3.0)
    assert payload["standardized"] is False
    assert payload["n_singularities"] == params.n_singularities
    for key in ("alpha", "kappa0", "kappa1", "q1"):
        assert payload[key] == [getattr(params, key).real, getattr(params, key).imag]

    # the overflow is reported as it is, with no standardization first
    code, out = run_cli(capsys, ["heun-params", str(path), "--lambda", "1e155"])
    assert (code, calls) == (3, [])
    assert out == json.dumps({"error": {"type": "contract", "message":
        "the Heun parameters overflow at lambda = 1e+155; take a smaller lambda"}}) + "\n"

    # standard form but for a complex b1 on the b2 = 0 branch: standardized
    complex_b1 = _problem_file(tmp_path, "complex_b1", np.eye(2), np.diag([0.2j, 0.0]))
    code, out = run_cli(capsys, ["heun-params", complex_b1, "--lambda", "0.3"])
    assert code == 0 and calls == [1]
    assert json.loads(out)["standardized"] is True


def test_every_command_on_every_fixture_exits_with_a_code_and_parseable_output(capsys):
    # under warnings-as-errors: no exception and no warning leaves main
    start = time.perf_counter()
    for path in sorted(FIXTURES.glob("*.json")):
        for argv in _EVERY_COMMAND:
            code, out = run_cli(capsys, [argv[0], str(path), *argv[1:]])
            assert code in (0, 2, 3, 4), (path.name, argv)
            if code == 0 and argv[0] == "eigenfunction":
                header, *rows = out.splitlines()
                assert header.startswith("t,") and rows
                assert all(len([float(x) for x in row.split(",")]) == header.count(",") + 1
                           for row in rows)
            else:
                payload = _strict_json(out)
                assert (code == 0) == ("error" not in payload), (path.name, argv)
    assert time.perf_counter() - start < 3.0
