"""Self-tests of the benchmark: a smoke pass over every workload, one case
per output check showing it rejects a corrupted output, and the agreement
of BENCHMARK.json with the metrics the benchmark reports.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import inputs
import run
import tracing

CLI = run.load_cli()
REFS = json.loads(run.REFS.read_text())
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Ops and problem files of every workload, seed 0."""
    out = {}
    for workload in inputs.WORKLOADS:
        workdir = tmp_path_factory.mktemp(workload)
        out[workload] = inputs.build(workload, 0, workdir)
    return out


def _op(built, workload, label):
    ops, nodes = built[workload]
    return next(op for op in ops if op.label == label), nodes


def _output(op):
    _, code, out = run.run_op(CLI, op)
    assert code == 0, out
    return out


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_pass(built, workload):
    ops, nodes = built[workload]
    tally = run.Tally(ops, REFS, nodes)
    tally.record(run.execute(CLI, ops)[0])
    assert tally.attempted == len(ops)
    assert tally.unexpected == 0, tally.failures
    for failure in tally.failures.values():
        assert failure["known_defect"], failure


@pytest.mark.parametrize("workload", ["trunc_stress", "cli_small"])
def test_inputs_follow_the_seed(tmp_path, workload):
    def files(seed, name):
        workdir = tmp_path / name
        workdir.mkdir()
        ops, _ = inputs.build(workload, seed, workdir)
        argv = [[a.replace(str(workdir), "") for a in op.argv] for op in ops]
        return argv, {p.name: p.read_text() for p in sorted(workdir.iterdir())}

    argv, first = files(3, "a")
    assert files(3, "b") == (argv, first)
    other_argv, other = files(4, "c")
    assert other.keys() == first.keys() and other != first


def _rejects(op, code, out, nodes):
    reason = checks.check(op, code, out, REFS, nodes)
    assert reason is not None
    return reason


def test_spectrum_rejects_perturbed_eigenvalue(built):
    op, nodes = _op(built, "connect_refine", "connect bg=1.5")
    payload = json.loads(_output(op))
    assert checks.check(op, 0, json.dumps(payload), REFS, nodes) is None
    payload["connection"]["eigenvalues"][2] += 1e-12  # round-off passes
    assert checks.check(op, 0, json.dumps(payload), REFS, nodes) is None
    payload["connection"]["eigenvalues"][2] += 1e-6
    assert "off the reference" in _rejects(op, 0, json.dumps(payload), nodes)


def test_wrong_exit_code_is_rejected_with_its_class(built):
    op, nodes = _op(built, "connect_refine", "connect bg=1.5")
    out = json.dumps({"error": {"type": "solver", "class": "RefinementError", "message": "x"}})
    assert _rejects(op, 4, out, nodes) == "exit 4 RefinementError"


def test_verify_rejects_missing_pass(built):
    op, nodes = _op(built, "cli_small", "verify-pencil p2#0")
    out = _output(op)
    assert out.count('"status": "PASS"') == 6
    assert checks.check(op, 0, out, REFS, nodes) is None
    assert "5 of 6" in _rejects(op, 0, out.replace('"PASS"', '"FAIL"', 1), nodes)


def test_positivity_rejects_uncertified(built):
    op, nodes = _op(built, "cli_small", "positivity p3#0")
    payload = json.loads(_output(op))
    assert checks.check(op, 0, json.dumps(payload), REFS, nodes) is None
    payload["certified"] = False
    _rejects(op, 0, json.dumps(payload), nodes)


def test_standardize_rejects_broken_round_trip(built):
    op, nodes = _op(built, "cli_small", "standardize p2#0")
    payload = json.loads(_output(op))
    assert checks.check(op, 0, json.dumps(payload), REFS, nodes) is None
    step = next(st for st in payload["transcript"] if st["kind"] == "normalize")
    step["s"][0][0][0] += 1e-6
    assert "transcript" in _rejects(op, 0, json.dumps(payload), nodes)


def test_fuchsian_rejects_bad_sum_rule(built):
    op, nodes = _op(built, "cli_small", "fuchsian p3#0")
    payload = json.loads(_output(op))
    assert checks.check(op, 0, json.dumps(payload), REFS, nodes) is None
    payload["sum_rule_residual"] = 1e-3
    _rejects(op, 0, json.dumps(payload), nodes)


def test_heun_rejects_broken_fuchs_relation(built):
    op, nodes = _op(built, "cli_small", "heun-params classical_eta0")
    payload = json.loads(_output(op))
    assert checks.check(op, 0, json.dumps(payload), REFS, nodes) is None
    payload["fuchs_sum"][0] += 1e-3
    _rejects(op, 0, json.dumps(payload), nodes)


def test_eigenfunction_rejects_perturbed_profile(built):
    op, nodes = _op(built, "profile_sweep", "eigenfunction bg=1.02 index=0")
    out = _output(op)
    assert checks.check(op, 0, out, REFS, nodes) is None
    lines = out.splitlines()
    row = lines[200].split(",")
    row[1] = repr(float(row[1]) + 1e-4)
    lines[200] = ",".join(row)
    assert "profile" in _rejects(op, 0, "\n".join(lines) + "\n", nodes)


def test_confluence_rejects_non_decreasing_deviations(built):
    op, nodes = _op(built, "profile_sweep", "confluence")
    out = _output(op)
    assert checks.check(op, 0, out, REFS, nodes) is None
    lines = out.splitlines()
    mu, dev = lines[-1].split(",")
    lines[-1] = f"{mu},{float(lines[-2].split(',')[1]) * 2}"
    assert "decrease" in _rejects(op, 0, "\n".join(lines) + "\n", nodes)


def test_uncaught_exception_counts_as_failed_with_its_class(built):
    op, nodes = _op(built, "cli_small", "fuchsian p1#0")
    tally = run.Tally([op], REFS, nodes)
    tally.record([(0.0, TypeError("boom"), "")])
    assert tally.failed == 1 and tally.unexpected == 1
    assert tally.failures[op.label]["reason"].startswith("raised TypeError")


def test_known_defect_failure_keeps_the_run_correct(built):
    op, nodes = _op(built, "cli_small", "heun-params p2#0")
    assert op.known_defect == inputs.HEUN_B2
    tally = run.Tally([op], REFS, nodes)
    tally.record(run.execute(CLI, [op])[0])
    assert tally.failed == 1 and tally.unexpected == 0


def test_tracer_sees_every_binding_and_restores_them(built):
    import nchodisk.fuchsian
    import nchodisk.spectral

    original = nchodisk.spectral.build_fuchsian
    op, _ = _op(built, "connect_refine", "connect bg=1.5")
    with tracing.Tracer() as tracer:
        assert nchodisk.spectral.build_fuchsian is not original
        assert nchodisk.fuchsian.build_fuchsian is nchodisk.spectral.build_fuchsian
        run.execute(CLI, [op])
    assert nchodisk.spectral.build_fuchsian is original
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["fuchsian.build_calls"] > 0
    assert metrics["spectral.decompose_per_t_eval"] > 1.0
    assert metrics["spectral.refine_calls"] == 5
    roots = [s for s in tracer.spans if s[tracing.PARENT] < 0]
    assert [s[tracing.NAME] for s in roots] == ["cli.main"]


def test_benchmark_json_matches_the_reported_metrics():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(inputs.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == inputs.WHY[w["name"]] and len(w["why"]) <= 200
    for kind in ("end_to_end", "per_layer"):
        keys = ("name", "unit", "better", "bound") if kind == "end_to_end" else ("name", "unit", "better")
        assert BENCHMARK[kind] == [{k: m[k] for k in keys} for m in run.METRICS[kind]]
    reported = list(tracing.layer_metrics([])) + ["trace.overhead_s"]
    assert reported == [m["name"] for m in BENCHMARK["per_layer"]]
    tally = run.Tally([], REFS, {})
    tally.attempted = 1
    passes = run.Passes()
    passes.scaled = [[0.1]]
    values, _ = run.end_to_end(passes, [0.5], tally)
    assert list(values) == [m["name"] for m in BENCHMARK["end_to_end"]]
    workloads = set(inputs.WORKLOADS)
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in run.METRICS["per_layer"]:
        for side in ("moves", "steady"):
            assert set(m[side]) <= workloads
            assert all(set(names) <= e2e for names in m[side].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_end_to_end_values():
    tally = run.Tally([], REFS, {})
    tally.attempted, tally.failed = 4, 1
    passes = run.Passes()
    passes.scaled = [[0.1, 0.2], [0.3, 0.4]]
    values, samples = run.end_to_end(passes, [0.5, 0.7, 0.6], tally)
    assert values["passed_frac"] == 0.75 and values["setup_s"] == 0.6
    assert np.isclose(values["wall_s"], 0.5) and samples["wall_s"] == 2
    assert np.isclose(values["call_p50_ms"], 250.0)


def test_scaled_times_follow_the_speed_slices(built):
    op, _ = _op(built, "connect_refine", "connect bg=1.5")
    results, scaled = run.execute(CLI, [op])
    speed = results[0][0] / scaled[0]
    assert 0.2 < speed < 5.0  # slices at this moment against the reference slice
