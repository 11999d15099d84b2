"""Output checks for benchmark ops.

``check(op, code, out, refs, nodes)`` returns None when the output of one
``nchodisk.cli.main`` call is correct and a one-line reason otherwise.  The
checks run outside the timed region.  Tolerances sit far above round-off,
so a kernel change that moves only the last bits still passes.
"""

from __future__ import annotations

import io
import json

import numpy as np

EIG_TOL = 1e-8  # |lambda - ref| / max(1, |ref|)
CROSS_TOL = 1e-6  # connection route against the truncation reference
PROFILE_TOL = 1e-7  # eigenfunction norm against the reference, relative to its max
RESIDUAL_TOL = 1e-8  # structural residuals reported by the program
ROUND_TRIP_TOL = 1e-9


def _max_rel(vals, ref) -> float:
    vals, ref = np.asarray(vals, dtype=float), np.asarray(ref, dtype=float)
    if vals.shape != ref.shape:
        return float("inf")
    return float(np.max(np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))))


def _json(out: str):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def _spectrum(op, payload, refs, nodes):
    ref = refs[op.ref]
    count = int(op.argv[op.argv.index("--count") + 1])
    method = op.argv[op.argv.index("--method") + 1]
    routes = {"trunc": ["truncation"], "connect": ["connection"], "both": ["truncation", "connection"]}
    if payload.get("method") != method or payload.get("count") != count:
        return "method or count not echoed"
    for route in routes[method]:
        if route not in payload:
            return f"missing {route} block"
        vals = payload[route]["eigenvalues"]
        if len(vals) != count:
            return f"{route}: {len(vals)} eigenvalues, expected {count}"
        expect, tol = (ref[route], EIG_TOL) if route in ref else (ref["truncation"], CROSS_TOL)
        err = _max_rel(vals, expect[:count])
        if not err <= tol:
            return f"{route} eigenvalues off the reference by {err:.3e}"
    return None


def _eigenfunction(op, out, refs, nodes):
    p = nodes[op.argv[1]]["p"]
    samples = int(op.argv[op.argv.index("--samples") + 1])
    lines = out.splitlines()
    header = ["t"] + [f"{part}_{j}" for j in range(p) for part in ("re", "im")]
    if not lines or lines[0] != ",".join(header):
        return "bad CSV header"
    try:
        table = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return f"bad CSV body: {exc}"
    if table.shape != (samples, 1 + 2 * p):
        return f"CSV shape {table.shape}, expected {(samples, 1 + 2 * p)}"
    tmax = 8.0
    if not np.allclose(table[:, 0], np.linspace(tmax / samples, tmax, samples), rtol=0, atol=1e-12):
        return "t grid differs from the requested one"
    norms = np.sqrt(np.sum(table[:, 1:] ** 2, axis=1))
    ref = np.asarray(refs[op.ref])
    err = float(np.max(np.abs(norms - ref))) / float(np.max(ref))
    if not err <= PROFILE_TOL:
        return f"profile norm off the reference by {err:.3e}"
    return None


def _confluence(op, out, refs, nodes):
    lines = out.splitlines()
    if not lines or lines[0] != "mu,max_abs_deviation":
        return "bad CSV header"
    rows = [line.split(",") for line in lines[1:]]
    try:
        mus = [float(r[0]) for r in rows]
        devs = [float(r[1]) for r in rows]
    except (ValueError, IndexError) as exc:
        return f"bad CSV body: {exc}"
    expect_mu = [float(x) for x in op.argv[op.argv.index("--mu-list") + 1].split(",")]
    if mus != expect_mu:
        return "mu column differs from --mu-list"
    if not all(d > 0 for d in devs) or not all(b < a for a, b in zip(devs, devs[1:])):
        return "deviations do not decrease as mu grows"
    err = _max_rel(devs, refs[op.ref])
    if not err <= EIG_TOL:
        return f"deviations off the reference by {err:.3e}"
    return None


def _verify(op, payload, refs, nodes):
    checks = payload.get("checks", [])
    passes = sum(1 for c in checks if c.get("status") == "PASS")
    if passes != 6 or len(checks) != 6 or payload.get("all_passed") is not True:
        return f"{passes} of {len(checks)} identities PASS, expected 6 of 6"
    return None


def _positivity(op, payload, refs, nodes):
    if payload.get("grid_size") != op.info["grid"]:
        return "grid size not echoed"
    if payload.get("certified") is not True:
        return "admissible problem not certified"
    margin = payload["margin"]
    if not (margin > 0 and margin >= op.info["margin"] * (1.0 - ROUND_TRIP_TOL)):
        return f"grid margin {margin:.3e} below the construction margin"
    if not abs(payload["certified_margin"] - (margin - payload["lipschitz_bound"])) <= 1e-12:
        return "certified margin is not grid margin minus Lipschitz bound"
    return None


def _problem_gap(a, b) -> float:
    pairs = [(a.A, b.A), (a.B, b.B), (a.C0, b.C0), (a.lam_coeff, b.lam_coeff)]
    scale = max(1.0, *(float(np.max(np.abs(x))) for x, _ in pairs))
    return max(float(np.max(np.abs(x - y))) for x, y in pairs) / scale


def _standardize(op, payload, refs, nodes):
    from nchodisk.cli import parse_problem
    from nchodisk.covariance import apply_transcript, inverse_transcript

    original, _ = parse_problem(nodes[op.argv[1]])
    std, _ = parse_problem(payload["problem"])
    transcript = payload["transcript"]
    if float(np.max(np.abs(std.A - np.eye(2)))) > ROUND_TRIP_TOL:
        return "standard form does not have A = I"
    if float(np.max(np.abs(std.B[1]))) > ROUND_TRIP_TOL:
        return "standard form does not have a zero bottom row in B"
    forward = _problem_gap(apply_transcript(original, transcript), std)
    if not forward <= ROUND_TRIP_TOL:
        return f"apply_transcript(input) differs from the output by {forward:.3e}"
    back = _problem_gap(apply_transcript(std, inverse_transcript(transcript)), original)
    if not back <= ROUND_TRIP_TOL:
        return f"inverse transcript misses the input by {back:.3e}"
    return None


def _fuchsian(op, payload, refs, nodes):
    if payload.get("lambda") != op.info["lambda"]:
        return "lambda not echoed"
    n = len(payload["singular_points"])
    if n == 0 or len(payload["residues"]) != n or len(payload["exponents"]) != n:
        return "singular points, residues and exponents disagree in number"
    for key in ("sum_rule_residual", "infinity_formula_residual"):
        if not payload[key] <= RESIDUAL_TOL:
            return f"{key} = {payload[key]:.3e}"
    if not all(e["rank_bound_ok"] for e in payload["exponents"]):
        return "rank bound fails at a singular point"
    return None


def _heun(op, payload, refs, nodes):
    if payload.get("lambda") != [op.info["lambda"], 0.0]:
        return "lambda not echoed"
    n = payload.get("n_singularities")
    if n not in (4, 5) or len(payload["scheme"]) != n:
        return f"unexpected singularity count {n}"
    if not abs(complex(*payload["fuchs_sum"]) - (n - 2)) <= RESIDUAL_TOL:
        return f"Fuchs relation fails: exponent sum {payload['fuchs_sum']}"
    if not abs(complex(*payload["alpha"])) < 1.0:
        return "inner singular point outside the unit disk"
    return None


_JSON_CHECKS = {
    "spectrum": _spectrum,
    "verify": _verify,
    "positivity": _positivity,
    "standardize": _standardize,
    "fuchsian": _fuchsian,
    "heun": _heun,
}
_TEXT_CHECKS = {"eigenfunction": _eigenfunction, "confluence": _confluence}


def error_class(out: str) -> str:
    """Exception class (or error type) named by a non-zero exit's JSON."""
    payload, _ = _json(out)
    err = payload.get("error", {}) if isinstance(payload, dict) else {}
    return err.get("class") or err.get("type") or "unknown"


def check(op, code, out: str, refs: dict, nodes: dict) -> str | None:
    if code != 0:
        return f"exit {code} {error_class(out)}"
    if op.kind in _TEXT_CHECKS:
        return _TEXT_CHECKS[op.kind](op, out, refs, nodes)
    payload, problem = _json(out)
    if problem:
        return problem
    try:
        return _JSON_CHECKS[op.kind](op, payload, refs, nodes)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed {op.kind} output: {type(exc).__name__}: {exc}"
