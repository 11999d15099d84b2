"""Command line interface: problem-file ingestion, subcommand dispatch,
and machine-readable JSON/CSV output.

Exit codes: 0 ok, 2 schema error, 3 contract violation, 4 solver error.
Complex numbers are serialized as [re, im] pairs throughout.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .covariance import _c_pair, _matrix_pairs, is_infinity, standardize_p2
from .errors import ContractViolation, SchemaError, SolverError
from .fuchsian import build_fuchsian, exponents_at, residue_at_infinity_formula
from .heun import RabiParameters, heun_like_parameters
from .pencil import (
    NchoProblem,
    ab_from_a123,
    decompose_pencil,
    mu_from_harmonic,
    positivity_margin,
    verify_pencil_identities,
)
from .spectral import (
    confluence_sweep,
    eigenfunction_profile,
    spectrum_connection,
    spectrum_truncated,
)

__all__ = ["parse_problem", "main"]


def _point(z):
    return "infinity" if is_infinity(z) else _c_pair(z)


def _require(cond, message, path):
    if not cond:
        raise SchemaError(message, path=path)


def _parse_matrix(node, p: int, path: str) -> np.ndarray:
    _require(isinstance(node, list) and len(node) == p, f"expected {p} rows", path)
    out = np.empty((p, p), dtype=complex)
    for i, row in enumerate(node):
        _require(isinstance(row, list) and len(row) == p, f"expected {p} entries", f"{path}[{i}]")
        for j, v in enumerate(row):
            _require(
                isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v),
                "expected an [re, im] pair",
                f"{path}[{i}][{j}]",
            )
            out[i, j] = complex(v[0], v[1])
    return out


def parse_problem(source) -> tuple[NchoProblem, dict]:
    """Validated problem from a JSON file path, '-' (stdin), or a dict.

    Returns (problem, extras) where extras holds the optional lambda / M /
    tol overrides present in the file."""
    if isinstance(source, dict):
        data = source
    else:
        try:
            if source == "-":
                text = sys.stdin.read()
            else:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read problem file: {exc}", path=str(source))
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", path=str(source))
    _require(isinstance(data, dict), "problem file must hold a JSON object", "$")

    _require("p" in data, "missing field", "$.p")
    p = data["p"]
    _require(isinstance(p, int) and p >= 1, "p must be a positive integer", "$.p")

    _require("mu" in data, "missing field", "$.mu")
    mu_node = data["mu"]
    if isinstance(mu_node, dict):
        _require(
            set(mu_node) == {"n", "k"} and all(isinstance(mu_node[x], int) for x in ("n", "k")),
            "mu object must be {n, k} with integers",
            "$.mu",
        )
        mu = mu_from_harmonic(mu_node["n"], mu_node["k"])
    else:
        _require(isinstance(mu_node, (int, float)) and mu_node > 0, "mu must be positive", "$.mu")
        mu = float(mu_node)

    has_ab = "A" in data and "B" in data
    has_a123 = "a123" in data
    _require(
        has_ab != has_a123,
        "provide exactly one of (A, B) or a123",
        "$.A" if not (has_ab or has_a123) else "$",
    )
    if has_ab:
        a = _parse_matrix(data["A"], p, "$.A")
        b = _parse_matrix(data["B"], p, "$.B")
    else:
        node = data["a123"]
        _require(isinstance(node, dict), "a123 must be an object", "$.a123")
        for key in ("A1", "A2", "A3"):
            _require(key in node, "missing field", f"$.a123.{key}")
        a, b = ab_from_a123(
            _parse_matrix(node["A1"], p, "$.a123.A1"),
            _parse_matrix(node["A2"], p, "$.a123.A2"),
            _parse_matrix(node["A3"], p, "$.a123.A3"),
        )
    _require("C0" in data, "missing field", "$.C0")
    c0 = _parse_matrix(data["C0"], p, "$.C0")
    lam_coeff = _parse_matrix(data["lam_coeff"], p, "$.lam_coeff") if "lam_coeff" in data else None

    problem = NchoProblem(p=p, mu=mu, A=a, B=b, C0=c0, lam_coeff=lam_coeff)
    extras = {}
    for key in ("lambda", "M", "tol"):
        if key in data:
            _require(isinstance(data[key], (int, float)), "must be a number", f"$.{key}")
            extras[key] = data[key]
    return problem, extras


def _serial_problem(problem: NchoProblem) -> dict:
    return {
        "p": problem.p,
        "mu": problem.mu,
        "A": _matrix_pairs(problem.A),
        "B": _matrix_pairs(problem.B),
        "C0": _matrix_pairs(problem.C0),
        "lam_coeff": _matrix_pairs(problem.lam_coeff),
    }


def _resolve_lambda(args, extras) -> float:
    if args.lam is not None:
        return args.lam
    if "lambda" in extras:
        return float(extras["lambda"])
    raise SchemaError("spectral value required: pass --lambda or set it in the problem file", "$")


def _cmd_verify_pencil(args):
    problem, _ = parse_problem(args.problem)
    dec = decompose_pencil(problem, seed=args.seed)
    report = verify_pencil_identities(dec, problem, tol=args.tol)
    return {
        "checks": [
            {
                "name": c.name,
                "applicable": c.applicable,
                "status": "PASS" if c.passed else "FAIL",
                "residual": c.residual,
            }
            for c in report.checks
        ],
        "all_passed": report.all_passed,
        "poles": [_c_pair(al) for al in dec.poles],
        "det_b_zero": dec.detb_zero,
        "zero_is_pole": dec.zero_is_pole,
        "reconstruction_residual": dec.reconstruction_residual,
    }


def _cmd_positivity(args):
    problem, _ = parse_problem(args.problem)
    cert = positivity_margin(problem, grid_size=args.grid_size)
    return {
        "margin": cert.margin,
        "argmin_phi": cert.argmin_phi,
        "lipschitz_bound": cert.lipschitz_bound,
        "certified_margin": cert.certified_margin,
        "certified": cert.certified,
        "grid_size": cert.grid_size,
    }


def _cmd_standardize(args):
    problem, _ = parse_problem(args.problem)
    std, transcript = standardize_p2(problem)
    return {"problem": _serial_problem(std), "transcript": transcript}


def _cmd_fuchsian(args):
    problem, extras = parse_problem(args.problem)
    lam = _resolve_lambda(args, extras)
    system = build_fuchsian(problem, lam)
    formula = residue_at_infinity_formula(system)
    exps = []
    for j, al in enumerate(system.singular_points):
        e = exponents_at(system, j)
        exps.append(
            {
                "point": _c_pair(al),
                "values": [_c_pair(v) for v in e.values],
                "residue_rank": e.residue_rank,
                "kernel_dim": e.kernel_dim,
                "rank_bound_ok": e.rank_bound_ok,
                "shift_residual": e.shift_residual,
            }
        )
    total = sum(system.residues) + system.residue_at_infinity
    return {
        "lambda": lam,
        "mu": system.mu,
        "singular_points": [_c_pair(al) for al in system.singular_points],
        "residues": [_matrix_pairs(r) for r in system.residues],
        "residue_at_infinity": _matrix_pairs(system.residue_at_infinity),
        "exponents": exps,
        "sum_rule_residual": float(np.max(np.abs(total))),
        "infinity_formula_residual": float(
            np.max(np.abs(system.residue_at_infinity - formula))
        ),
    }


def _cmd_heun_params(args):
    problem, extras = parse_problem(args.problem)
    lam = _resolve_lambda(args, extras)
    standardized = False
    try:
        params = heun_like_parameters(problem, lam)
    except ContractViolation:
        problem, _ = standardize_p2(problem)
        params = heun_like_parameters(problem, lam)
        standardized = True
    return {
        "standardized": standardized,
        "n_singularities": params.n_singularities,
        "coalescent": params.coalescent,
        "mu": params.mu,
        "lambda": _c_pair(params.lam),
        "alpha": _c_pair(params.alpha),
        "kappa0": _c_pair(params.kappa0),
        "kappa1": _c_pair(params.kappa1),
        "q1": _c_pair(params.q1),
        "epsilon": None if params.epsilon is None else _c_pair(params.epsilon),
        "q2": None if params.q2 is None else _c_pair(params.q2),
        "scheme": {k: [_c_pair(e) for e in v] for k, v in sorted(params.scheme.items())},
        "locations": {k: _point(v) for k, v in sorted(params.singular_locations.items())},
        "fuchs_sum": _c_pair(params.fuchs_sum()),
    }


def _cmd_spectrum(args):
    problem, extras = parse_problem(args.problem)
    tol = args.tol if args.tol is not None else float(extras.get("tol", 1e-10))
    out = {}
    seeds = None
    if args.method in ("trunc", "both"):
        seeds = spectrum_truncated(problem, args.count, tol=tol)
        out["truncation"] = {
            "eigenvalues": [float(v) for v in seeds.eigenvalues],
            "convergence": [float(v) for v in seeds.convergence],
            "orders": list(seeds.orders),
        }
    if args.method in ("connect", "both"):
        res = spectrum_connection(problem, args.count, tol=tol, seeds=seeds)
        out["connection"] = {
            "eigenvalues": [float(v) for v in res.eigenvalues],
            "residuals": [float(v) for v in res.convergence],
        }
    if args.method == "both":
        diffs = [
            abs(a - b)
            for a, b in zip(out["truncation"]["eigenvalues"], out["connection"]["eigenvalues"])
        ]
        out["agreement"] = diffs
        out["max_disagreement"] = max(diffs)
    out["count"] = args.count
    out["method"] = args.method
    return out


def _cmd_eigenfunction(args):
    problem, extras = parse_problem(args.problem)
    tol = float(extras.get("tol", 1e-10))
    seeds = spectrum_truncated(problem, args.index + 1, tol=tol)
    lam = float(seeds.eigenvalues[args.index])
    t_grid = np.linspace(args.tmax / args.samples, args.tmax, args.samples)
    profile = eigenfunction_profile(problem, lam, t_grid, tol=tol)
    header = ["t"]
    for j in range(problem.p):
        header += [f"re_{j}", f"im_{j}"]
    lines = [",".join(header)]
    for i, t in enumerate(profile.t):
        row = [repr(float(t))]
        for j in range(problem.p):
            row += [repr(float(profile.values[i, j].real)), repr(float(profile.values[i, j].imag))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _cmd_confluence(args):
    mu_list = [float(x) for x in args.mu_list.split(",") if x.strip()]
    if not mu_list:
        raise SchemaError("empty --mu-list", "$.mu_list")
    rabi = RabiParameters(
        omega=args.omega, g_coupling=args.coupling, Delta=args.delta, eps_bias=args.bias
    )
    sweep = confluence_sweep(rabi, mu_list, count=args.count)
    lines = ["mu,max_abs_deviation"]
    for mu, dev in zip(sweep.mu_values, sweep.deviations):
        lines.append(f"{repr(mu)},{repr(dev)}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nchodisk",
        description="Matrix oscillator problems on the unit disk: pencil checks, "
        "standardization, Heun-type reduction, and two-route spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_problem=True, csv=False):
        sp = sub.add_parser(name)
        if needs_problem:
            sp.add_argument("problem", help="problem JSON file, or - for stdin")
        sp.add_argument("--out", default=None, help="write output to a file instead of stdout")
        sp.add_argument("--json-indent", type=int, default=2)
        sp.set_defaults(handler=fn, csv=csv)
        return sp

    sp = add("verify-pencil", _cmd_verify_pencil)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--seed", type=int, default=None)

    sp = add("positivity", _cmd_positivity)
    sp.add_argument("--grid-size", type=int, default=256)

    add("standardize", _cmd_standardize)

    sp = add("fuchsian", _cmd_fuchsian)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)

    sp = add("heun-params", _cmd_heun_params)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)

    sp = add("spectrum", _cmd_spectrum)
    sp.add_argument("--method", choices=["trunc", "connect", "both"], default="trunc")
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--tol", type=float, default=None)

    sp = add("eigenfunction", _cmd_eigenfunction, csv=True)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--tmax", type=float, default=8.0)
    sp.add_argument("--samples", type=int, default=81)

    sp = add("confluence", _cmd_confluence, needs_problem=False, csv=True)
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("--coupling", type=float, required=True)
    sp.add_argument("--delta", type=float, default=0.0)
    sp.add_argument("--bias", type=float, default=0.0)
    sp.add_argument("--mu-list", required=True)
    sp.add_argument("--count", type=int, default=5)

    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
    except SchemaError as exc:
        _emit(
            json.dumps({"error": {"type": "schema", "path": exc.path, "message": str(exc)}})
            + "\n",
            None,
        )
        return 2
    except ContractViolation as exc:
        _emit(json.dumps({"error": {"type": "contract", "message": str(exc)}}) + "\n", None)
        return 3
    except SolverError as exc:
        _emit(
            json.dumps(
                {"error": {"type": "solver", "class": type(exc).__name__, "message": str(exc)}}
            )
            + "\n",
            None,
        )
        return 4
    if args.csv:
        _emit(payload, args.out)
    else:
        _emit(json.dumps(payload, indent=args.json_indent, sort_keys=True) + "\n", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
