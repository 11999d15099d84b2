"""Command line interface: problem-file ingestion, subcommand dispatch,
and machine-readable JSON/CSV output.

Exit codes: 0 ok, 2 schema error, 3 contract violation, 4 solver error.
Complex numbers are serialized as [re, im] pairs throughout.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys

import numpy as np

from .covariance import _c_pair, _matrix_pairs, is_infinity, standardize_p2
from .covariance import _standard_form_violation
from .errors import ContractViolation, SchemaError, SolverError
from .fuchsian import build_fuchsian, exponents_at, residue_at_infinity_formula
from .heun import RabiParameters, heun_like_parameters
from .pencil import (
    NchoProblem,
    ab_from_a123,
    _check_tol,
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

_CONNECT_SEED_TOL = 1e-9  # seed tolerance of --method connect, which does not print the seeds
_MAX_SAMPLES = 100_000  # eigenfunction --samples cap: the CSV holds one row per sample
_NON_FINITE = "the result holds a non-finite number, which the output cannot carry"


def _point(z):
    return "infinity" if is_infinity(z) else _c_pair(z)


def _require(cond, message, path):
    if not cond:
        raise SchemaError(message, path=path)


def _is_int(x) -> bool:
    # JSON true and false are not numbers, though Python's bool is an int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _parse_matrix(node, p: int, path: str) -> np.ndarray:
    _require(isinstance(node, list) and len(node) == p, f"expected {p} rows", path)
    out = np.empty((p, p), dtype=complex)
    for i, row in enumerate(node):
        _require(isinstance(row, list) and len(row) == p, f"expected {p} entries", f"{path}[{i}]")
        for j, v in enumerate(row):
            _require(
                isinstance(v, list) and len(v) == 2 and all(_is_number(x) for x in v),
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
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"cannot read problem file: {exc}", path=str(source))
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SchemaError(f"invalid JSON: {exc}", path=str(source))
    _require(isinstance(data, dict), "problem file must hold a JSON object", "$")

    _require("p" in data, "missing field", "$.p")
    p = data["p"]
    _require(_is_int(p) and p >= 1, "p must be a positive integer", "$.p")

    _require("mu" in data, "missing field", "$.mu")
    mu_node = data["mu"]
    if isinstance(mu_node, dict):
        _require(
            set(mu_node) == {"n", "k"} and all(_is_int(mu_node[x]) for x in ("n", "k")),
            "mu object must be {n, k} with integers",
            "$.mu",
        )
        mu = mu_from_harmonic(mu_node["n"], mu_node["k"])
    else:
        _require(_is_number(mu_node) and mu_node > 0, "mu must be positive", "$.mu")
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
            _require(
                _is_number(data[key]) and math.isfinite(data[key]),
                "must be a finite number",
                f"$.{key}",
            )
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


def _cmd_verify_pencil(args, problem, extras):
    dec = problem.analysis.decomposition
    report = verify_pencil_identities(problem, tol=args.tol, seed=args.seed)
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
        "det_b_zero": dec.zero_is_pole,
        "zero_is_pole": dec.zero_is_pole,
        "reconstruction_residual": report.reconstruction_residual,
    }


def _cmd_positivity(args, problem, extras):
    cert = positivity_margin(problem, grid_size=args.grid_size)
    return {**dataclasses.asdict(cert), "certified": cert.certified}


def _cmd_standardize(args, problem, extras):
    std, transcript = standardize_p2(problem)
    return {"problem": _serial_problem(std), "transcript": transcript}


def _cmd_fuchsian(args, problem, extras):
    lam = _resolve_lambda(args, extras)
    system = build_fuchsian(problem, lam)
    formula = residue_at_infinity_formula(system)
    exps = []
    for j, al in enumerate(system.singular_points):
        e = dataclasses.asdict(exponents_at(system, j))
        exps.append({**e, "point": _c_pair(al), "values": [_c_pair(v) for v in e["values"]]})
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


def _cmd_heun_params(args, problem, extras):
    lam = _resolve_lambda(args, extras)
    standardized = _standard_form_violation(problem) is not None
    if standardized:
        problem, _ = standardize_p2(problem)
    params = heun_like_parameters(problem, lam)
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


def _cmd_spectrum(args, problem, extras):
    tol = args.tol if args.tol is not None else float(extras.get("tol", 1e-10))
    _check_tol(tol)
    seed_tol = _CONNECT_SEED_TOL if args.method == "connect" else tol
    seeds = spectrum_truncated(problem, args.count, tol=seed_tol)
    out = {"count": args.count, "method": args.method}
    if args.method in ("trunc", "both"):
        out["truncation"] = {
            "eigenvalues": [float(v) for v in seeds.eigenvalues],
            "convergence": [float(v) for v in seeds.convergence],
            "orders": list(seeds.orders),
        }
    if args.method in ("connect", "both"):
        res = spectrum_connection(problem, seeds, tol=tol)
        out["connection"] = {
            "eigenvalues": [float(v) for v in res.eigenvalues],
            "residuals": [float(v) for v in res.convergence],
        }
    if args.method == "both":
        pairs = zip(out["truncation"]["eigenvalues"], out["connection"]["eigenvalues"])
        out["agreement"] = [abs(a - b) for a, b in pairs]
        out["max_disagreement"] = max(out["agreement"])
    return out


def _cmd_eigenfunction(args, problem, extras):
    tol = float(extras.get("tol", 1e-10))
    if not 1 <= args.samples <= _MAX_SAMPLES:
        raise ContractViolation(f"samples must be from 1 to {_MAX_SAMPLES}")
    if args.index < 0:
        raise ContractViolation(f"index must be at least 0 (got {args.index})")
    seeds = spectrum_truncated(problem, args.index + 1, tol=tol)
    t_grid = np.linspace(args.tmax / args.samples, args.tmax, args.samples)
    profile = eigenfunction_profile(problem, seeds, args.index, t_grid)
    header = ["t"] + [f"{part}_{j}" for j in range(problem.p) for part in ("re", "im")]
    # values is C-contiguous complex: its float view interleaves re and im
    return _csv(header, np.column_stack([profile.t, profile.values.view(float)]))


def _cmd_confluence(args):
    try:
        mu_list = [float(x) for x in args.mu_list.split(",") if x.strip()]
    except ValueError as exc:
        raise SchemaError(f"--mu-list holds a non-number: {exc}", "$.mu_list")
    if not mu_list:
        raise SchemaError("empty --mu-list", "$.mu_list")
    rabi = RabiParameters(
        omega=args.omega, g_coupling=args.coupling, Delta=args.delta, eps_bias=args.bias
    )
    sweep = confluence_sweep(rabi, mu_list, count=args.count)
    return _csv(["mu", "max_abs_deviation"], list(zip(sweep.mu_values, sweep.deviations)))


def _csv(header, rows) -> str:
    table = np.asarray(rows, dtype=float)
    if not np.isfinite(table).all():
        raise ContractViolation(_NON_FINITE)
    # tolist gives Python floats, whose repr is the shortest round trip
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def _finite_float(text: str) -> float:
    """argparse type of every float option: nan and infinities are refused
    like any other non-number (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer, as the random
    generator takes (exit 2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _join_negative_values(argv) -> list[str]:
    """argv with each negative number after a long option joined to it, as
    --tol=-1e-3: argparse before Python 3.13 reads -1e-3 as an option."""
    out = []
    for token in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-\.?\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every main call in the process, built on the first.
    parse_args leaves it unchanged and returns a fresh Namespace."""
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
        sp.set_defaults(handler=fn, csv=csv, problem=None)
        return sp

    sp = add("verify-pencil", _cmd_verify_pencil)
    sp.add_argument("--tol", type=_finite_float, default=1e-9)
    sp.add_argument("--seed", type=_seed, default=None)

    sp = add("positivity", _cmd_positivity)
    sp.add_argument("--grid-size", type=int, default=256)

    add("standardize", _cmd_standardize)

    sp = add("fuchsian", _cmd_fuchsian)
    sp.add_argument("--lambda", dest="lam", type=_finite_float, default=None)

    sp = add("heun-params", _cmd_heun_params)
    sp.add_argument("--lambda", dest="lam", type=_finite_float, default=None)

    sp = add("spectrum", _cmd_spectrum)
    sp.add_argument("--method", choices=["trunc", "connect", "both"], default="trunc")
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--tol", type=_finite_float, default=None)

    sp = add("eigenfunction", _cmd_eigenfunction, csv=True)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--tmax", type=_finite_float, default=8.0)
    sp.add_argument("--samples", type=int, default=81)

    sp = add("confluence", _cmd_confluence, needs_problem=False, csv=True)
    sp.add_argument("--omega", type=_finite_float, default=1.0)
    sp.add_argument("--coupling", type=_finite_float, required=True)
    sp.add_argument("--delta", type=_finite_float, default=0.0)
    sp.add_argument("--bias", type=_finite_float, default=0.0)
    sp.add_argument("--mu-list", required=True)
    sp.add_argument("--count", type=int, default=5)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_negative_values(argv))
    try:
        if args.problem is not None:
            payload = args.handler(args, *parse_problem(args.problem))
        else:
            payload = args.handler(args)
        if not args.csv:
            try:
                payload = json.dumps(
                    payload, indent=args.json_indent, sort_keys=True, allow_nan=False
                )
            except ValueError:
                raise ContractViolation(_NON_FINITE) from None
            payload += "\n"
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            except OSError as exc:
                raise SchemaError(f"cannot write output file: {exc}", path="$.out") from None
        else:
            sys.stdout.write(payload)
        return 0
    except SchemaError as exc:
        code, error = 2, {"type": "schema", "path": exc.path, "message": str(exc)}
    except ContractViolation as exc:
        code, error = 3, {"type": "contract", "message": str(exc)}
    except SolverError as exc:
        code, error = 4, {"type": "solver", "class": type(exc).__name__, "message": str(exc)}
    # no sort_keys: each error keeps the key order above
    sys.stdout.write(json.dumps({"error": error}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
