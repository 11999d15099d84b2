"""Shared helpers: seeded random problem generators and independent
oracles used across the test modules."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from nchodisk import NchoProblem, SolverError, positivity_margin

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
# fixtures that parse but whose symbol B z + A + B' conj(z) is not positive
# on the unit circle: every solver refuses them with PositivityError
NOT_POSITIVE_FIXTURES = ("jordan_circle_p2", "unit_circle_p1")


def random_hermitian(rng, p, scale=1.0):
    w = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return scale * 0.5 * (w + w.conj().T)


def random_problem(rng, p, mu=None, min_pole_gap=0.05):
    """Random problem with positive circle margin and well-separated simple
    poles; resamples (deterministically) until both hold."""
    mu = float(mu) if mu is not None else float(rng.uniform(0.4, 2.5))
    for _ in range(200):
        a = np.eye(p) + 0.25 * random_hermitian(rng, p)
        amin = float(np.linalg.eigvalsh(a)[0])
        if amin <= 0.2:
            continue
        b = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        b *= 0.3 * amin / (2.0 * np.linalg.norm(b, 2))
        c0 = 0.4 * random_hermitian(rng, p)
        prob = NchoProblem(p=p, mu=mu, A=a, B=b, C0=c0)
        if positivity_margin(prob, 64).margin <= 0.05:
            continue
        try:
            dec = prob.decomposition
        except SolverError:
            continue
        poles = dec.poles
        gaps = [
            abs(poles[i] - poles[j])
            for i in range(len(poles))
            for j in range(i + 1, len(poles))
        ]
        if gaps and min(gaps) < min_pole_gap:
            continue
        return prob
    raise RuntimeError("random problem generation failed to satisfy constraints")


def scalar_closed_eigenvalue(a, b, c0, mu, m):
    """Exact eigenvalues of the scalar (p = 1) problem with real b < a/2:
    sqrt(a^2 - 4 b^2) (2m + mu) - 2 c0."""
    return math.sqrt(a * a - 4.0 * b * b) * (2 * m + mu) - 2.0 * c0


def eliminated_scalar_coefficients(problem, lam, z):
    """Independent route to the scalar ODE coefficients: eliminate the second
    component from the 2x2 first-order system numerically.

    Returns (p(z), q(z)) with f1'' + p f1' + q f1 = 0."""
    a_m, b_m = problem.A, problem.B
    bh = b_m.conj().T
    c = problem.c_matrix(lam)
    q_z = b_m * z * z + a_m * z + bh
    n_z = -problem.mu * (b_m * z + 0.5 * a_m) + c
    m = np.linalg.solve(q_z, n_z)
    qp = 2.0 * b_m * z + a_m
    mp = np.linalg.solve(q_z, -problem.mu * b_m - qp @ m)
    big_p = m[0, 0] + m[1, 1] + mp[0, 1] / m[0, 1]
    big_r = m[0, 1] * m[1, 0] - m[0, 0] * m[1, 1] + mp[0, 0] - m[0, 0] * mp[0, 1] / m[0, 1]
    return -big_p, -big_r


def laurent_coefficients(fn, center, radius, orders, npts=64):
    """Laurent coefficients of a scalar function around a point by trapezoid
    quadrature on a circle; orders is an iterable of integer indices."""
    k = np.arange(npts)
    zs = center + radius * np.exp(2j * np.pi * k / npts)
    vals = np.array([fn(z) for z in zs])
    out = {}
    for n in orders:
        out[n] = complex(
            np.mean(vals * (radius * np.exp(2j * np.pi * k / npts)) ** (-n))
        )
    return out


def _indicial_roots(p_res, q_res2):
    # x(x-1) + p_res x + q_res2 = 0
    b = p_res - 1.0
    disc = np.sqrt(b * b - 4.0 * q_res2 + 0j)
    return sorted(((-b + disc) / 2.0, (-b - disc) / 2.0), key=lambda z: (z.real, z.imag))


def scheme_vs_frobenius(problem, lam, params):
    """Largest distance between the Riemann scheme of params and the
    indicial roots at each of its points, infinity included, read off the
    Laurent coefficients of the eliminated scalar coefficients."""
    worst = 0.0
    finite = {
        k: v for k, v in params.singular_locations.items() if k != "infinity"
    }
    locs = list(finite.values())

    def p_fn(z):
        return eliminated_scalar_coefficients(problem, lam, z)[0]

    def q_fn(z):
        return eliminated_scalar_coefficients(problem, lam, z)[1]

    for key, s in finite.items():
        others = [x for x in locs if x != s]
        radius = 0.3 * min(abs(s - x) for x in others)
        pc = laurent_coefficients(p_fn, s, radius, [-1])
        qc = laurent_coefficients(q_fn, s, radius, [-2])
        roots = _indicial_roots(pc[-1], qc[-2])
        expected = sorted(params.scheme[key], key=lambda z: (complex(z).real, complex(z).imag))
        worst = max(
            worst, max(abs(r - e) for r, e in zip(roots, expected))
        )
    # at infinity: exponents solve x(x+1) - p1 x + q2 = 0 with p1 = lim z p,
    # q2 = lim z^2 q
    radius = 2.0 * max(abs(x) for x in locs) + 2.0
    p1 = laurent_coefficients(lambda z: z * p_fn(z), 0.0, radius, [0])[0]
    q2 = laurent_coefficients(lambda z: z * z * q_fn(z), 0.0, radius, [0])[0]
    b = -(p1 - 1.0)
    disc = np.sqrt(b * b - 4.0 * q2 + 0j)
    roots = sorted(((-b + disc) / 2.0, (-b - disc) / 2.0), key=lambda z: (z.real, z.imag))
    expected = sorted(
        params.scheme["infinity"], key=lambda z: (complex(z).real, complex(z).imag)
    )
    worst = max(worst, max(abs(r - e) for r, e in zip(roots, expected)))
    return worst


def _csv_cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def golden_diff(expected: str, actual: str) -> str:
    """How an output differs from its golden text, for a failure message.

    Both are parsed (JSON, else CSV cells) and walked together.  Every
    discrete difference is named: a key, a length, a string, a bool, an
    integer or a null.  Floats that differ are summarized by the largest
    absolute and the largest relative change (relative to the larger
    modulus of the pair)."""

    def parse(text):
        try:
            return json.loads(text)
        except ValueError:
            return [[_csv_cell(c) for c in line.split(",")] for line in text.splitlines()]

    discrete: list[str] = []
    changes: list[tuple[float, float, str]] = []

    def walk(e, a, path):
        if isinstance(e, dict) and isinstance(a, dict):
            for k in sorted(set(e) | set(a)):
                if k not in a or k not in e:
                    discrete.append(f"{path}.{k}: key only in {'golden' if k in e else 'output'}")
                else:
                    walk(e[k], a[k], f"{path}.{k}")
        elif isinstance(e, list) and isinstance(a, list):
            if len(e) != len(a):
                discrete.append(f"{path}: length {len(e)} -> {len(a)}")
            for i, (x, y) in enumerate(zip(e, a)):
                walk(x, y, f"{path}[{i}]")
        elif type(e) is float and type(a) is float:
            if e != a and not (math.isnan(e) and math.isnan(a)):
                d = abs(a - e)
                changes.append((d, d / max(abs(e), abs(a)), f"{path}: {e!r} -> {a!r}"))
        elif type(e) is not type(a) or e != a:
            discrete.append(f"{path}: {e!r} -> {a!r}")

    walk(parse(expected), parse(actual), "$")
    lines = [f"{len(discrete)} discrete difference(s)"] + [f"  {d}" for d in discrete]
    if changes:
        worst_abs = max(changes, key=lambda c: c[0])
        worst_rel = max(changes, key=lambda c: c[1])
        lines.append(f"{len(changes)} float(s) changed")
        lines.append(f"  largest absolute change {worst_abs[0]:.3g} at {worst_abs[2]}")
        lines.append(f"  largest relative change {worst_rel[1]:.3g} at {worst_rel[2]}")
    elif not discrete:
        lines.append("parsed values are equal; only the formatting differs")
    return "\n".join(lines)
