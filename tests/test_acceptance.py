"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them live)."""

import dataclasses
import math
import time

import numpy as np
from scipy.special import gamma as gamma_fn, roots_genlaguerre

from conftest import (
    GOLDEN,
    random_problem,
    scalar_closed_eigenvalue,
    scheme_vs_frobenius,
)

from nchodisk import (
    NchoProblem,
    RabiParameters,
    Su11Element,
    apparent_singularity_residual,
    beta_gamma_closed_forms,
    build_fuchsian,
    chordal_distance,
    confluence_sweep,
    connection_matrix,
    exponents_at,
    gauge_problem,
    heun_like_parameters,
    laguerre_mode,
    mobius_apply,
    positivity_margin,
    residue_at_infinity_formula,
    spectrum_connection,
    spectrum_truncated,
    standard_ncho_problem,
    standardize_p2,
    transform_problem,
    verify_pencil_identities,
)
from nchodisk.spectral import _norm_sq

SQ3 = math.sqrt(3.0)
P1 = NchoProblem(p=1, mu=0.5, A=[[1.0]], B=[[0.25]], C0=[[0.0]])


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:02d} [{status}] {name}{(': ' + detail) if detail else ''}")
    assert ok, f"criterion {num} failed: {detail}"


def _suite_instances(count=200):
    rng = np.random.default_rng(20260801)
    out = []
    for k in range(count):
        p = 1 + k % 3
        prob = random_problem(rng, p=p)
        if k % 7 == 3 and p >= 2:
            # exercise the singular-B branch: zero a row of the coupling
            b = prob.B.copy()
            b[p - 1, :] = 0.0
            cand = prob.with_matrices(B=b)
            try:
                dec = cand.analysis.decomposition
            except Exception:
                out.append(prob)
                continue
            gaps = [
                abs(x - y)
                for i, x in enumerate(dec.poles)
                for y in dec.poles[i + 1 :]
            ]
            if positivity_margin(cand, 64).margin > 0.05 and (not gaps or min(gaps) > 0.05):
                prob = cand
        out.append(prob)
    return out


def test_criterion_01_pencil_identity_suite():
    t0 = time.perf_counter()
    instances = _suite_instances(200)
    worst = 0.0
    n_singular_b = 0
    for prob in instances:
        dec = prob.analysis.decomposition
        n_singular_b += int(dec.zero_is_pole)
        report = verify_pencil_identities(prob, tol=1e-9)
        worst = max(worst, max(c.residual for c in report.checks))
        if not report.all_passed:
            _report(1, "pencil identities on 200 random instances", False, str(report))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30.0 and n_singular_b >= 5
    _report(
        1,
        "pencil identities on 200 random instances",
        ok,
        f"max residual {worst:.2e}, {n_singular_b} singular-B instances, {elapsed:.1f}s",
    )


def test_criterion_02_fuchsian_structure_suite():
    rng = np.random.default_rng(7)
    instances = _suite_instances(200)
    worst = 0.0
    for prob in instances:
        for lam in rng.uniform(-2.0, 3.0, size=5):
            system = build_fuchsian(prob, float(lam))
            total = sum(system.residues) + system.residue_at_infinity
            worst = max(worst, float(np.max(np.abs(total))))
            formula = residue_at_infinity_formula(system)
            worst = max(
                worst, float(np.max(np.abs(system.residue_at_infinity - formula)))
            )
            for j in range(len(system.singular_points)):
                rep = exponents_at(system, j)
                if not rep.rank_bound_ok:
                    worst = max(worst, 1.0)
                worst = max(worst, rep.shift_residual)
    _report(
        2,
        "sum rule, infinity residue, rank bound, shift on 200 x 5 instances",
        worst < 1e-8,
        f"max residual {worst:.2e}",
    )


def test_criterion_03_scalar_closed_form():
    t0 = time.perf_counter()
    res = spectrum_truncated(P1, 10, tol=1e-12)
    expect = np.array([scalar_closed_eigenvalue(1.0, 0.25, 0.0, 0.5, m) for m in range(10)])
    trunc_dev = float(np.max(np.abs(res.eigenvalues - expect)))
    # least singular value of the connection matrix (its one entry at p = 1)
    t_worst = max(
        np.linalg.svd(connection_matrix(P1, float(lam)), compute_uv=False)[-1] for lam in expect
    )
    shifted = dataclasses.replace(res, eigenvalues=expect + 3e-7)
    refined = spectrum_connection(P1, shifted).eigenvalues
    refine_dev = float(np.max(np.abs(refined - expect)))
    elapsed = time.perf_counter() - t0
    ok = (
        trunc_dev < 1e-8
        and res.orders[1] <= 512
        and t_worst < 1e-6
        and refine_dev < 1e-8
        and elapsed < 5.0
    )
    _report(
        3,
        "scalar closed form: truncation, least singular value of L at roots, refined roots",
        ok,
        f"trunc {trunc_dev:.1e}, s_min(L) {t_worst:.1e}, refine {refine_dev:.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_classical_decoupling():
    worst = 0.0
    for eta in (0.0, 0.1):
        for mu in (0.5, 1.5):
            prob = standard_ncho_problem(2.0, 2.0, eta, mu)
            vals = spectrum_truncated(prob, 8, tol=1e-11).eigenvalues
            closed = sorted(
                SQ3 * (2 * m + mu) + s * 2.0 * eta * SQ3 for m in range(8) for s in (-1, 1)
            )[:8]
            worst = max(worst, float(np.max(np.abs(vals - closed))))
    _report(
        4,
        "two-level family decouples to the scalar closed form",
        worst < 1e-8,
        f"max deviation {worst:.2e}",
    )


def test_criterion_05_heun_route_independence():
    betas = gammas = (1.4, 2.0, 2.6, 3.2)
    etas = (0.0, 0.12, 0.3)
    lams = (0.8, 1.9, 3.1)
    mu = 0.5
    worst_alpha = 0.0
    worst = 0.0
    for beta in betas:
        for gamma in gammas:
            std, _ = standardize_p2(standard_ncho_problem(beta, gamma, 0.0, mu))
            for eta in etas:
                prob = standard_ncho_problem(beta, gamma, eta, mu)
                std_eta, _ = standardize_p2(prob)
                for lam in lams:
                    params = heun_like_parameters(std_eta, lam)
                    cf = beta_gamma_closed_forms(beta, gamma, eta, lam, mu)
                    worst_alpha = max(worst_alpha, abs(params.alpha - cf.alpha))
                    if abs(params.kappa0 - cf.kappa_plus) <= abs(params.kappa0 - cf.kappa_minus):
                        trio = (cf.kappa_plus, cf.kappa_minus, cf.q_plus)
                    else:
                        trio = (cf.kappa_minus, cf.kappa_plus, cf.q_minus)
                    worst = max(
                        worst,
                        abs(params.kappa0 - trio[0]),
                        abs(params.kappa1 - trio[1]),
                        abs(params.q1 - trio[2]),
                    )
    ok = worst_alpha < 1e-12 and worst < 1e-10
    _report(
        5,
        "closed forms match the standardization route on the (beta,gamma,eta,lambda) grid",
        ok,
        f"alpha {worst_alpha:.1e}, kappa/q {worst:.1e}",
    )


def test_criterion_06_exponent_schemes():
    rng = np.random.default_rng(606)
    worst_scheme = 0.0
    worst_fuchs = 0.0
    worst_apparent = 0.0
    cases = []
    for beta, gamma, eta, lam in (
        (2.0, 2.8, 0.25, 2.0 * SQ3),
        (2.0, 3.0, 0.2, 1.3),
        (1.5, 2.5, -0.1, 0.7),
    ):
        std, _ = standardize_p2(standard_ncho_problem(beta, gamma, eta, 1.5))
        # the scalar elimination divides by the off-diagonal coupling; the
        # exponent table presumes it does not vanish (decoupled problems
        # degenerate to a pair of first-order equations)
        assert abs(std.c_matrix(lam)[0, 1]) > 1e-3
        cases.append((std, lam))
    made = 0
    while made < 5:
        b1 = rng.uniform(0.05, 0.25) * np.exp(2j * np.pi * rng.uniform())
        b2 = rng.uniform(0.15, 0.5) * np.exp(2j * np.pi * rng.uniform())
        if 2 * abs(b1) + abs(b2) ** 2 >= 0.9:
            continue
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        prob = NchoProblem(
            p=2,
            mu=float(rng.uniform(0.4, 1.8)),
            A=np.eye(2),
            B=np.array([[b1, b2], [0, 0]]),
            C0=0.4 * (c + c.conj().T),
        )
        lam = float(rng.uniform(-1.0, 2.0))
        params = heun_like_parameters(prob, lam)
        pts = [0.0, params.alpha, 1 / np.conj(params.alpha), params.epsilon]
        gaps = [abs(x - y) for i, x in enumerate(pts) for y in pts[i + 1 :]]
        if min(gaps) < 0.1:
            continue
        cases.append((prob, lam))
        made += 1
    n_five = 0
    for prob, lam in cases:
        params = heun_like_parameters(prob, lam)
        worst_scheme = max(worst_scheme, scheme_vs_frobenius(prob, lam, params))
        target = params.n_singularities - 2
        worst_fuchs = max(worst_fuchs, abs(params.fuchs_sum() - target))
        if params.n_singularities == 5:
            n_five += 1
            assert params.scheme["apparent"] == (0.0, 2.0)
            worst_apparent = max(worst_apparent, apparent_singularity_residual(params))
    ok = worst_scheme < 1e-8 and worst_fuchs < 1e-9 and worst_apparent < 1e-8 and n_five >= 5
    _report(
        6,
        "Frobenius exponents match the scheme tables; apparent point is log-free",
        ok,
        f"scheme {worst_scheme:.1e}, fuchs {worst_fuchs:.1e}, apparent {worst_apparent:.1e}",
    )


def test_criterion_07_group_and_gauge_invariance():
    rng = np.random.default_rng(707)
    worst_spectrum = 0.0
    worst_pole = 0.0
    for _ in range(20):
        prob = random_problem(rng, p=2)
        base = spectrum_truncated(prob, 5, tol=1e-9).eigenvalues
        b = 0.5 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        a = np.sqrt(1.0 + abs(b) ** 2) * np.exp(2j * np.pi * rng.uniform())
        g = Su11Element(a, b)
        moved_prob = transform_problem(g, prob)
        moved = spectrum_truncated(moved_prob, 5, tol=1e-9).eigenvalues
        worst_spectrum = max(worst_spectrum, float(np.max(np.abs(moved - base))))
        u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        gauged = spectrum_truncated(gauge_problem(u, prob), 5, tol=1e-9).eigenvalues
        worst_spectrum = max(worst_spectrum, float(np.max(np.abs(gauged - base))))
        dec0 = prob.analysis.decomposition
        dec1 = moved_prob.analysis.decomposition
        # a pole counts rank P_j times; the rest of the 2p roots sit at infinity
        finite0 = sum(np.linalg.matrix_rank(pj, rtol=1e-8) for pj in dec0.residues)
        finite1 = sum(np.linalg.matrix_rank(pj, rtol=1e-8) for pj in dec1.residues)
        sphere0 = list(dec0.poles) + [complex("inf")] * (2 * prob.p - finite0)
        sphere1 = list(dec1.poles) + [complex("inf")] * (2 * prob.p - finite1)
        for al in sphere0:
            img = mobius_apply(g, al)
            worst_pole = max(worst_pole, min(chordal_distance(img, x) for x in sphere1))
    ok = worst_spectrum < 1e-7 and worst_pole < 1e-8
    _report(
        7,
        "spectrum invariant under the group action and gauge; poles move by Möbius",
        ok,
        f"spectrum {worst_spectrum:.1e}, poles {worst_pole:.1e}",
    )


def test_criterion_08_confluence_to_rabi():
    t0 = time.perf_counter()
    rabi = RabiParameters(omega=1.0, g_coupling=0.3, Delta=0.5, eps_bias=0.0)
    sweep = confluence_sweep(rabi, [40.0, 160.0, 640.0], count=5)
    d = sweep.deviations
    ratios = [d[1] / d[0], d[2] / d[1]]
    elapsed = time.perf_counter() - t0
    ok = (
        d[0] > d[1] > d[2] > 0
        and all(0.15 < r < 0.45 for r in ratios)
        and elapsed < 60.0
    )
    _report(
        8,
        "scaled spectra approach the Rabi truncation at rate 1/mu",
        ok,
        f"deviations {[f'{x:.2e}' for x in d]}, ratios {[f'{r:.3f}' for r in ratios]}, {elapsed:.1f}s",
    )


def test_criterion_09_laguerre_orthogonality():
    worst = 0.0
    for mu in (0.5, 1.5, 3.0):
        nodes, weights = roots_genlaguerre(64, mu - 1)
        norms = _norm_sq(mu, 13)
        # the quadrature weight holds e^{-2t}: undo the mode's own e^{-t}
        unweighted = np.exp(nodes / 2.0)
        modes = [laguerre_mode(m, mu, nodes / 2.0) * unweighted for m in range(13)]
        for m in range(13):
            for n in range(13):
                val = np.sum(weights * modes[m] * np.conj(modes[n])) / gamma_fn(mu)
                expect = norms[m] if m == n else 0.0
                worst = max(worst, abs(val - expect))
    _report(
        9,
        "quadrature Gram matrix equals the diagonal norm matrix",
        worst < 1e-10,
        f"max deviation {worst:.2e}",
    )


def test_criterion_10_positivity_equivalence():
    b = 0.5 * np.array([[0, 1j], [-1j, 0]])
    ok = True
    detail = []
    for beta in (0.7, 1.1, 1.6, 2.2):
        for gamma in (0.6, 1.0, 1.4, 2.0):
            prob = NchoProblem(
                p=2, mu=0.5, A=np.diag([beta, gamma]).astype(complex), B=b, C0=np.zeros((2, 2))
            )
            margin = positivity_margin(prob, 512).margin
            if (margin > 0) != (beta * gamma > 1.0):
                ok = False
                detail.append(f"beta={beta} gamma={gamma} margin={margin:.3e}")
    # along the ray beta = gamma = s: margin -> 0 monotonically as s -> 1+
    ray = []
    for s in (1.001, 1.01, 1.05, 1.2, 1.5):
        prob = NchoProblem(
            p=2, mu=0.5, A=np.diag([s, s]).astype(complex), B=b, C0=np.zeros((2, 2))
        )
        ray.append(positivity_margin(prob, 512).margin)
    ok = ok and all(m > 0 for m in ray) and all(x < y for x, y in zip(ray, ray[1:]))
    ok = ok and ray[0] < 0.0011  # margin ~ s - 1 near the boundary
    _report(
        10,
        "positive margin exactly when beta * gamma > 1, vanishing at the boundary",
        ok,
        "; ".join(detail) if detail else f"ray margins {[f'{m:.4f}' for m in ray]}",
    )


def test_criterion_11_cli_determinism():
    import io
    from contextlib import redirect_stdout

    from test_cli import GOLDEN_CASES
    from nchodisk.cli import main as cli_main

    ok = True
    detail = []
    for name, argv in GOLDEN_CASES:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(argv)
            outs.append(buf.getvalue())
            if code != 0:
                ok = False
                detail.append(f"{name}: exit {code}")
        golden = (GOLDEN / name).read_text()
        if outs[0] != outs[1] or outs[0] != golden:
            ok = False
            detail.append(f"{name}: bytes differ")
    _report(
        11,
        "golden-file byte equality for every subcommand across repeated runs",
        ok,
        "; ".join(detail) if detail else f"{len(GOLDEN_CASES)} cases",
    )
