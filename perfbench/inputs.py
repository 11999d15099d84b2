"""Seeded inputs for the nchodisk benchmark.

Every workload is a list of ``Op``: the argv handed to ``nchodisk.cli.main``
plus what the output checks need.  Problems are written as problem JSON
files, so the program sees only files and argv.  The same seed gives the
same files and the same op list.

The seed acts in three ways:

- the ladder problems (the classical two-level family) of ``trunc_stress``
  and ``profile_sweep`` get a seeded random unitary gauge
  U: (A, B, C0) -> (U A U', U B U', U C0 U').  Spectra and eigenfunction
  norms are gauge invariant, so the committed references still apply,
  while the program sees different numbers on every seed;
- ``connect_refine`` runs its ops in a seeded order;
- ``cli_small`` draws random admissible problems with p in {1, 2, 3}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"

# Classical family standard_ncho_problem(2, bg / 2, ETA, MU): A = diag(2, bg/2),
# so beta * gamma = bg, and the positivity boundary is bg -> 1.
LADDER_ETA = 0.1
LADDER_MU = 1.5
TRUNC_LADDER = (1.05, 1.02, 1.01, 1.005)
CONNECT_LADDER = (1.5, 1.2, 1.05, 1.02)
PROFILE_LADDER = (1.02, 1.01)
PROFILE_INDICES = (0, 7)
PROFILE_SAMPLES = 401
BOTH_FIXTURES = ("p1_quarter", "classical_eta01_mu15", "classical_eta0", "classical_mu_nk")
CONFLUENCE_ARGS = (
    "--coupling", "0.8", "--delta", "0.5", "--bias", "0.2",
    "--count", "10", "--mu-list", "40,160,640,2560,10240",
)

# cli_small: random problems per p, plus the fixtures.
RANDOM_PER_P = 12
RANDOM_MARGIN = 0.05  # delta in lambda_min(A) - 2 |B|_2 >= delta
SMALL_FIXTURES = ("p1_quarter", "p1_a123", "classical_eta0", "classical_eta01_mu15", "classical_mu_nk")

AB_EQUAL = "alpha=beta classical fixture: every eigenvalue is double and the connection route exits 4"
HEUN_B2 = "p=2 with b2 != 0: heun-params raises TypeError (numpy.bool_ coalescent is not JSON serializable)"

WHY = {
    "trunc_stress": (
        "truncation near the positivity boundary (bg -> 1, orders 128 to 1024): dense "
        "eigen_hermitian is ~90% of the time and the pencil is never called"
    ),
    "connect_refine": (
        "connection route: T evaluations, pencil decomposition per evaluation, Frobenius "
        "series and Taylor transport; seeding truncation stays at orders <= 256"
    ),
    "profile_sweep": (
        "truncation with eigenvectors: eigh with vectors, Laguerre summation of profiles and "
        "the Rabi ladder of the confluence sweep"
    ),
    "cli_small": (
        "hundreds of short calls on small random problems: per-call latency of the pencil, "
        "covariance, fuchsian, heun and cli layers, one pencil decomposition per call"
    ),
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Op:
    """One call of ``nchodisk.cli.main``.

    ``kind`` selects the output check, ``ref`` names the committed reference
    it compares against, ``known_defect`` says why the op is expected to fail
    today (a failure is then counted but does not make the run incorrect;
    output from a run that succeeds is still checked)."""

    label: str
    argv: tuple[str, ...]
    kind: str
    ref: str | None = None
    known_defect: str | None = None
    info: dict = field(default_factory=dict, compare=False, hash=False)


def _pairs(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def problem_node(p: int, mu: float, a, b, c0) -> dict:
    return {"p": p, "mu": mu, "A": _pairs(a), "B": _pairs(b), "C0": _pairs(c0)}


def node_matrices(node: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    def mat(key):
        return np.array([[complex(*v) for v in row] for row in node[key]])

    return mat("A"), mat("B"), mat("C0")


def ladder_node(bg: float) -> dict:
    """standard_ncho_problem(2, bg / 2, LADDER_ETA, LADDER_MU) as problem JSON."""
    beta, gamma = 2.0, bg / 2.0
    s = math.sqrt(beta * gamma - 1.0)
    skew = np.array([[0.0, 1j], [-1j, 0.0]])
    return problem_node(2, LADDER_MU, np.diag([beta, gamma]), 0.5 * skew, LADDER_ETA * s * skew)


def fixture_node(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())


def random_unitary(rng: np.random.Generator, p: int) -> np.ndarray:
    z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def gauged(node: dict, u: np.ndarray) -> dict:
    """The problem under the unitary gauge U; the spectrum does not change."""
    a, b, c0 = node_matrices(node)
    uh = u.conj().T

    def herm(m):
        m = u @ m @ uh
        return 0.5 * (m + m.conj().T)

    out = dict(node)
    out.update(problem_node(node["p"], node["mu"], herm(a), u @ b @ uh, herm(c0)))
    return out


def _random_hermitian(rng, p, scale):
    w = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return scale * 0.5 * (w + w.conj().T)


def random_admissible(rng: np.random.Generator, p: int, delta: float = RANDOM_MARGIN) -> dict:
    """Random problem with Hermitian A and B scaled so that
    lambda_min(A) - 2 |B|_2 >= delta, which bounds the least eigenvalue of
    B z + A + B' conj(z) on the unit circle from below by delta."""
    q = random_unitary(rng, p)
    a = (q * rng.uniform(1.0, 2.0, p)) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    amin = float(np.linalg.eigvalsh(a)[0])
    b = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    b *= rng.uniform(0.3, 1.0) * (amin - delta) / (2.0 * np.linalg.norm(b, 2))
    c0 = _random_hermitian(rng, p, 0.4)
    mu = float(rng.uniform(0.5, 2.5))
    return problem_node(p, mu, a, b, c0)


class ProblemWriter:
    """Writes problem JSON files into a directory and remembers each one."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.nodes: dict[str, dict] = {}

    def __call__(self, name: str, node: dict) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(node))
        self.nodes[str(path)] = node
        return str(path)


def _trunc_stress(rng, put):
    ops = []
    for bg in TRUNC_LADDER:
        path = put(f"ladder_{bg}", gauged(ladder_node(bg), random_unitary(rng, 2)))
        ops.append(Op(f"trunc bg={bg}", ("spectrum", path, "--method", "trunc", "--count", "5"),
                      "spectrum", ref=f"ladder/{bg}"))
    return ops


def _connect_refine(rng, put):
    # No gauge: it moves the number of T evaluations a refinement needs by up
    # to a third (29 or 37 at bg = 1.02), which would read as seed-to-seed
    # spread.  The seed orders the ops instead.
    ops = []
    for bg in CONNECT_LADDER:
        path = put(f"ladder_{bg}", ladder_node(bg))
        ops.append(Op(f"connect bg={bg}", ("spectrum", path, "--method", "connect", "--count", "5"),
                      "spectrum", ref=f"ladder/{bg}"))
    for name in BOTH_FIXTURES:
        path = put(name, fixture_node(name))
        defect = AB_EQUAL if name in ("classical_eta0", "classical_mu_nk") else None
        ops.append(Op(f"both {name}", ("spectrum", path, "--method", "both", "--count", "5"),
                      "spectrum", ref=f"fixture/{name}", known_defect=defect))
    return [ops[i] for i in rng.permutation(len(ops))]


def _profile_sweep(rng, put):
    ops = []
    for bg in PROFILE_LADDER:
        path = put(f"ladder_{bg}", gauged(ladder_node(bg), random_unitary(rng, 2)))
        for index in PROFILE_INDICES:
            ops.append(Op(
                f"eigenfunction bg={bg} index={index}",
                ("eigenfunction", path, "--index", str(index), "--samples", str(PROFILE_SAMPLES)),
                "eigenfunction", ref=f"profile/{bg}/{index}",
            ))
    ops.append(Op("confluence", ("confluence",) + CONFLUENCE_ARGS, "confluence", ref="confluence"))
    return ops


def _small_ops(label, path, p, lam, margin, known_heun):
    ops = [
        Op(f"verify-pencil {label}", ("verify-pencil", path), "verify"),
        Op(f"positivity {label}", ("positivity", path), "positivity", info={"margin": margin, "grid": 256}),
        Op(f"positivity-4096 {label}", ("positivity", path, "--grid-size", "4096"), "positivity",
           info={"margin": margin, "grid": 4096}),
        Op(f"fuchsian {label}", ("fuchsian", path, "--lambda", repr(lam)), "fuchsian", info={"lambda": lam}),
    ]
    if p == 2:
        ops.append(Op(f"standardize {label}", ("standardize", path), "standardize"))
        ops.append(Op(f"heun-params {label}", ("heun-params", path, "--lambda", repr(lam)), "heun",
                      known_defect=HEUN_B2 if known_heun else None, info={"lambda": lam}))
    return ops


def _confirm_admissible(node: dict, delta: float) -> None:
    from nchodisk.cli import parse_problem
    from nchodisk.pencil import positivity_margin

    cert = positivity_margin(parse_problem(node)[0])
    if not (cert.certified and cert.margin >= delta):
        raise RuntimeError(f"generated problem is not admissible: margin {cert.margin}")


def _cli_small(rng, put):
    ops = []
    for name in SMALL_FIXTURES:
        node = fixture_node(name)
        path = put(name, node)
        lam = round(float(rng.uniform(0.0, 4.0)), 6)
        ops += _small_ops(name, path, node["p"], lam, 0.0, known_heun=False)
    for p in (1, 2, 3):
        for k in range(RANDOM_PER_P):
            node = random_admissible(rng, p)
            _confirm_admissible(node, RANDOM_MARGIN)
            path = put(f"random_p{p}_{k}", node)
            lam = round(float(rng.uniform(0.0, 4.0)), 6)
            ops += _small_ops(f"p{p}#{k}", path, p, lam, RANDOM_MARGIN, known_heun=True)
    return ops


_OPS_OF = {
    "trunc_stress": _trunc_stress,
    "connect_refine": _connect_refine,
    "profile_sweep": _profile_sweep,
    "cli_small": _cli_small,
}


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Op], dict[str, dict]]:
    """Write the workload's problem files into workdir and return its ops
    together with the problem JSON behind every written path."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    put = ProblemWriter(workdir)
    return _OPS_OF[workload](rng, put), put.nodes
