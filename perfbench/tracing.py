"""Outside-in trace of the nchodisk layers, recorded from the benchmark's
own files.

``Tracer.install`` replaces every module-level binding of each public
nchodisk function (the names in each module's ``__all__``) with a timing
wrapper, in every nchodisk module that holds the binding.  So
``nchodisk.spectral.build_fuchsian``, ``nchodisk.fuchsian.build_fuchsian``
and ``nchodisk.cli.build_fuchsian`` are all seen, as are calls inside the
defining module, which look the name up at call time.  ``uninstall`` puts
the original functions back.  No file under ``src/`` is edited.

A span is (name, parent, start, end, child seconds, info).  Spans stay in
memory; the benchmark writes them out when the run ends.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

MODULES = ("linalg", "pencil", "covariance", "fuchsian", "heun", "spectral", "cli")

NAME, PARENT, START, END, CHILD, INFO = range(6)


def _eigen_info(args, kwargs, result):
    n = int(np.shape(args[0])[0])
    return {"dim": n, "bytes": 16 * n * n}


def _order_info(args, kwargs, result):
    return {"order": int(kwargs.get("order", args[1] if len(args) > 1 else 0))}


def _refine_info(args, kwargs, result):
    return {"polarization": int(result.polarization)}


def _connection_info(args, kwargs, result):
    return {"t_max": float(np.max(np.abs(result.convergence)))}


# What a span keeps from its call, for metrics that need more than time.
PROBES = {
    "linalg.eigen_hermitian": _eigen_info,
    "spectral.build_truncated": _order_info,
    "spectral.refine_eigenvalue": _refine_info,
    "spectral.spectrum_connection": _connection_info,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD] += span[END] - span[START]
            if probe is not None:
                span[INFO] = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module("nchodisk")]
        modules += [importlib.import_module(f"nchodisk.{m}") for m in MODULES]
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"nchodisk.{short}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _under(spans, span, name) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see BENCHMARK.json per_layer)."""
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        d = s[END] - s[START]
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        incl[s[NAME]] = incl.get(s[NAME], 0.0) + d
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + d - s[CHILD]

    def info(name, key):
        return [s[INFO][key] for s in spans if s[NAME] == name and s[INFO] is not None]

    def count_under(name, ancestor):
        return sum(1 for s in spans if s[NAME] == name and _under(spans, s, ancestor))

    eigen_dims = info("linalg.eigen_hermitian", "dim")
    refines = calls.get("spectral.refine_eigenvalue", 0)
    t_evals = count_under("fuchsian.build_fuchsian", "spectral.spectrum_connection")
    conn_decomps = count_under("pencil.decompose_quadratic_pencil", "spectral.spectrum_connection")
    return {
        "linalg.eigen_hermitian_calls": calls.get("linalg.eigen_hermitian", 0),
        "linalg.eigen_hermitian_s": incl.get("linalg.eigen_hermitian", 0.0),
        "linalg.eigen_dim_max": max(eigen_dims, default=0),
        "linalg.eigen_bytes": sum(info("linalg.eigen_hermitian", "bytes")),
        "spectral.trunc_solves": calls.get("spectral.spectrum_truncated", 0),
        "spectral.trunc_self_s": self_s.get("spectral.spectrum_truncated", 0.0),
        "spectral.build_truncated_s": incl.get("spectral.build_truncated", 0.0),
        "spectral.order_max": max(info("spectral.build_truncated", "order"), default=0),
        "spectral.seed_s": sum(
            s[END] - s[START]
            for s in spans
            if s[NAME] == "spectral.spectrum_truncated"
            and _under(spans, s, "spectral.spectrum_connection")
        ),
        "spectral.refine_calls": refines,
        "spectral.refine_self_s": self_s.get("spectral.refine_eigenvalue", 0.0),
        "spectral.t_evals_per_eig": (
            count_under("fuchsian.build_fuchsian", "spectral.refine_eigenvalue") / refines
            if refines else 0.0
        ),
        "spectral.decompose_per_t_eval": conn_decomps / t_evals if t_evals else 0.0,
        "spectral.polarization_fallbacks": sum(
            1 for pol in info("spectral.refine_eigenvalue", "polarization") if pol > 0
        ),
        "spectral.t_residual_max": max(info("spectral.spectrum_connection", "t_max"), default=0.0),
        "spectral.profile_s": incl.get("spectral.eigenfunction_profile", 0.0),
        "spectral.rabi_s": incl.get("spectral.rabi_truncated_spectrum", 0.0),
        "fuchsian.build_calls": calls.get("fuchsian.build_fuchsian", 0),
        "fuchsian.build_self_s": self_s.get("fuchsian.build_fuchsian", 0.0),
        "fuchsian.exponents_s": incl.get("fuchsian.exponents_at", 0.0),
        "pencil.decompose_calls": calls.get("pencil.decompose_quadratic_pencil", 0),
        "pencil.decompose_s": incl.get("pencil.decompose_quadratic_pencil", 0.0),
        "pencil.positivity_s": incl.get("pencil.positivity_margin", 0.0),
        "pencil.verify_s": incl.get("pencil.verify_pencil_identities", 0.0),
        "covariance.standardize_s": incl.get("covariance.standardize_p2", 0.0),
        "covariance.transform_calls": calls.get("covariance.transform_problem", 0),
        "covariance.transform_s": incl.get("covariance.transform_problem", 0.0),
        "heun.params_calls": calls.get("heun.heun_like_parameters", 0),
        "heun.params_s": incl.get("heun.heun_like_parameters", 0.0),
        "cli.parse_s": incl.get("cli.parse_problem", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "trace.spans": len(spans),
    }
