"""Write perfbench/refs.json, the references the output checks compare against.

    python3 perfbench/make_refs.py

Runs ``nchodisk.cli.main`` on the ungauged ladder problems and the
fixtures and keeps the eigenvalues, eigenfunction norm profiles and
confluence deviations.  Regenerate only when a change is meant to move
results by more than the tolerances in ``checks.py``, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import inputs
import run


def _call(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _eigenvalues(cli, path, method, route):
    code, out = _call(cli, ["spectrum", path, "--method", method, "--count", "5"])
    return json.loads(out)[route]["eigenvalues"] if code == 0 else None


def main() -> int:
    cli = run.load_cli()
    if cli is None:
        print("make_refs.py: cannot load the program", file=sys.stderr)
        return 2
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        put = inputs.ProblemWriter(Path(tmp))
        for bg in sorted(set(inputs.TRUNC_LADDER + inputs.CONNECT_LADDER + inputs.PROFILE_LADDER)):
            path = put(f"ladder_{bg}", inputs.ladder_node(bg))
            entry = {}
            if bg in inputs.TRUNC_LADDER:
                entry["truncation"] = _eigenvalues(cli, path, "trunc", "truncation")
            if bg in inputs.CONNECT_LADDER:
                entry["connection"] = _eigenvalues(cli, path, "connect", "connection")
            refs[f"ladder/{bg}"] = entry
            if bg in inputs.PROFILE_LADDER:
                for index in inputs.PROFILE_INDICES:
                    argv = ["eigenfunction", path, "--index", str(index),
                            "--samples", str(inputs.PROFILE_SAMPLES)]
                    code, out = _call(cli, argv)
                    table = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
                    refs[f"profile/{bg}/{index}"] = np.sqrt(np.sum(table[:, 1:] ** 2, axis=1)).tolist()
        for name in inputs.BOTH_FIXTURES:
            path = put(name, inputs.fixture_node(name))
            entry = {"truncation": _eigenvalues(cli, path, "trunc", "truncation")}
            connection = _eigenvalues(cli, path, "connect", "connection")
            if connection is not None:  # alpha = beta fixtures: the route exits 4 today
                entry["connection"] = connection
            refs[f"fixture/{name}"] = entry
        code, out = _call(cli, ("confluence",) + inputs.CONFLUENCE_ARGS)
        refs["confluence"] = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    run.REFS.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {run.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
