#!/usr/bin/env python3
"""Digest the reports of a fixed list of CLI calls, one line per call.

Every call runs as ``python -m classicality ... -o FILE`` against this
checkout's ``src/``, in a fresh temporary directory, one process per call.
Each output line is ``sha256 exit argv``: the hash covers the report file
(empty when none was written) and the captured standard error.  Two runs,
or two checkouts, that print the same lines wrote byte-identical reports.

    python tools/report_digest.py > digests.txt

The list runs ``scenario``, ``predict``, ``identities`` on both sides,
``embed``, ``robustness``, ``membership`` (with and without effect
identities), ``secondary`` on both sides, ``tomo-synth``, ``tomo-fit`` and
``pipeline`` on six canonical scenarios; then ``predict`` and ``embed`` on
the regular 16-gon of ``perfbench.inputs``, and ``predict``, ``identities``
on both sides, ``embed`` and ``membership`` with effect identities on its
regular 7-gon, ``membership`` of a 7-gon table that breaks a statistics row
the LP drops (refuted without an LP), ``embed`` on boxworld-pr with
only ``m0`` measured, whose accessible fragment takes two projection
rounds, and ``secondary`` on 60 seeded states of the 3-simplex with the
one target identity t0 = t1 (a mixing LP of 3,600 weights); the tool
writes these fragment, table and identity files itself.  Then
``evaluate`` on every report that carries an inequality; then ``tensor``
and ``marginalize``; then ``tomo-synth`` of the qubit stabilizer at 10
trials with seed 5, and ``tomo-fit`` and ``pipeline`` on those counts,
whose fit rejects k = 3 and reaches k = 4: every other fit in the list
fits one rank.

``OPENBLAS_NUM_THREADS`` defaults to 1: the simplex's pivot path, and so a
certificate's last bits, can depend on the BLAS thread count.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SCENARIOS = [
    ("pr", ["boxworld-pr"]),
    ("cm", ["boxworld-classical-mediary"]),
    ("lna", ["lab-notebook", "--variant", "A"]),
    ("lnb", ["lab-notebook", "--variant", "B"]),
    ("stab", ["qubit-stabilizer"]),
    ("simplex", ["simplex-d"]),
]

# The 7-gon covers the closed-form extreme rays (cones of dimension <= 3)
# with and without a row merge: its effect cone has no duplicate rows, and
# its response polytope's box rows come in duplicate pairs.
POLYGONS = [16, 7]
FRAGMENT_CALLS = [
    ["predict", "16gon.json", "-o", "16gon-stats.json"],
    ["embed", "16gon.json", "-o", "16gon-embed.json"],
    ["predict", "7gon.json", "-o", "7gon-stats.json"],
    ["identities", "7gon.json", "--side", "states", "-o", "7gon-sids.json"],
    ["identities", "7gon.json", "--side", "effects", "-o", "7gon-eids.json"],
    ["embed", "7gon.json", "-o", "7gon-embed.json"],
    ["membership", "7gon-stats.json", "--identities", "7gon-sids.json",
     "--effect-identities", "7gon-eids.json", "-o", "7gon-mem2.json"],
    ["membership", "7gon-dropped-stats.json", "--identities", "7gon-sids.json",
     "--effect-identities", "7gon-eids.json", "-o", "7gon-mem-dropped.json"],
    ["embed", "pr-m0.json", "-o", "pr-m0-embed.json"],
    ["secondary", "mix60.json", "--identities", "mix60-sids.json", "--side", "states",
     "-o", "mix60-sec.json"],
]

COMPOSITE_CALLS = [
    ["tensor", "pr.json", "simplex.json", "-o", "tensor.json"],
    ["marginalize", "tensor.json", "--keep", "boxworld-pr", "-o", "marginal.json"],
]

# The stabilizer's counts at 10 trials, seed 5: k = 3 is fitted and fails
# the selection rule at chi^2 12.88, and k = 4 fits exactly.
SECOND_RANK_CALLS = [
    ["tomo-synth", "stab.json", "--trials", "10", "--seed", "5", "-o", "stab10-counts.json"],
    ["tomo-fit", "stab10-counts.json", "-o", "stab10-fit.json"],
    ["pipeline", "stab10-counts.json", "-o", "stab10-pipeline.json"],
]


def scenario_calls(tag: str, scenario: list[str]) -> list[list[str]]:
    frag, stats, sids, eids, counts = (
        f"{tag}.json", f"{tag}-stats.json", f"{tag}-sids.json", f"{tag}-eids.json",
        f"{tag}-counts.json",
    )
    return [
        ["scenario", *scenario, "-o", frag],
        ["predict", frag, "-o", stats],
        ["identities", frag, "--side", "states", "-o", sids],
        ["identities", frag, "--side", "effects", "-o", eids],
        ["embed", frag, "-o", f"{tag}-embed.json"],
        ["robustness", frag, "-o", f"{tag}-rob.json"],
        ["membership", stats, "--identities", sids, "-o", f"{tag}-mem.json"],
        ["membership", stats, "--identities", sids, "--effect-identities", eids,
         "-o", f"{tag}-mem2.json"],
        ["secondary", frag, "--identities", sids, "--side", "states",
         "--report-robustness", "-o", f"{tag}-sec-states.json"],
        ["secondary", frag, "--identities", eids, "--side", "effects",
         "-o", f"{tag}-sec-effects.json"],
        ["tomo-synth", frag, "--trials", "1000", "--seed", "7", "-o", counts],
        ["tomo-fit", counts, "-o", f"{tag}-fit.json"],
        ["pipeline", counts, "-o", f"{tag}-pipeline.json"],
    ]


def evaluate_calls(workdir: Path) -> list[list[str]]:
    calls = []
    for tag in [tag for tag, _ in SCENARIOS] + [f"{n}gon" for n in POLYGONS]:
        for name in ("embed", "mem", "mem2"):
            report = workdir / f"{tag}-{name}.json"
            if not report.exists():
                continue
            obj = json.loads(report.read_text(encoding="utf-8"))
            if "inequality" in obj or "violated_inequality" in obj:
                calls.append(["evaluate", report.name, f"{tag}-stats.json",
                              "-o", f"{tag}-{name}-eval.json"])
    return calls


def write_fragments(workdir: Path) -> None:
    """The polygons, boxworld-pr with its second measurement dropped, the
    60 mixed states with their identity, and the 7-gon's statistics with a
    dropped row broken."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    from dataclasses import replace

    import numpy as np

    from classicality import (
        GptVector,
        OperationalIdentity,
        find_identities,
        predict,
        response_vertices,
        serialize,
    )
    from classicality.linalg import rref
    from perfbench.inputs import regular_polygon, scenario

    pr = scenario("pr")
    pr_m0 = replace(pr, name="boxworld-pr-m0", effects=pr.effects[:2],
                    measurements=pr.measurements[:1])
    mixtures = np.random.default_rng(0).dirichlet(np.ones(3), size=60)
    mix60 = replace(scenario("tri"), name="simplex-3-mix60",
                    states=[GptVector(f"t{i}", v, "state") for i, v in enumerate(mixtures)])
    fragments = {f"{n}gon": regular_polygon(n) for n in POLYGONS}
    fragments |= {"pr-m0": pr_m0, "mix60": mix60}
    t0_t1 = OperationalIdentity("states", [("t0", 1.0), ("t1", -1.0)])
    (workdir / "mix60-sids.json").write_text(
        serialize.dumps(serialize.identities_to_obj([t0_t1])), encoding="utf-8")
    for name, fragment in fragments.items():
        obj = serialize.fragment_to_obj(fragment)
        (workdir / f"{name}.json").write_text(serialize.dumps(obj), encoding="utf-8")

    # The first measurement whose first outcome rref([1 | response table])
    # does not pivot on has a row membership drops and normalization does
    # not imply; moving that cell by 1e-3, with the row renormalized, breaks
    # that row, so membership refutes the table without an LP.
    stats = predict(fragments["7gon"])
    structure = list(zip(stats.measurements, stats.outcomes))
    verts = response_vertices(find_identities(fragments["7gon"], "effects"), structure)
    kept = np.argmax(rref(np.hstack([np.ones((len(verts), 1)), verts])) != 0.0, axis=1) - 1
    starts = np.cumsum([0] + [len(o) for o in stats.outcomes[:-1]])
    y = int(np.flatnonzero(~np.isin(starts, kept))[0])
    tables = [t.copy() for t in stats.tables]
    tables[y][0, 0] += 1e-3
    tables[y][0] /= tables[y][0].sum()
    obj = serialize.statistics_to_obj(replace(stats, tables=tables))
    (workdir / "7gon-dropped-stats.json").write_text(serialize.dumps(obj), encoding="utf-8")


def run(argv: list[str], workdir: Path, env: dict) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "classicality", *argv],
        cwd=workdir, env=env, capture_output=True,
    )
    report = workdir / argv[argv.index("-o") + 1]
    body = report.read_bytes() if report.exists() else b""
    digest = hashlib.sha256(body + b"\0" + proc.stderr).hexdigest()
    return f"{digest} {proc.returncode} {shlex.join(argv)}"


def main() -> int:
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="report-digest-") as tmp:
        workdir = Path(tmp)
        for tag, scenario in SCENARIOS:
            for argv in scenario_calls(tag, scenario):
                print(run(argv, workdir, env), flush=True)
        write_fragments(workdir)
        for argv in FRAGMENT_CALLS:
            print(run(argv, workdir, env), flush=True)
        for argv in evaluate_calls(workdir) + COMPOSITE_CALLS + SECOND_RANK_CALLS:
            print(run(argv, workdir, env), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
