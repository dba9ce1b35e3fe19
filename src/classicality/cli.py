"""Command-line front end: file-based, reproducible analyses.

Every run writes a single JSON report to standard output (or ``-o``);
verdicts live in the report, never in the exit code.  Exit status 0
means the analysis completed, 2 an input or format problem, 3 a
resource-limit problem.  Typed outputs (fragments, statistics, counts,
identities) are valid inputs to the subcommands that consume them, so
analyses compose through files or pipes.

A subcommand takes only the options it reads: ``--tol`` where a step
decides ranks or bounds, ``--seed`` on the stochastic ``tomo-synth``,
``--emit-geometry`` where the report has a fragment to draw.  Any other
option is an input error, with one exception: ``pipeline`` still takes
``--seed`` and echoes it, for scripts that pass it, but no step reads it.
A report echoes ``tolerances.rank`` only when a step ran at it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache

import numpy as np

from . import serialize
from .embedding import (
    accessibilize,
    robustness,
    test_embeddability,
    to_model,
    violated_inequality,
)
from .errors import FormatError, NumericalError, ResourceLimitError
from .fragments import Fragment, GptVector, partial_trace, predict, tensor, validate
from .identities import find_identities, induced_marginal_identities
from .linalg import DEFAULT_RANK_TOL
from .noncontextuality import evaluate, membership
from .scenarios import SCENARIO_NAMES, build
from .secondary import secondary_effects, secondary_states
from .serialize import dumps
from .tomography import GAUGE_ID, fit, synth, verdict_pipeline

# The least rank tolerance for vectors from a fit or a repair, not an exact
# construction: pipeline and secondary --report-robustness run at no less.
_FITTED_TOL_FLOOR = 1e-7


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise FormatError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def _write(text: str, path: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_fragment(path: str) -> Fragment:
    return serialize.fragment_from_obj(_read_json(path))


def _load_identities(path: str):
    obj = _read_json(path)
    if isinstance(obj, dict) and "identities" in obj:
        obj = obj["identities"]
    return serialize.identities_from_obj(obj)


def _geometry(fragment: Fragment) -> dict:
    states = fragment.state_matrix()
    center = states.mean(axis=0)
    centered = states - center
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    # + 0.0 turns the -0.0 an SVD or a product can leave into 0.0.
    axes = vt[: min(3, vt.shape[0])] + 0.0
    coords = centered @ axes.T + 0.0
    return {
        "axes": axes.tolist(),
        "center": (center + 0.0).tolist(),
        "states": [
            {"label": v.label, "coordinates": coords[i].tolist()}
            for i, v in enumerate(fragment.states)
        ],
    }


def _finish(args, obj: dict, fragment=None, tol=None) -> int:
    """Write the report; ``fragment`` is what ``--emit-geometry`` draws.

    ``tol`` is the rank tolerance the report's steps ran at, if any.  A
    subcommand that takes ``--seed`` echoes it: ``tomo-synth``, which
    draws from it, and ``pipeline``, which no longer reads it.
    """
    if tol is not None:
        obj["tolerances"] = {"rank": tol}
    if "seed" in args:
        obj.setdefault("seed", args.seed)
    if fragment is not None and args.emit_geometry:
        obj["geometry"] = _geometry(fragment)
    _write(dumps(obj), args.output)
    return 0


# -- subcommand handlers -------------------------------------------------


def _cmd_scenario(args) -> int:
    params = {}
    if args.dimension is not None:
        params["d"] = args.dimension
    if args.variant is not None:
        params["variant"] = args.variant
    bundle = build(args.name, **params)
    if args.with_stats:
        _write(dumps(serialize.statistics_to_obj(bundle.statistics)), args.with_stats)
    return _finish(args, serialize.fragment_to_obj(bundle.fragment), bundle.fragment)


def _cmd_validate(args) -> int:
    fragment = _load_fragment(args.fragment)
    report = validate(fragment, args.tol)
    obj = {
        "passed": report.passed,
        "violations": [
            {
                "kind": v.kind,
                "labels": list(v.labels),
                "magnitude": None if not np.isfinite(v.magnitude) else v.magnitude,
            }
            for v in report.violations
        ],
    }
    return _finish(args, obj, fragment, args.tol)


def _cmd_predict(args) -> int:
    fragment = _load_fragment(args.fragment)
    stats = predict(fragment, args.tol)
    return _finish(args, serialize.statistics_to_obj(stats), fragment, args.tol)


def _cmd_identities(args) -> int:
    fragment = _load_fragment(args.fragment)
    if args.marginalize:
        idents = induced_marginal_identities(fragment, args.marginalize, args.tol)
    else:
        idents = find_identities(fragment, args.side, args.tol)
    return _finish(args, {"identities": serialize.identities_to_obj(idents)}, tol=args.tol)


def _cmd_embed(args) -> int:
    fragment = _load_fragment(args.fragment)
    af = accessibilize(fragment, args.tol)
    result = test_embeddability(af)
    inequality = None if result.embeddable else violated_inequality(af, result.farkas_matrix)
    obj = serialize.certificate_to_obj(result, inequality)
    obj["accessible_dimension"] = af.dimension
    if result.embeddable:
        obj["model"] = serialize.model_to_obj(to_model(result.certificate, af))
    return _finish(args, obj, fragment, args.tol)


def _cmd_robustness(args) -> int:
    fragment = _load_fragment(args.fragment)
    af = accessibilize(fragment, args.tol)
    rob = robustness(af)
    obj = {
        "r_star": rob.r_star,
        "noise_center": rob.noise_center.tolist(),
        "residual": rob.certificate.residual,
    }
    return _finish(args, obj, fragment, args.tol)


def _cmd_membership(args) -> int:
    stats = serialize.statistics_from_obj(_read_json(args.statistics), args.tol)
    state_idents = _load_identities(args.identities) if args.identities else []
    effect_idents = (
        _load_identities(args.effect_identities) if args.effect_identities else []
    )
    result = membership(
        stats, state_idents, effect_idents, args.tol, provenance="membership-cli"
    )
    obj: dict = {"feasible": result.feasible}
    if result.feasible:
        obj["model"] = serialize.model_to_obj(result.model)
    else:
        obj["inequality"] = serialize.inequality_to_obj(result.inequality)
    return _finish(args, obj, tol=args.tol)


def _cmd_evaluate(args) -> int:
    obj = _read_json(args.inequality)
    # Accept bare inequality files and reports that nest one.
    if isinstance(obj, dict):
        obj = obj.get("inequality", obj.get("violated_inequality", obj))
    ineq = serialize.inequality_from_obj(obj)
    stats = serialize.statistics_from_obj(_read_json(args.statistics), args.tol)
    verdict = evaluate(ineq, stats, args.tol)
    obj = {"value": verdict.value, "bound": verdict.bound, "violated": verdict.violated}
    return _finish(args, obj, tol=args.tol)


def _cmd_secondary(args) -> int:
    if args.report_robustness and args.side == "effects":
        raise FormatError("--report-robustness applies to --side states only")
    fragment = _load_fragment(args.fragment)
    targets = _load_identities(args.identities)
    if args.side == "states":
        realized = [(v.label, v.vector) for v in fragment.states]
        sol = secondary_states(realized, targets)
    else:
        realized = [(v.label, v.vector) for v in fragment.effects]
        sol = secondary_effects(realized, fragment.unit_effect, targets)
    obj = serialize.secondary_to_obj(sol)
    tol = None
    if args.report_robustness and sol.feasible:
        # Experimental: robustness of the fragment with repaired states.
        repaired = replace(
            fragment,
            name=f"{fragment.name}+secondary",
            states=[
                GptVector(lab, sol.secondaries[i], "state")
                for i, lab in enumerate(sol.target_labels)
            ],
        )
        tol = max(args.tol, _FITTED_TOL_FLOOR)
        rob = robustness(accessibilize(repaired, tol))
        obj["secondary_robustness"] = {"r_star": rob.r_star, "experimental": True}
    return _finish(args, obj, tol=tol)


def _cmd_tomo_synth(args) -> int:
    fragment = _load_fragment(args.fragment)
    table = synth(fragment, args.trials, args.seed, args.tol)
    return _finish(args, serialize.counts_to_obj(table), tol=args.tol)


def _cmd_tomo_fit(args) -> int:
    counts = serialize.counts_from_obj(_read_json(args.counts))
    result = fit(counts, max_dimension=args.max_dim)
    obj = serialize.fragment_to_obj(result.fragment)
    obj["fit"] = {
        "dimension": result.dimension,
        "chi_squared": result.chi_squared,
        "dof": result.dof,
        "chi_squared_trace": [[k, c] for k, c in result.chi_squared_trace],
        "chi_squared_bounds": [[k, b] for k, b in result.chi_squared_bounds],
        "gauge": GAUGE_ID,
        "state_condition": result.state_condition,
        "effect_condition": result.effect_condition,
        "tomographic_completeness": "assumed, not certified",
    }
    return _finish(args, obj)


def _cmd_pipeline(args) -> int:
    counts = serialize.counts_from_obj(_read_json(args.counts))
    tol = max(args.tol, _FITTED_TOL_FLOOR)
    result = verdict_pipeline(counts, max_dimension=args.max_dim, tol=tol)
    obj = {
        "dimension": result.fit.dimension,
        "chi_squared": result.fit.chi_squared,
        "verdict": "embeddable" if result.embeddable else "not_embeddable",
        "strict_lp_verdict": "embeddable" if result.strictly_embeddable else "not_embeddable",
        "r_star": result.r_star,
        "noise_threshold": result.noise_threshold,
        "tomographic_completeness": "assumed, not certified",
    }
    return _finish(args, obj, tol=tol)


def _cmd_tensor(args) -> int:
    a = _load_fragment(args.fragment_a)
    b = _load_fragment(args.fragment_b)
    composite = tensor(a, b, args.tol)
    return _finish(args, serialize.fragment_to_obj(composite), composite, args.tol)


def _cmd_marginalize(args) -> int:
    fragment = _load_fragment(args.fragment)
    marginal = partial_trace(fragment, args.keep, args.tol)
    return _finish(args, serialize.fragment_to_obj(marginal), marginal, args.tol)


# -- parser ---------------------------------------------------------------


def _tolerance(text: str) -> float:
    """The ``--tol`` value: a finite, positive number."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, not {text!r}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="classicality",
        description="Classical-explainability analysis of prepare-measure GPT fragments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options shared by several subcommands; each takes only the ones it reads.
    tol, seed, geometry = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    tol.add_argument(
        "--tol",
        type=_tolerance,
        default=DEFAULT_RANK_TOL,
        help="rank/identity tolerance (default 1e-9), echoed in the report",
    )
    seed.add_argument(
        "--seed", type=int, default=0,
        help="seed of tomo-synth's draws (default 0), echoed; pipeline only echoes it",
    )
    geometry.add_argument(
        "--emit-geometry",
        action="store_true",
        help="add 2D/3D state-space cross-sections (coordinate lists) to the report",
    )

    def command(name, func, summary, *common):
        p = sub.add_parser(name, help=summary, parents=common)
        p.add_argument("-o", "--output", default="-", help="report path ('-' = stdout)")
        p.set_defaults(func=func)
        return p

    p = command("scenario", _cmd_scenario, "build a named example scenario", geometry)
    p.add_argument("name", choices=SCENARIO_NAMES)
    p.add_argument("--dimension", type=int, default=None, help="simplex dimension d")
    p.add_argument("--variant", choices=["A", "B"], default=None, help="lab-notebook variant")
    p.add_argument("--with-stats", default=None, help="also write exact statistics here")

    p = command("validate", _cmd_validate, "check fragment consistency", tol, geometry)
    p.add_argument("fragment")

    p = command(
        "predict", _cmd_predict, "exact outcome statistics of a fragment", tol, geometry
    )
    p.add_argument("fragment")

    p = command("identities", _cmd_identities, "operational identities of a fragment", tol)
    p.add_argument("fragment")
    p.add_argument("--side", choices=["states", "effects"], default="states")
    p.add_argument(
        "--marginalize",
        default=None,
        metavar="KEEP",
        help="find identities induced by marginalizing onto this subsystem",
    )

    p = command(
        "embed", _cmd_embed, "simplex-embeddability test with certificate", tol, geometry
    )
    p.add_argument("fragment")

    p = command(
        "robustness", _cmd_robustness, "depolarizing robustness of a fragment", tol, geometry
    )
    p.add_argument("fragment")

    p = command(
        "membership", _cmd_membership, "noncontextual-model membership of statistics", tol
    )
    p.add_argument("statistics")
    p.add_argument("--identities", default=None, help="state-identity file")
    p.add_argument("--effect-identities", default=None, help="effect-identity file")

    p = command("evaluate", _cmd_evaluate, "evaluate an inequality on statistics", tol)
    p.add_argument("inequality")
    p.add_argument("statistics")

    p = command(
        "secondary", _cmd_secondary, "secondary states/effects meeting identities", tol
    )
    p.add_argument("fragment")
    p.add_argument("--identities", required=True, help="target identity file")
    p.add_argument("--side", choices=["states", "effects"], default="states")
    p.add_argument(
        "--report-robustness",
        action="store_true",
        help="experimental, states only: robustness of the repaired fragment",
    )

    p = command(
        "tomo-synth", _cmd_tomo_synth, "simulate finite-count statistics", tol, seed
    )
    p.add_argument("fragment")
    p.add_argument("--trials", type=int, required=True, help="trials per cell")

    p = command("tomo-fit", _cmd_tomo_fit, "fit dimension and vectors to counts")
    p.add_argument("counts")
    p.add_argument("--max-dim", type=int, default=6)

    p = command(
        "pipeline", _cmd_pipeline, "counts -> fit -> embeddability verdict", tol, seed
    )
    p.add_argument("counts")
    p.add_argument("--max-dim", type=int, default=6)

    p = command(
        "tensor", _cmd_tensor, "Kronecker composite of two fragments", tol, geometry
    )
    p.add_argument("fragment_a")
    p.add_argument("fragment_b")

    p = command(
        "marginalize", _cmd_marginalize, "partial trace onto one subsystem", tol, geometry
    )
    p.add_argument("fragment")
    p.add_argument("--keep", required=True, help="subsystem to keep")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
