"""The benchmark's workloads: one pass is a fixed, seeded list of ops.

An op is one user-level request -- one CLI invocation, or one fragment
taken to a verdict with its certificate.  ``run`` is the timed part and
looks every package function up at call time, so the tracer's wrappers
see it.  ``collect`` (untimed) turns the raw result into the output that
``digest`` fingerprints and ``check`` verifies; identical outputs across
passes are verified once.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import classicality as C
from classicality import cli, serialize
from classicality.noncontextuality import MAX_OUTCOME_PRODUCT

from . import gate
from . import inputs as I

NAMES = ("canonical-cli", "geometry-sweep", "counts-pipeline", "defects")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    collect: Callable[[Any], Any] = lambda raw: raw
    digest: Callable[[Any], str] = lambda out: _digest(out)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    describe: Callable[[], list[str]]  # serialized generated inputs, for the fingerprint
    cross_check: Callable[[dict[str, Any]], dict[str, list[str]]] = lambda outs: {}
    start_pass: Callable[[int], None] = lambda index: None  # draws the pass's seeded inputs
    order: Callable[[int], list[int]] | None = None  # op indices of a pass; default: as listed
    # The shortest run.  With 21 or more ops per pass it holds at least 100
    # ops, so the tail percentile (metrics.tail) is p90 or higher in every run.
    min_passes: int = 5

    def pass_order(self, index: int) -> list[int]:
        return self.order(index) if self.order else list(range(len(self.ops)))

    def fingerprint(self) -> str:
        return hashlib.sha256("\x00".join(self.describe()).encode("utf-8")).hexdigest()


def _digest(*parts) -> str:
    h = hashlib.sha1()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(repr(x.shape).encode())
            h.update(np.ascontiguousarray(x, dtype=float).tobytes())
        elif isinstance(x, (list, tuple)):
            for y in x:
                feed(y)
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(str(k).encode())
                feed(x[k])
        else:
            h.update(repr(x).encode())

    feed(parts)
    return h.hexdigest()


def build(name: str, seed: int, workdir: str) -> Workload:
    """The workload's ops for one seed; CLI files go under ``workdir``."""
    if name == "canonical-cli":
        os.makedirs(workdir, exist_ok=True)
        return _canonical_cli(seed, workdir)
    if name == "geometry-sweep":
        items = [(f"polygon-{n}", I.regular_polygon(n)) for n in I.POLYGON_SIDES]
        items += [(f"{a}x{b}", I.composite(a, b)) for a, b in I.COMPOSITES]
        return _library_workload(name, seed, items, [])
    if name == "counts-pipeline":
        return _library_workload(name, seed, [], I.count_inputs(I.COUNT_TABLES, seed))
    if name == "defects":
        items = [(f"polygon-{n}", I.regular_polygon(n)) for n in I.DEFECT_POLYGON_SIDES]
        items += [(f"{a}x{b}", I.composite(a, b)) for a, b in I.DEFECT_COMPOSITES]
        counts = I.count_inputs(I.DEFECT_COUNT_TABLES, seed)
        for trials, synth_seed, fit_seed in I.DEFECT_STAB_DRAWS:
            draw = I.count_inputs((("stab", trials, 1),), seed)[0]
            draw.pinned = (synth_seed, fit_seed)
            counts.append(draw)
        wl = _library_workload(name, seed, items, counts)
        wl.ops.append(_noisy_stab_secondary())
        wl.min_passes = 1  # one pass takes about 40 s
        return wl
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")


# -- library workloads: geometry-sweep, counts-pipeline, defects -----------


def _truth(name: str) -> bool:
    if name.startswith("polygon-"):
        return False  # a regular n-gon with n >= 4 is not a simplex
    a, b = name.split("x")
    return I.SCENARIOS[a][3] and I.SCENARIOS[b][3]


def _analyze(fragment):
    """accessibilize -> test_embeddability -> robustness -> model or inequality."""
    af = C.accessibilize(fragment)
    emb = C.test_embeddability(af)
    rob = C.robustness(af)
    out = {"af": af, "emb": emb, "rob": rob}
    if emb.embeddable:
        out["model"] = C.to_model(emb.certificate, af)
    else:
        stats = C.predict(fragment)
        state_ids, effect_ids = C.accessible_identities(af)
        try:
            out["mem"] = C.membership(
                stats, state_ids, effect_identities=effect_ids,
                provenance=f"embed:{fragment.name}",
            )
        except C.ResourceLimitError as exc:
            out["limit"] = str(exc)
    return out


def _analysis_digest(out) -> str:
    emb, rob = out["emb"], out["rob"]
    parts = [emb.embeddable, rob.r_star, rob.certificate.beta, out.get("limit")]
    if emb.embeddable:
        parts += [emb.certificate.beta, out["model"].mu, out["model"].xi]
    else:
        parts.append(emb.farkas_matrix)
    if "mem" in out:
        mem = out["mem"]
        parts.append(mem.feasible)
        if mem.inequality is not None:
            parts += [mem.inequality.coefficients, mem.inequality.bound]
    return _digest(*parts)


def _analysis_check(fragment, truth: bool):
    def check(out) -> list[str]:
        af = out["af"]
        stats = C.predict(fragment)
        ids = C.accessible_identities(af)
        problems = gate.embed_problems(fragment, af, out["emb"], out["rob"], truth, stats, ids)
        if "model" in out:
            problems += gate.model_problems(out["model"], stats, *ids)
        product = int(np.prod([max(1, len(m.effects)) for m in fragment.measurements]))
        over_limit = product > MAX_OUTCOME_PRODUCT
        if "limit" in out and not over_limit:
            problems.append(f"unexpected resource limit: {out['limit']}")
        if not out["emb"].embeddable and over_limit and "limit" not in out:
            problems.append(f"outcome product {product} above the limit was accepted")
        if "mem" in out:
            mem = out["mem"]
            if mem.feasible:
                problems.append("membership feasible for a non-embeddable fragment")
            else:
                problems += gate.inequality_problems(mem.inequality, stats)
        return problems

    return check


def _pipeline_check(item: I.CountInput):
    def check(res) -> list[str]:
        problems = []
        if res.fit.dimension != item.dimension:
            problems.append(f"fitted dimension {res.fit.dimension}, truth {item.dimension}")
        if res.embeddable != item.embeddable:
            problems.append(f"verdict embeddable={res.embeddable}, truth {item.embeddable}")
        af = C.accessibilize(res.fit.fragment, 1e-6)
        h, d = gate.ray_pair(af)
        r_ref = gate.highs_r_star(h, d, af)
        if abs(res.r_star - r_ref) > gate.R_STAR_TOL:
            problems.append(f"r* {res.r_star:.9f} differs from HiGHS {r_ref:.9f}")
        return problems

    return check


def _pipeline_digest(res) -> str:
    return _digest(res.fit.dimension, res.fit.chi_squared, res.embeddable, res.r_star,
                   res.fit.fragment.state_matrix(), res.fit.fragment.effect_matrix())


def _library_workload(name, seed, items, counts) -> Workload:
    ops = []
    for label, fragment in items:
        ops.append(Op(
            name=label,
            run=lambda f=fragment: _analyze(f),
            check=_analysis_check(fragment, _truth(label)),
            digest=_analysis_digest,
        ))
    seeds = {}  # count input name -> (synth seed, fit seed) of the current pass
    for item in counts:
        ops.append(Op(
            name=item.name,
            run=lambda c=item: C.verdict_pipeline(
                C.synth(c.fragment, c.trials, seeds[c.name][0]), seed=seeds[c.name][1]),
            check=_pipeline_check(item),
            digest=_pipeline_digest,
        ))
    def order(index):
        # A fresh seeded order every pass: what an op leaves behind (heap and
        # cache state, where a garbage collection falls) moves the next op's
        # time, so one order kept for a whole run would shift its figures.
        return I.order(seed, f"{name}:{index}", len(ops))

    def start_pass(index):
        seeds.update({c.name: c.seeds(index) for c in counts})

    def describe():
        text = [serialize.dumps(serialize.fragment_to_obj(f)) for _, f in items]
        for index in range(2):
            text += [serialize.dumps(serialize.counts_to_obj(c.counts(index))) + repr(c.seeds(index))
                     for c in counts]
        return text + [json.dumps([order(index) for index in range(2)])]

    start_pass(0)
    return Workload(name, ops, describe, cross_check=_geometry_cross_check, start_pass=start_pass,
                    order=order)


def _geometry_cross_check(outs: dict[str, Any]) -> dict[str, list[str]]:
    """Physics oracles across ops: the square's r*, and factor-order symmetry."""
    problems: dict[str, list[str]] = {}
    square = outs.get("polygon-4")
    if square is not None and abs(square["rob"].r_star - 0.5) > gate.R_STAR_TOL:
        problems["polygon-4"] = [f"square r* {square['rob'].r_star:.9f}, expected 1/2"]
    for label, out in outs.items():
        if label.startswith("polygon-") or ":" in label:
            continue
        a, b = label.split("x")
        twin = outs.get(f"{b}x{a}")
        if twin is None or a == b:
            continue
        if twin["emb"].embeddable != out["emb"].embeddable:
            problems.setdefault(label, []).append(f"verdict differs from {b}x{a}")
        if abs(twin["rob"].r_star - out["rob"].r_star) > 1e-7:
            problems.setdefault(label, []).append(f"r* differs from {b}x{a}")
    return problems


# -- canonical-cli ---------------------------------------------------------

CLI_SCENARIOS = ("pr", "med", "labA", "labB", "stab", "bit", "tri")
CLI_PIPELINE = ("pr", "labA", "bit", "tri")  # count tables cheap enough to fit per call
CLI_TRIALS = 10_000
MEMBERSHIP_FEASIBLE = {"pr": False}  # raw identities; every other scenario is feasible


def _read(path: str) -> Any:
    with open(path, "rb") as fh:
        return fh.read()


def _cli_op(name: str, argv, outputs: list[str], check) -> Op:
    """One CLI call; ``argv`` is a list, or a callable giving the current pass's list."""
    argv_now = argv if callable(argv) else (lambda: argv)

    def collect(code):
        return code, [_read(p) if os.path.exists(p) else None for p in outputs]

    def checked(out):
        code, blobs = out
        if code != 0:
            return [f"exit code {code}"]
        if any(b is None for b in blobs):
            return ["missing output file"]
        return check(*[json.loads(b) for b in blobs])

    return Op(
        name=name,
        run=lambda: cli.main(argv_now()),
        collect=collect,
        check=checked,
        digest=lambda out: _digest(out[0], [b or b"" for b in out[1]]),
    )


def _model_from_report(obj, fragment):
    return C.OntologicalModel(
        ontic_labels=list(obj["ontic_states"]),
        preparations=[s.label for s in fragment.states],
        measurements=[m.label for m in fragment.measurements],
        outcomes=[list(m.effects) for m in fragment.measurements],
        mu=np.array(obj["mu"], dtype=float).reshape(len(fragment.states), -1),
        xi=[np.array(x, dtype=float).reshape(len(m.effects), -1)
            for x, m in zip(obj["xi"], fragment.measurements)],
    )


class _PassSeed:
    """Seed of tomo-synth and pipeline for the current pass, from the workload seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.issued: set[int] = set()
        self.start(0)

    def start(self, index: int) -> None:
        self.value = I.derived_seed(self.seed, f"tomo-synth:{index}")
        self.issued.add(self.value)


def _scenario_ops(key: str, w: str, synth_seed: _PassSeed) -> list[Op]:
    name, params, dim, embeddable = I.SCENARIOS[key]
    frag = I.scenario(key)
    p = {s: os.path.join(w, f"{key}.{s}.json") for s in (
        "frag", "stats", "validate", "predict", "sid", "eid", "embed", "rob", "mem",
        "eval-embed", "eval-mem", "counts", "pipeline")}
    extra = []
    if "d" in params:
        extra += ["--dimension", str(params["d"])]
    if "variant" in params:
        extra += ["--variant", params["variant"]]

    @functools.cache
    def ref():
        """Reference values for the checks, computed when the gate first runs."""
        af = C.accessibilize(frag)
        return {
            "stats": C.predict(frag), "af": af, "rays": gate.ray_pair(af),
            "sid": C.find_identities(frag, "states"), "eid": C.find_identities(frag, "effects"),
        }

    def check_scenario(obj, stats_obj):
        got = serialize.fragment_from_obj(obj)
        problems = []
        if not (np.array_equal(got.state_matrix(), frag.state_matrix())
                and np.array_equal(got.effect_matrix(), frag.effect_matrix())):
            problems.append("fragment file differs from the scenario")
        tables = serialize.statistics_from_obj(stats_obj).tables
        if any(np.max(np.abs(a - b)) > 1e-12 for a, b in zip(tables, ref()["stats"].tables)):
            problems.append("statistics file differs from the scenario")
        return problems

    def check_validate(obj):
        return [] if obj["passed"] and not obj["violations"] else ["validation failed"]

    def check_predict(obj):
        got = serialize.statistics_from_obj(obj)
        problems = []
        for y, m in enumerate(frag.measurements):
            direct = frag.state_matrix() @ np.array([frag.effect(lab) for lab in m.effects]).T
            if np.max(np.abs(got.tables[y] - direct)) > 1e-12:
                problems.append(f"prediction for {m.label} differs from the direct product")
        return problems

    def check_ids(side):
        return lambda obj: gate.identity_problems(
            serialize.identities_from_obj(obj["identities"]), gate.side_vectors(frag, side))

    def check_embed(obj):
        stats, af, (h, d) = ref()["stats"], ref()["af"], ref()["rays"]
        problems = []
        if (obj["verdict"] == "embeddable") != embeddable:
            problems.append(f"verdict {obj['verdict']}, truth embeddable={embeddable}")
        if obj["accessible_dimension"] != dim:
            problems.append(f"accessible dimension {obj['accessible_dimension']}, truth {dim}")
        if obj["verdict"] == "embeddable":
            hr, dr = np.array(obj["h_rays"]), np.array(obj["d_rays"])
            beta = np.zeros((hr.shape[0], dr.shape[0]))
            for i, j, b in obj["beta"]:
                beta[i, j] = b
            problems += gate.decomposition_problems(beta, hr, dr, np.eye(dim))
            problems += gate.model_problems(
                _model_from_report(obj["model"], frag), stats, *C.accessible_identities(af))
        else:
            problems += gate.farkas_problems(np.array(obj["farkas"]).reshape(dim, dim), h, d)
            problems += gate.inequality_problems(
                serialize.inequality_from_obj(obj["violated_inequality"]), stats)
        if gate.highs_embeddable(h, d) != (obj["verdict"] == "embeddable"):
            problems.append("HiGHS re-solve disagrees with the verdict")
        return problems

    def check_rob(obj):
        r_ref = gate.highs_r_star(*ref()["rays"], ref()["af"])
        problems = []
        if abs(obj["r_star"] - r_ref) > gate.R_STAR_TOL:
            problems.append(f"r* {obj['r_star']:.9f} differs from HiGHS {r_ref:.9f}")
        oracle = 0.0 if embeddable else (0.5 if key in ("pr", "labA") else None)
        if oracle is not None and abs(obj["r_star"] - oracle) > gate.R_STAR_TOL:
            problems.append(f"r* {obj['r_star']:.9f}, expected {oracle}")
        return problems

    def check_mem(obj):
        stats = ref()["stats"]
        want = MEMBERSHIP_FEASIBLE.get(key, True)
        if obj["feasible"] != want:
            return [f"membership feasible={obj['feasible']}, expected {want}"]
        if want:
            return gate.model_problems(
                _model_from_report(obj["model"], frag), stats, ref()["sid"], ref()["eid"])
        return gate.inequality_problems(serialize.inequality_from_obj(obj["inequality"]), stats)

    def check_eval(obj):
        return [] if obj["violated"] and obj["value"] > obj["bound"] else ["inequality not violated"]

    def check_counts(obj):
        counts = serialize.counts_from_obj(obj)
        problems = []
        if counts.seed not in synth_seed.issued or np.any(counts.trials != CLI_TRIALS):
            problems.append("counts echo the wrong seed or trials")
        for y, freq in enumerate(counts.frequencies()):
            p = ref()["stats"].tables[y]
            sigma = np.sqrt(p * (1 - p) / CLI_TRIALS)
            if np.any(np.abs(freq - p) > 6 * sigma + 1e-12):
                problems.append(f"frequencies for {counts.measurements[y]} beyond 6 sigma")
        return problems

    def check_pipeline(obj):
        problems = []
        if obj["dimension"] != dim:
            problems.append(f"fitted dimension {obj['dimension']}, truth {dim}")
        if (obj["verdict"] == "embeddable") != embeddable:
            problems.append(f"pipeline verdict {obj['verdict']}, truth embeddable={embeddable}")
        return problems

    ops = [
        _cli_op(f"cli:scenario:{key}", ["scenario", name, *extra, "--with-stats", p["stats"],
                "-o", p["frag"]], [p["frag"], p["stats"]], check_scenario),
        _cli_op(f"cli:validate:{key}", ["validate", p["frag"], "-o", p["validate"]],
                [p["validate"]], check_validate),
        _cli_op(f"cli:predict:{key}", ["predict", p["frag"], "-o", p["predict"]],
                [p["predict"]], check_predict),
        _cli_op(f"cli:identities-states:{key}", ["identities", p["frag"], "--side", "states",
                "-o", p["sid"]], [p["sid"]], check_ids("states")),
        _cli_op(f"cli:identities-effects:{key}", ["identities", p["frag"], "--side", "effects",
                "-o", p["eid"]], [p["eid"]], check_ids("effects")),
        _cli_op(f"cli:embed:{key}", ["embed", p["frag"], "-o", p["embed"]], [p["embed"]], check_embed),
        _cli_op(f"cli:robustness:{key}", ["robustness", p["frag"], "-o", p["rob"]], [p["rob"]], check_rob),
        _cli_op(f"cli:membership:{key}", ["membership", p["stats"], "--identities", p["sid"],
                "--effect-identities", p["eid"], "-o", p["mem"]], [p["mem"]], check_mem),
        _cli_op(f"cli:tomo-synth:{key}", lambda: ["tomo-synth", p["frag"], "--trials", str(CLI_TRIALS),
                "--seed", str(synth_seed.value), "-o", p["counts"]], [p["counts"]], check_counts),
    ]
    if not embeddable:
        ops.append(_cli_op(f"cli:evaluate-embed:{key}", ["evaluate", p["embed"], p["stats"],
                           "-o", p["eval-embed"]], [p["eval-embed"]], check_eval))
    if not MEMBERSHIP_FEASIBLE.get(key, True):
        ops.append(_cli_op(f"cli:evaluate-membership:{key}", ["evaluate", p["mem"], p["stats"],
                           "-o", p["eval-mem"]], [p["eval-mem"]], check_eval))
    if key in CLI_PIPELINE:
        ops.append(_cli_op(f"cli:pipeline:{key}", lambda: ["pipeline", p["counts"], "--seed",
                           str(synth_seed.value), "-o", p["pipeline"]], [p["pipeline"]], check_pipeline))
    return ops


def _composite_ops(w: str) -> list[Op]:
    """tensor, marginalize and induced identities; they read the scenario files."""
    ops = []
    for a, b, keep in (("bit", "pr", "boxworld-pr"), ("pr", "bit", "simplex-2")):
        fa, fb = I.scenario(a), I.scenario(b)
        kept = fb
        t_path = os.path.join(w, f"{a}x{b}.json")
        m_path = os.path.join(w, f"{a}x{b}.marginal.json")

        def check_tensor(obj, fa=fa, fb=fb):
            got = serialize.fragment_from_obj(obj)
            if got.dimension != fa.dimension * fb.dimension:
                return [f"composite dimension {got.dimension}"]
            table = lambda f: f.state_matrix() @ f.effect_matrix().T
            if np.max(np.abs(table(got) - np.kron(table(fa), table(fb)))) > 1e-12:
                return ["composite probabilities do not factorize"]
            return []

        def check_marginal(obj, kept=kept):
            # The kept factor is the second one: composite state i*n + j traces to j.
            got = serialize.fragment_from_obj(obj)
            n = len(kept.states)
            diff = max(float(np.max(np.abs(s.vector - kept.states[i % n].vector)))
                       for i, s in enumerate(got.states))
            return [] if diff <= 1e-12 else [f"marginal states off by {diff:.3e}"]

        ops.append(_cli_op(f"cli:tensor:{a}x{b}", ["tensor", os.path.join(w, f"{a}.frag.json"),
                           os.path.join(w, f"{b}.frag.json"), "-o", t_path], [t_path], check_tensor))
        ops.append(_cli_op(f"cli:marginalize:{a}x{b}", ["marginalize", t_path, "--keep", keep,
                           "-o", m_path], [m_path], check_marginal))
    for key in ("labA", "labB"):
        frag = I.scenario(key)
        units = frag.subsystem_units
        dims = [d for _, d in frag.subsystems]
        traced = [(s.label, s.vector.reshape(dims) @ units[1]) for s in frag.states]
        out = os.path.join(w, f"{key}.marginal-ids.json")
        ops.append(_cli_op(
            f"cli:identities-marginal:{key}",
            ["identities", os.path.join(w, f"{key}.frag.json"), "--marginalize", "S", "-o", out], [out],
            lambda obj, traced=traced: gate.identity_problems(
                serialize.identities_from_obj(obj["identities"]), traced),
        ))
    return ops


def _secondary_check(noisy, targets):
    labels = [v.label for v in noisy.states]
    realized = noisy.state_matrix()

    def check(weights, secondaries) -> list[str]:
        problems = []
        if np.min(weights) < -1e-9 or np.max(np.abs(weights.sum(axis=1) - 1)) > 1e-9:
            problems.append("mixing weights are not row-stochastic")
        if np.max(np.abs(weights @ realized - secondaries)) > 1e-9:
            problems.append("secondaries are not the stated mixtures")
        vec = dict(zip(labels, secondaries))
        for ident in targets:
            total = sum(c * vec[lab] for lab, c in ident.terms)
            if np.max(np.abs(total)) > 1e-8:
                problems.append(f"target identity residual {np.max(np.abs(total)):.3e}")
        return problems

    return check


def _secondary_op(w: str, seed: int) -> tuple[Op, str]:
    """secondary on a seeded noisy copy of boxworld-pr, against its exact identities."""
    noisy = I.noisy_copy(I.scenario("pr"), seed, "pr")
    text = serialize.dumps(serialize.fragment_to_obj(noisy))
    path = os.path.join(w, "pr.noisy.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    out = os.path.join(w, "pr.secondary.json")

    def check(obj):
        if not obj["feasible"]:
            return ["secondary states infeasible"]
        targets = C.find_identities(I.scenario("pr"), "states")
        return _secondary_check(noisy, targets)(np.array(obj["weights"]), np.array(obj["secondaries"]))

    op = _cli_op(
        "cli:secondary:pr",
        ["secondary", path, "--identities", os.path.join(w, "pr.sid.json"), "--side", "states", "-o", out],
        [out],
        check,
    )
    return op, text


def _noisy_stab_secondary() -> Op:
    """Library secondary_states on a noisy stabilizer copy that fails today."""
    noisy = I.noisy_copy(I.scenario("stab"), I.DEFECT_NOISY_STAB_SEED, "stab")
    targets = C.find_identities(I.scenario("stab"), "states")
    check = _secondary_check(noisy, targets)
    return Op(
        name=f"secondary:stab-noise-{I.DEFECT_NOISY_STAB_SEED}",
        run=lambda: C.secondary_states([(v.label, v.vector) for v in noisy.states], targets),
        check=lambda sol: check(sol.weights, sol.secondaries) if sol.feasible else ["infeasible"],
        digest=lambda sol: _digest(sol.feasible, sol.weights, sol.secondaries),
    )


def _canonical_cli(seed: int, w: str) -> Workload:
    synth_seed = _PassSeed(seed)
    perm = I.order(seed, "canonical-cli", len(CLI_SCENARIOS))
    ops = []
    for i in perm:
        ops += _scenario_ops(CLI_SCENARIOS[i], w, synth_seed)
    secondary, noisy_text = _secondary_op(w, seed)
    ops += _composite_ops(w) + [secondary]
    seeds = [I.derived_seed(seed, f"tomo-synth:{index}") for index in range(2)]
    describe = lambda: [noisy_text, json.dumps(perm), json.dumps(seeds)]
    return Workload("canonical-cli", ops, describe, start_pass=synth_seed.start)
