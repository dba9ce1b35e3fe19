import inspect
import json
import os
import shlex
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from classicality import cli, embedding, lp, noncontextuality, serialize, tomography
from classicality.cli import build_parser, main
from classicality.fragments import StatisticsTable

REPO = Path(__file__).resolve().parents[1]


def _checkout_env():
    """The environment for a fresh Python process that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_cli(tmp_path, *argv):
    # crc32, not hash(): str hashing is salted per process, and the full
    # 32-bit value keeps distinct argv in one test on distinct files.
    key = zlib.crc32("\0".join(argv).encode())
    out = tmp_path / f"out{key:08x}.json"
    code = main([*argv, "-o", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, out


def test_scenario_validate_predict_chain(tmp_path):
    code, frag, frag_path = run_cli(tmp_path, "scenario", "boxworld-pr")
    assert code == 0
    assert frag["dimension"] == 3
    assert "tolerances" not in frag  # building a scenario decides no rank

    code, report, _ = run_cli(tmp_path, "validate", str(frag_path))
    assert code == 0 and report["passed"]

    code, stats, stats_path = run_cli(tmp_path, "predict", str(frag_path))
    assert code == 0
    assert stats["preparations"] == ["s0|0", "s1|0", "s0|1", "s1|1"]

    code, idents, idents_path = run_cli(
        tmp_path, "identities", str(frag_path), "--side", "states"
    )
    assert code == 0 and len(idents["identities"]) == 1

    code, mem, mem_path = run_cli(
        tmp_path, "membership", str(stats_path), "--identities", str(idents_path)
    )
    assert code == 0
    assert mem["feasible"] is False
    assert mem["inequality"]["bound"] == pytest.approx(0.75, abs=1e-9)

    code, verdict, _ = run_cli(
        tmp_path, "evaluate", str(mem_path), str(stats_path)
    )
    assert code == 0
    assert verdict["violated"] is True
    assert verdict["value"] == pytest.approx(1.0, abs=1e-9)


def test_embed_reports_verdict_not_exit_code(tmp_path):
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    code, report, _ = run_cli(tmp_path, "embed", str(pr))
    assert code == 0
    assert report["verdict"] == "not_embeddable"
    assert "farkas" in report and "violated_inequality" in report

    _, _, s4 = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "4")
    code, report, _ = run_cli(tmp_path, "embed", str(s4))
    assert code == 0
    assert report["verdict"] == "embeddable"
    assert report["residual"] <= 1e-7


def test_embed_of_a_slightly_unnormalized_stabilizer_fragment(tmp_path):
    # Off normalization by 1e-7, within --tol: the decomposition LP's phase 1
    # once ended in an unbounded ray of the rounded tableau (exit 1).
    _, frag, frag_path = run_cli(tmp_path, "scenario", "qubit-stabilizer")
    frag["states"][0]["vector"] = [v * (1.0 + 1e-7) for v in frag["states"][0]["vector"]]
    frag_path.write_text(json.dumps(frag))
    code, report, _ = run_cli(tmp_path, "embed", str(frag_path), "--tol", "1e-6")
    assert code == 0
    assert report["verdict"] == "embeddable"
    assert report["residual"] <= 1e-7


def test_state_identities_of_a_slightly_unnormalized_fragment_hold_after_renormalizing(tmp_path):
    # Off normalization by 1e-7, within --tol: the identities found at --tol
    # have coefficient sums off by about 1e-7 until membership scales them
    # by the row sums it renormalizes.
    _, frag, frag_path = run_cli(tmp_path, "scenario", "boxworld-pr")
    frag["states"][0]["vector"] = [v * (1.0 + 1e-7) for v in frag["states"][0]["vector"]]
    frag_path.write_text(json.dumps(frag))
    code, report, _ = run_cli(tmp_path, "embed", str(frag_path), "--tol", "1e-6")
    assert code == 0
    assert report["verdict"] == "not_embeddable"
    assert report["violated_inequality"]["bound"] == pytest.approx(0.75, abs=1e-9)

    tol = ("--tol", "1e-6")
    _, _, stats = run_cli(tmp_path, "predict", str(frag_path), *tol)
    _, _, sids = run_cli(tmp_path, "identities", str(frag_path), "--side", "states", *tol)
    code, mem, _ = run_cli(tmp_path, "membership", str(stats), "--identities", str(sids), *tol)
    assert code == 0 and mem["feasible"] is False
    assert mem["inequality"]["bound"] == pytest.approx(0.75, abs=1e-9)


def test_robustness_report(tmp_path):
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    code, report, _ = run_cli(tmp_path, "robustness", str(pr))
    assert code == 0
    assert report["r_star"] == pytest.approx(0.5, abs=1e-6)


def test_secondary_cli(tmp_path):
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    _, _, idents = run_cli(tmp_path, "identities", str(pr), "--side", "states")
    code, report, _ = run_cli(
        tmp_path, "secondary", str(pr), "--identities", str(idents)
    )
    assert code == 0
    assert report["feasible"] is True
    assert np.allclose(report["primary_weight"], 1.0, atol=1e-9)


def test_tomography_chain(tmp_path):
    _, _, frag = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "2")
    code, counts, counts_path = run_cli(
        tmp_path, "tomo-synth", str(frag), "--trials", "5000", "--seed", "11"
    )
    assert code == 0
    assert counts["seed"] == 11

    code, fitrep, fit_path = run_cli(
        tmp_path, "tomo-fit", str(counts_path), "--seed", "1"
    )
    assert code == 0
    assert fitrep["fit"]["dimension"] == 2
    # The fitted fragment is itself a valid fragment file.
    code, report, _ = run_cli(tmp_path, "embed", str(fit_path))
    assert code == 0 and report["verdict"] == "embeddable"

    code, pipe, _ = run_cli(tmp_path, "pipeline", str(counts_path), "--seed", "1")
    assert code == 0
    assert pipe["verdict"] == "embeddable"
    assert pipe["tolerances"] == {"rank": 1e-7}  # the pipeline floors --tol at 1e-7
    assert pipe["r_star"] == pytest.approx(0.0, abs=0.01)


def test_tensor_marginalize_chain(tmp_path):
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    _, _, bit = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "2")
    code, comp, comp_path = run_cli(tmp_path, "tensor", str(pr), str(bit))
    assert code == 0
    assert comp["dimension"] == 6
    keep = comp["subsystems"][0]["name"]
    code, marg, _ = run_cli(tmp_path, "marginalize", str(comp_path), "--keep", keep)
    assert code == 0
    assert marg["dimension"] == 3


def test_lab_notebook_cli_identities(tmp_path):
    _, _, ln = run_cli(tmp_path, "scenario", "lab-notebook")
    code, bare, _ = run_cli(tmp_path, "identities", str(ln), "--side", "states")
    assert code == 0 and bare["identities"] == []
    code, induced, _ = run_cli(
        tmp_path, "identities", str(ln), "--marginalize", "S"
    )
    assert code == 0
    assert len(induced["identities"]) == 1
    assert induced["identities"][0]["keep_subsystem"] == "S"


def test_scenario_with_stats_sidecar(tmp_path):
    stats_path = tmp_path / "stats.json"
    code, frag, _ = run_cli(
        tmp_path, "scenario", "boxworld-pr", "--with-stats", str(stats_path)
    )
    assert code == 0
    stats = json.loads(stats_path.read_text())
    assert stats["p"][0][0] == [1.0, 0.0]  # deterministic square statistics
    # The sidecar is a valid membership input.
    code, mem, _ = run_cli(tmp_path, "membership", str(stats_path))
    assert code == 0 and mem["feasible"] is True  # no identities supplied


def test_statistics_file_rejects_out_of_range(tmp_path):
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    _, stats, stats_path = run_cli(tmp_path, "predict", str(pr))
    obj = json.loads(stats_path.read_text())
    obj["p"][0][0] = [1.5, -0.5]
    stats_path.write_text(json.dumps(obj))
    assert main(["membership", str(stats_path), "-o", str(tmp_path / "x.json")]) == 2


def test_effect_identities_and_membership_with_them(tmp_path):
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    code, eids, eids_path = run_cli(
        tmp_path, "identities", str(pr), "--side", "effects"
    )
    assert code == 0 and len(eids["identities"]) == 2
    _, _, stats_path = run_cli(tmp_path, "predict", str(pr))
    _, _, sids_path = run_cli(tmp_path, "identities", str(pr), "--side", "states")
    code, mem, _ = run_cli(
        tmp_path,
        "membership",
        str(stats_path),
        "--identities",
        str(sids_path),
        "--effect-identities",
        str(eids_path),
    )
    assert code == 0 and mem["feasible"] is False


def test_validate_reports_failures(tmp_path):
    _, frag, frag_path = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "2")
    obj = json.loads(frag_path.read_text())
    obj["states"][0]["vector"] = [2.0, 0.0]  # breaks state normalization
    frag_path.write_text(json.dumps(obj))
    code, report, _ = run_cli(tmp_path, "validate", str(frag_path))
    assert code == 0
    assert report["passed"] is False
    kinds = {v["kind"] for v in report["violations"]}
    assert "state normalization" in kinds


def test_secondary_experimental_robustness_chain(tmp_path):
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    _, _, idents = run_cli(tmp_path, "identities", str(pr), "--side", "states")
    code, report, _ = run_cli(
        tmp_path,
        "secondary",
        str(pr),
        "--identities",
        str(idents),
        "--report-robustness",
    )
    assert code == 0
    assert report["secondary_robustness"]["experimental"] is True
    # Exact states repaired to themselves: robustness equals the original.
    assert report["secondary_robustness"]["r_star"] == pytest.approx(0.5, abs=1e-6)
    # The repaired fragment is projected and solved at the 1e-7 floor, as echoed.
    assert report["tolerances"] == {"rank": 1e-7}


def test_evaluate_accepts_bare_inequality_file(tmp_path):
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    _, _, stats_path = run_cli(tmp_path, "predict", str(pr))
    _, _, sids_path = run_cli(tmp_path, "identities", str(pr), "--side", "states")
    _, mem, mem_path = run_cli(
        tmp_path, "membership", str(stats_path), "--identities", str(sids_path)
    )
    bare = tmp_path / "bare-ineq.json"
    bare.write_text(json.dumps(mem["inequality"]))
    code, verdict, _ = run_cli(tmp_path, "evaluate", str(bare), str(stats_path))
    assert code == 0 and verdict["violated"] is True


def test_ragged_outcome_tomography_round_trip(tmp_path):
    # The record mediary mixes binary and four-outcome measurements.
    _, _, frag = run_cli(tmp_path, "scenario", "boxworld-classical-mediary")
    code, _, counts_path = run_cli(
        tmp_path, "tomo-synth", str(frag), "--trials", "20000", "--seed", "3"
    )
    assert code == 0
    code, pipe, _ = run_cli(tmp_path, "pipeline", str(counts_path), "--seed", "2")
    assert code == 0
    assert pipe["dimension"] == 4
    assert pipe["verdict"] == "embeddable"


def test_embed_report_carries_inequality_even_after_quotient(tmp_path):
    # A record mediary without the record readout: realized effects span a
    # 3-dim subspace and the accessible projection collapses the four
    # point states onto the square, so embed says not_embeddable.  The
    # report's inequality must match that verdict, which requires the
    # identities of the projected vectors, not the raw (identity-free)
    # ones.
    _, frag, frag_path = run_cli(tmp_path, "scenario", "boxworld-classical-mediary")
    obj = json.loads(frag_path.read_text())
    obj["effects"] = [e for e in obj["effects"] if not e["label"].startswith("record")]
    obj["measurements"] = [m for m in obj["measurements"] if m["label"] != "record-readout"]
    frag_path.write_text(json.dumps(obj))
    code, report, _ = run_cli(tmp_path, "embed", str(frag_path))
    assert code == 0
    assert report["verdict"] == "not_embeddable"
    ineq = report["violated_inequality"]
    assert ineq["bound"] == pytest.approx(0.75, abs=1e-9)


def test_exit_code_2_on_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a fragment"}')
    assert main(["embed", str(bad), "-o", str(tmp_path / "x.json")]) == 2
    missing = tmp_path / "missing.json"
    assert main(["embed", str(missing), "-o", str(tmp_path / "x.json")]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{{{{")
    assert main(["validate", str(notjson), "-o", str(tmp_path / "x.json")]) == 2


def test_exit_code_3_on_resource_limit(tmp_path):
    _, _, big = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "17")
    assert main(["tensor", str(big), str(big), "-o", str(tmp_path / "x.json")]) == 3


MALFORMED_INPUTS = {
    "identity terms not objects": [{"side": "states", "terms": [1, 2]}],
    "identity coefficient not a number": [
        {
            "side": "states",
            "terms": [{"label": "s0|0", "coefficient": "x"}, {"label": "s1|0", "coefficient": 1}],
        }
    ],
    "counts keyed by label": {
        "preparations": ["a"],
        "measurements": ["m"],
        "outcomes": [["0", "1"]],
        "counts": {"a": 1},
        "trials": [[10]],
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_identity_and_count_files_exit_2(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED_INPUTS[case]))
    if case.startswith("identity"):
        _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
        _, _, stats = run_cli(tmp_path, "predict", str(pr))
        argv = ["membership", str(stats), "--identities", str(bad)]
    else:
        argv = ["tomo-fit", str(bad)]
    capsys.readouterr()
    assert main([*argv, "-o", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("error: malformed ")


@pytest.mark.parametrize("command", ["membership", "secondary"])
def test_identity_file_naming_a_label_twice_exits_2(tmp_path, capsys, command):
    terms = [("s0|0", 1), ("s1|0", 1), ("s0|1", -1), ("s1|1", -0.5), ("s1|1", -0.5)]
    bad = tmp_path / "twice.json"
    bad.write_text(
        json.dumps(
            [{"side": "states", "terms": [{"label": t, "coefficient": c} for t, c in terms]}]
        )
    )
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    _, _, stats = run_cli(tmp_path, "predict", str(pr))
    source = stats if command == "membership" else pr
    capsys.readouterr()
    argv = [command, str(source), "--identities", str(bad), "-o", str(tmp_path / "x.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_state_identity_inconsistent_with_normalization(tmp_path, capsys):
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    _, _, stats = run_cli(tmp_path, "predict", str(pr))
    _, idents, _ = run_cli(tmp_path, "identities", str(pr), "--side", "states")
    for term in idents["identities"][0]["terms"]:
        if term["label"] == "s1|0":
            term["coefficient"] = 3.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(idents))
    capsys.readouterr()
    assert main(["membership", str(stats), "--identities", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == "error: state identities are inconsistent with normalization\n"
    # The mixing LP has no such precondition: it is infeasible, with a margin.
    code, report, _ = run_cli(tmp_path, "secondary", str(pr), "--identities", str(bad))
    assert code == 0 and report["feasible"] is False
    assert report["farkas_margin"] == pytest.approx(2.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, value):
    _, _, frag = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "2")
    with pytest.raises(SystemExit) as exc:
        main(["embed", str(frag), "--tol", value, "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert "argument --tol" in capsys.readouterr().err


@pytest.mark.parametrize("command, limit", [("embed", 233), ("robustness", 289)])
def test_lp_size_checked_before_columns_are_built(tmp_path, monkeypatch, command, limit):
    # boxworld-pr has 4 h-rays and 4 d-rays in dimension 3: 16 pair columns
    # under 9 rows, 9 x (16 + 9 + 1) = 234 tableau cells; robustness adds r
    # and its r <= 1 row, 10 x (17 + 1 + 10 + 1) = 290.
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")

    def einsum(*args, **kwargs):
        raise AssertionError("dense decomposition columns built before the size check")

    monkeypatch.setattr(lp, "MAX_LP_CELLS", limit)
    monkeypatch.setattr(np, "einsum", einsum)
    assert main([command, str(pr), "-o", str(tmp_path / "x.json")]) == 3


def _no_eye(*args, **kwargs):
    raise AssertionError("dense mixing rows built before the size check")


def test_mixing_lp_size_checked_before_rows_are_built(tmp_path, monkeypatch):
    # boxworld-pr's 4 states mix from 4: 16 weights under 4 normalization
    # rows, 3 rows of its one identity and 16 c <= 1 rows,
    # 23 x (16 + 16 + 23 + 1) = 1,288 tableau cells.
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    _, _, idents = run_cli(tmp_path, "identities", str(pr), "--side", "states")
    monkeypatch.setattr(lp, "MAX_LP_CELLS", 1287)
    monkeypatch.setattr(np, "eye", _no_eye)
    argv = ["secondary", str(pr), "--identities", str(idents), "-o", str(tmp_path / "x.json")]
    assert main(argv) == 3


def test_mixing_lp_over_the_cell_bound_exits_3_before_its_rows_are_built(tmp_path, monkeypatch):
    # 140 states in dimension 3 with one target identity: 19,600 weights
    # under 140 + 3 equality rows and 19,600 c <= 1 rows, about 1.16e9
    # tableau cells (over 9 GB) against the bound's 2**24.
    _, frag, frag_path = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "3")
    mixtures = np.random.default_rng(0).dirichlet(np.ones(3), size=140)
    frag["states"] = [{"label": f"t{i}", "vector": v.tolist()} for i, v in enumerate(mixtures)]
    frag_path.write_text(json.dumps(frag))
    terms = [{"label": "t0", "coefficient": 1.0}, {"label": "t1", "coefficient": -1.0}]
    idents = tmp_path / "one.json"
    idents.write_text(json.dumps([{"side": "states", "terms": terms, "residual": 0.0}]))
    monkeypatch.setattr(np, "eye", _no_eye)
    argv = ["secondary", str(frag_path), "--identities", str(idents)]
    assert main([*argv, "-o", str(tmp_path / "x.json")]) == 3


def test_membership_lp_size_checked_before_its_rows_are_built(tmp_path, monkeypatch):
    # Eight binary measurements have 256 response vertices; with 100
    # preparations and no identities the weight cone's rays are the 100
    # unit vectors, so the LP has 25,600 weights under 100 * (1 + 8) rows,
    # about 2.4e7 tableau cells against the bound's 2**24.
    measurements = [f"m{y}" for y in range(8)]
    stats = StatisticsTable(
        preparations=[f"x{i}" for i in range(100)],
        measurements=measurements,
        outcomes=[[f"{m}a", f"{m}b"] for m in measurements],
        tables=[np.full((100, 2), 0.5)] * 8,
    )
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(serialize.statistics_to_obj(stats)))

    def weight_rows(*args, **kwargs):
        raise AssertionError("dense membership rows built before the size check")

    monkeypatch.setattr(noncontextuality, "_weight_rows", weight_rows)
    assert main(["membership", str(path), "-o", str(tmp_path / "x.json")]) == 3


def test_pipeline_runs_cones_and_lps_at_the_echoed_tolerance(tmp_path, monkeypatch):
    seen = []
    real = embedding.dual_cone

    def dual_cone(generators, tol):
        seen.append(tol)
        return real(generators, tol)

    monkeypatch.setattr(embedding, "dual_cone", dual_cone)
    _, _, frag = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "2")
    _, _, counts = run_cli(tmp_path, "tomo-synth", str(frag), "--trials", "5000", "--seed", "11")
    code, pipe, _ = run_cli(tmp_path, "pipeline", str(counts), "--seed", "1")
    assert code == 0
    assert pipe["strict_lp_verdict"] == "embeddable"
    # One state cone and one effect cone, built by accessibilize for every LP.
    assert seen == [pipe["tolerances"]["rank"]] * 2


@pytest.mark.parametrize("command", ["tomo-fit", "pipeline"])
@pytest.mark.parametrize("field, value", [("counts", [100.9, 0]), ("trials", 100.5)])
def test_fractional_counts_and_trials_exit_2(tmp_path, capsys, command, field, value):
    _, _, frag = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "2")
    _, counts, _ = run_cli(tmp_path, "tomo-synth", str(frag), "--trials", "100", "--seed", "1")
    if field == "counts":
        assert counts["counts"][0][0] == [100, 0]
        counts["counts"][0][0] = value
    else:
        counts["trials"][0][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(counts))
    capsys.readouterr()
    assert main([command, str(bad), "-o", str(tmp_path / "x.json")]) == 2
    assert "counts and trials must be whole numbers" in capsys.readouterr().err


def test_membership_enumerates_vertices_at_the_echoed_tolerance(tmp_path, monkeypatch):
    seen = []
    real = noncontextuality.null_space

    def null_space(m, tol):
        seen.append(tol)
        return real(m, tol)

    monkeypatch.setattr(noncontextuality, "null_space", null_space)
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    _, _, stats = run_cli(tmp_path, "predict", str(pr))
    code, mem, _ = run_cli(tmp_path, "membership", str(stats), "--tol", "1e-6")
    assert code == 0
    assert seen == [mem["tolerances"]["rank"]] == [1e-6]


# The options several subcommands share; each takes only those it reads.
COMMON_OPTIONS = {
    "scenario": {"-o", "--emit-geometry"},
    "validate": {"-o", "--tol", "--emit-geometry"},
    "predict": {"-o", "--tol", "--emit-geometry"},
    "identities": {"-o", "--tol"},
    "embed": {"-o", "--tol", "--emit-geometry"},
    "robustness": {"-o", "--tol", "--emit-geometry"},
    "membership": {"-o", "--tol"},
    "evaluate": {"-o", "--tol"},
    "secondary": {"-o", "--tol"},
    "tomo-synth": {"-o", "--tol", "--seed"},
    "tomo-fit": {"-o", "--seed"},
    "pipeline": {"-o", "--tol", "--seed"},
    "tensor": {"-o", "--tol", "--emit-geometry"},
    "marginalize": {"-o", "--tol", "--emit-geometry"},
}
OPTION_ARGV = {"-o": ["x.json"], "--tol": ["1e-3"], "--seed": ["1"], "--emit-geometry": []}
# Arguments each subcommand requires; parsing opens no file.
REQUIRED_ARGV = {
    "scenario": ["boxworld-pr"],
    "membership": ["s.json"],
    "evaluate": ["i.json", "s.json"],
    "secondary": ["f.json", "--identities", "i.json"],
    "tomo-synth": ["f.json", "--trials", "10"],
    "tensor": ["a.json", "b.json"],
    "marginalize": ["f.json", "--keep", "S"],
}


def test_common_options_cover_every_subcommand():
    parser = build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    assert set(commands) == set(COMMON_OPTIONS)
    assert sum(map(len, COMMON_OPTIONS.values())) == 36


@pytest.mark.parametrize("command", sorted(COMMON_OPTIONS))
def test_subcommand_takes_exactly_its_common_options(command, capsys):
    # e.g. embed --seed 1, membership --emit-geometry, scenario --tol 1e-3 exit 2.
    argv = [command, *REQUIRED_ARGV.get(command, ["f.json"])]
    taken = COMMON_OPTIONS[command]
    build_parser().parse_args(
        argv + [t for opt in sorted(taken) for t in [opt, *OPTION_ARGV[opt]]]
    )
    for opt in sorted(set(OPTION_ARGV) - taken):
        with pytest.raises(SystemExit) as exc:
            main([*argv, opt, *OPTION_ARGV[opt]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {opt}" in capsys.readouterr().err


def test_reports_echo_a_tolerance_only_where_a_step_ran_at_it(tmp_path, monkeypatch):
    seen = set()

    def spy(module, name):
        real = getattr(module, name)
        signature = inspect.signature(real)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.add(bound.arguments["tol"])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in (
        "validate", "predict", "find_identities", "induced_marginal_identities",
        "accessibilize", "evaluate", "tensor", "partial_trace",
    ):
        spy(cli, name)
    spy(tomography, "accessibilize")
    spy(tomography, "predict")
    spy(embedding, "dual_cone")
    spy(noncontextuality, "response_vertices")

    def report(*argv):
        seen.clear()
        code, obj, path = run_cli(tmp_path, *argv)
        assert code == 0, argv
        echoed = {obj["tolerances"]["rank"]} if "tolerances" in obj else set()
        assert seen == echoed, argv
        return obj, str(path)

    tol = ["--tol", "1e-8"]
    _, pr = report("scenario", "boxworld-pr")
    _, bit = report("scenario", "simplex-d", "--dimension", "2")
    _, ln = report("scenario", "lab-notebook")
    report("validate", pr, *tol)
    _, stats = report("predict", pr, *tol)
    _, sids = report("identities", pr, "--side", "states", *tol)
    _, eids = report("identities", pr, "--side", "effects", *tol)
    report("identities", ln, "--marginalize", "S", *tol)
    embed, embed_path = report("embed", pr, *tol)
    assert embed["verdict"] == "not_embeddable"  # so embed ran membership too
    report("robustness", pr, *tol)
    _, mem = report("membership", stats, "--identities", sids, *tol)
    report("evaluate", mem, stats, *tol)
    report("evaluate", embed_path, stats, *tol)
    sec, _ = report("secondary", pr, "--identities", sids, "--report-robustness", *tol)
    assert sec["tolerances"] == {"rank": 1e-7}
    sec, _ = report("secondary", pr, "--identities", eids, "--side", "effects", *tol)
    assert "tolerances" not in sec
    _, composite = report("tensor", pr, bit, *tol)
    report("marginalize", composite, "--keep", "boxworld-pr", *tol)
    counts_obj, counts = report("tomo-synth", bit, "--trials", "5000", "--seed", "11", *tol)
    fitted, _ = report("tomo-fit", counts)
    pipe, _ = report("pipeline", counts, *tol)
    assert [counts_obj["seed"], fitted["seed"], pipe["seed"]] == [11, 0, 0]
    assert pipe["tolerances"] == {"rank": 1e-7}


def test_tomo_synth_validates_at_the_echoed_tolerance(tmp_path, capsys):
    _, frag, frag_path = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "2")
    frag["states"][0]["vector"] = [1.0 - 1e-7, 0.0]
    frag_path.write_text(json.dumps(frag))
    argv = ["tomo-synth", str(frag_path), "--trials", "100"]
    code, counts, _ = run_cli(tmp_path, *argv, "--tol", "1e-6")
    assert code == 0 and counts["tolerances"] == {"rank": 1e-6}
    capsys.readouterr()
    assert main([*argv, "-o", str(tmp_path / "x.json")]) == 2
    assert "state normalization" in capsys.readouterr().err


def test_predict_range_checks_its_statistics_at_the_validated_tolerance(tmp_path, capsys):
    _, frag, frag_path = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "2")
    frag["states"][0]["vector"] = [1.0 + 1e-7, 0.0]
    frag_path.write_text(json.dumps(frag))
    assert run_cli(tmp_path, "validate", str(frag_path), "--tol", "1e-6")[0] == 0
    code, stats, _ = run_cli(tmp_path, "predict", str(frag_path), "--tol", "1e-6")
    assert code == 0 and stats["p"][0][0] == [1.0 + 1e-7, 0.0]
    capsys.readouterr()
    assert main(["predict", str(frag_path), "-o", str(tmp_path / "x.json")]) == 2
    assert "state normalization" in capsys.readouterr().err


@pytest.mark.parametrize("vector", [[1.0 + 1e-7, 0.0], [1.0 + 1e-7, -1e-7]])
def test_statistics_read_back_at_the_tolerance_they_were_written_at(tmp_path, capsys, vector):
    # Off by 1e-7, past the LP's 1e-8 feasibility margin: once off
    # normalization, once below 0.  Both are within --tol of a classical table.
    _, frag, frag_path = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "2")
    frag["states"][0]["vector"] = vector
    frag_path.write_text(json.dumps(frag))
    code, stats, stats_path = run_cli(tmp_path, "predict", str(frag_path), "--tol", "1e-6")
    assert code == 0
    code, _, sids = run_cli(
        tmp_path, "identities", str(frag_path), "--side", "states", "--tol", "1e-6"
    )
    assert code == 0
    code, mem, _ = run_cli(
        tmp_path, "membership", str(stats_path), "--identities", str(sids), "--tol", "1e-6"
    )
    assert code == 0 and mem["feasible"] is True
    ineq = tmp_path / "ineq.json"
    header = {key: stats[key] for key in ("preparations", "measurements", "outcomes")}
    term = {"x": "p0", "y": "readout", "b": "r0", "c": 1.0}
    ineq.write_text(json.dumps({**header, "coefficients": [term], "bound": 1.0}))
    code, verdict, _ = run_cli(tmp_path, "evaluate", str(ineq), str(stats_path), "--tol", "1e-6")
    assert code == 0 and verdict["violated"] is False
    capsys.readouterr()
    for argv in (["membership", str(stats_path)], ["evaluate", str(ineq), str(stats_path)]):
        assert main([*argv, "-o", str(tmp_path / "x.json")]) == 2
        assert "statistics entries must lie in [0, 1]" in capsys.readouterr().err


def test_secondary_robustness_of_effects_is_an_input_error(tmp_path, capsys):
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    _, _, eids = run_cli(tmp_path, "identities", str(pr), "--side", "effects")
    argv = ["secondary", str(pr), "--identities", str(eids), "--side", "effects"]
    assert main([*argv, "--report-robustness", "-o", str(tmp_path / "x.json")]) == 2
    assert "--side states only" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["boxworld-pr", "--dimension", "3"], ["simplex-d", "--variant", "A"]]
)
def test_scenario_option_that_does_not_apply_exits_2(tmp_path, capsys, argv):
    assert main(["scenario", *argv, "-o", str(tmp_path / "x.json")]) == 2
    assert f"scenario '{argv[0]}' takes no parameter" in capsys.readouterr().err


@pytest.mark.parametrize("command, max_dim", [("tomo-fit", "0"), ("pipeline", "-2")])
def test_max_dim_below_1_exits_2(tmp_path, capsys, command, max_dim):
    _, _, bit = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "2")
    _, _, counts = run_cli(tmp_path, "tomo-synth", str(bit), "--trials", "100")
    capsys.readouterr()
    argv = [command, str(counts), "--max-dim", max_dim, "-o", str(tmp_path / "x.json")]
    assert main(argv) == 2
    assert "max_dimension must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "predict", "embed"])
def test_measured_reserved_label_exits_2_everywhere(tmp_path, capsys, command):
    # Every entry point rejects it alike: response vertices cannot take a unit outcome.
    _, frag, frag_path = run_cli(tmp_path, "scenario", "boxworld-pr")
    frag["measurements"].append({"label": "trivial", "effects": ["unit"]})
    frag_path.write_text(json.dumps(frag))
    assert main([command, str(frag_path), "-o", str(tmp_path / "x.json")]) == 2
    assert "reserved labels ['unit'] cannot be outcomes" in capsys.readouterr().err


def _pr_membership_files(tmp_path):
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    _, _, stats = run_cli(tmp_path, "predict", str(pr))
    _, _, sids = run_cli(tmp_path, "identities", str(pr), "--side", "states")
    return pr, stats, sids


@pytest.mark.parametrize("key, value", [("bound", "NaN"), ("c", "NaN"), ("c", "Infinity")])
def test_evaluate_of_a_non_finite_inequality_exits_2(tmp_path, capsys, key, value):
    _, stats, sids = _pr_membership_files(tmp_path)
    _, mem, _ = run_cli(tmp_path, "membership", str(stats), "--identities", str(sids))
    ineq = mem["inequality"]
    if key == "bound":
        ineq["bound"] = float(value)
    else:
        ineq["coefficients"][0]["c"] = float(value)
    bad = tmp_path / "bad-ineq.json"
    bad.write_text(json.dumps(ineq))
    capsys.readouterr()
    assert main(["evaluate", str(bad), str(stats), "-o", str(tmp_path / "x.json")]) == 2
    assert "inequality coefficients and bound must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_identity_with_a_non_finite_coefficient_exits_2(tmp_path, capsys, value):
    # A NaN term used to be dropped, so membership ran on s0|0 = s0|1 and exited 0.
    _, stats, _ = _pr_membership_files(tmp_path)
    terms = [("s0|0", 1.0), ("s1|0", value), ("s0|1", -1.0)]
    bad = tmp_path / "bad-ids.json"
    bad.write_text(
        json.dumps(
            [{"side": "states", "terms": [{"label": t, "coefficient": c} for t, c in terms]}]
        )
    )
    capsys.readouterr()
    argv = ["membership", str(stats), "--identities", str(bad), "-o", str(tmp_path / "x.json")]
    assert main(argv) == 2
    assert "identity coefficients and residual must be finite" in capsys.readouterr().err


def test_membership_rejects_effect_side_state_identities(tmp_path, capsys):
    _, stats, sids = _pr_membership_files(tmp_path)
    # The square's state identity, relabelled as an effect identity over the
    # preparation labels: membership used to apply it to the states anyway.
    idents = json.loads(sids.read_text())
    idents["identities"][0]["side"] = "effects"
    sids.write_text(json.dumps(idents))
    capsys.readouterr()
    argv = ["membership", str(stats), "--identities", str(sids), "-o", str(tmp_path / "x.json")]
    assert main(argv) == 2
    assert "state identities must have side 'states'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["embed", "robustness"])
def test_fragment_without_states_exits_2(tmp_path, capsys, command):
    _, frag, frag_path = run_cli(tmp_path, "scenario", "boxworld-pr")
    frag["states"] = []
    frag_path.write_text(json.dumps(frag))
    capsys.readouterr()
    assert main([command, str(frag_path), "-o", str(tmp_path / "x.json")]) == 2
    assert "requires at least one state" in capsys.readouterr().err


def test_tomo_synth_trials_beyond_int64_exit_2(tmp_path, capsys):
    _, _, bit = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "2")
    capsys.readouterr()
    argv = ["tomo-synth", str(bit), "--trials", "99999999999999999999"]
    assert main([*argv, "-o", str(tmp_path / "x.json")]) == 2
    assert "trials per cell must lie in [1, " in capsys.readouterr().err


def test_unknown_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "boxworld-pr", "--frobnicate"])
    assert exc.value.code == 2


def test_reports_are_byte_identical(tmp_path):
    _, _, frag = run_cli(tmp_path, "scenario", "qubit-stabilizer")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["embed", str(frag), "-o", str(out1)]) == 0
    assert main(["embed", str(frag), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # Seeded synthesis is reproducible byte for byte as well.
    s1 = tmp_path / "c1.json"
    s2 = tmp_path / "c2.json"
    main(["tomo-synth", str(frag), "--trials", "500", "--seed", "9", "-o", str(s1)])
    main(["tomo-synth", str(frag), "--trials", "500", "--seed", "9", "-o", str(s2)])
    assert s1.read_bytes() == s2.read_bytes()


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    _, _, bit = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "2")
    _, tight = run_cli(tmp_path, "predict", str(bit), "--tol", "1e-6")[:2]
    _, plain = run_cli(tmp_path, "predict", str(bit))[:2]
    assert [tight["tolerances"], plain["tolerances"]] == [{"rank": 1e-6}, {"rank": 1e-9}]

    # A call that exits 2 after parsing --tol, then a valid call: its report
    # is byte for byte the one a fresh process writes.
    with pytest.raises(SystemExit) as exc:
        main(["predict", str(bit), "--tol", "1e-6", "--seed", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
    assert main(["predict", str(bit), "-o", str(here)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "classicality", "predict", str(bit), "-o", str(fresh)],
        capture_output=True, text=True, env=_checkout_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert here.read_bytes() == fresh.read_bytes()


def test_emit_geometry(tmp_path):
    code, report, _ = run_cli(
        tmp_path, "scenario", "boxworld-pr", "--emit-geometry"
    )
    assert code == 0
    geo = report["geometry"]
    assert len(geo["states"]) == 4
    assert len(geo["states"][0]["coordinates"]) <= 3


def test_emit_geometry_writes_no_negative_zeros(tmp_path):
    # SVD axes and their products hold exact zeros with the sign bit set;
    # boxworld-pr's axes carried three.
    _, _, pr = run_cli(tmp_path, "scenario", "boxworld-pr")
    _, _, bit = run_cli(tmp_path, "scenario", "simplex-d")
    for argv in (
        ["scenario", "boxworld-pr"],
        ["scenario", "qubit-stabilizer"],
        ["tensor", str(pr), str(bit)],
    ):
        code, report, _ = run_cli(tmp_path, *argv, "--emit-geometry")
        assert code == 0
        geo = report["geometry"]
        values = np.concatenate(
            [np.ravel(geo["axes"]), geo["center"]] + [s["coordinates"] for s in geo["states"]]
        )
        assert not np.any(np.signbit(values) & (values == 0.0)), argv


def test_stdin_path(tmp_path, monkeypatch, capsys):
    _, frag, frag_path = run_cli(tmp_path, "scenario", "simplex-d", "--dimension", "3")
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(frag_path.read_text()))
    code = main(["validate", "-"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["passed"] is True


@pytest.fixture
def console_script(tmp_path, monkeypatch):
    """Put the checkout's ``classicality`` console script first on PATH.

    The launcher is the one pip writes for the ``[project.scripts]`` entry
    of ``pyproject.toml``, and ``src/`` leads PYTHONPATH, so the shell runs
    the code under test whether or not some copy of the package is installed.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts.get("classicality") == "classicality.cli:main"

    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "classicality"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        "from classicality.cli import main\n"
        "if __name__ == '__main__':\n"
        "    sys.exit(main())\n"
    )
    launcher.chmod(0o755)

    monkeypatch.setenv("PATH", str(bindir), prepend=os.pathsep)
    monkeypatch.setenv("PYTHONPATH", str(REPO / "src"), prepend=os.pathsep)


def test_console_script_pipe(console_script, tmp_path):
    reader = "import json,sys; print(json.load(sys.stdin)['verdict'])"
    pipeline = (
        "classicality scenario boxworld-pr | classicality embed - | "
        f"{shlex.quote(sys.executable)} -c {shlex.quote(reader)}"
    )
    proc = subprocess.run(
        pipeline,
        shell=True,
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,  # a stray file named "-" must not stand in for stdin
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "not_embeddable"


def test_fragment_round_trip_preserves_unknown_keys(tmp_path):
    _, frag, frag_path = run_cli(tmp_path, "scenario", "boxworld-pr")
    obj = json.loads(frag_path.read_text())
    obj["experiment_id"] = "run-42"
    frag_path.write_text(json.dumps(obj))
    from classicality import serialize

    loaded = serialize.fragment_from_obj(json.loads(frag_path.read_text()))
    assert loaded.extra["experiment_id"] == "run-42"
    dumped = serialize.fragment_to_obj(loaded)
    assert dumped["experiment_id"] == "run-42"


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    # scipy.optimize dominates start-up, and the package never needs it.
    code = "import sys, classicality; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_checkout_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    # Nor do fits: the classical-mediary counts need real NNLS solves.
    frag, counts = tmp_path / "cm.json", tmp_path / "cm-counts.json"
    assert main(["scenario", "boxworld-classical-mediary", "-o", str(frag)]) == 0
    synth = ["tomo-synth", str(frag), "--trials", "1000", "--seed", "7", "-o", str(counts)]
    assert main(synth) == 0
    fit, report = str(tmp_path / "fit.json"), str(tmp_path / "p.json")
    code = (
        "import sys\n"
        "from classicality import cli, linalg\n"
        "solve, calls = linalg._nnls, []\n"
        "linalg._nnls = lambda *a, **k: calls.append(1) or solve(*a, **k)\n"
        f"assert cli.main(['tomo-fit', {str(counts)!r}, '-o', {fit!r}]) == 0\n"
        f"assert cli.main(['pipeline', {str(counts)!r}, '-o', {report!r}]) == 0\n"
        "print(len(calls), 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_checkout_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    solves, loaded = proc.stdout.split()
    assert int(solves) > 0 and loaded == "False"


def test_readme_library_names_are_exported():
    import re

    import classicality

    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from classicality import \(([^)]*)\)", readme)
    assert block is not None
    names = [n.strip() for n in block.group(1).split(",") if n.strip()]
    assert names and set(names) <= set(classicality.__all__)
