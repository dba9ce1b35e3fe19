"""Tests of the benchmark itself: inputs, output format, gate and tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import calibrate, metrics, workloads
from perfbench.trace import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _env(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    env["PYTHONHASHSEED"] = hash_seed
    return env


def _fingerprint_in_fresh_process(workload, seed, workdir, hash_seed):
    code = (
        "import sys; from perfbench import workloads; "
        "print(workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3]).fingerprint())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, workload, str(seed), str(workdir)],
        cwd=ROOT, env=_env(hash_seed), capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


@pytest.mark.parametrize("workload", ["canonical-cli", "geometry-sweep", "counts-pipeline"])
def test_generators_are_identical_in_fresh_processes(workload, tmp_path):
    first = _fingerprint_in_fresh_process(workload, 11, tmp_path / "a", "1")
    second = _fingerprint_in_fresh_process(workload, 11, tmp_path / "b", "2")
    assert first == second
    assert len(first) == 64


def test_seed_changes_the_seeded_inputs(tmp_path):
    a = workloads.build("counts-pipeline", 1, str(tmp_path)).fingerprint()
    b = workloads.build("counts-pipeline", 2, str(tmp_path)).fingerprint()
    assert a != b


def _last_json(args):
    out = subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def test_every_metric_appears_untraced_and_traced(tmp_path):
    text, plain = _last_json(["--workload", "canonical-cli", "--seed", "3", "--seconds", "0.5", "--trace", "0"])
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] is True and plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == list(metrics.END_TO_END)
    for name, (unit, _, _) in metrics.END_TO_END.items():
        assert plain["metrics"][name]["unit"] == unit
        assert plain["metrics"][name]["value"] > 0
        assert any(line.strip().startswith(name) for line in text.splitlines()[:-1])
    assert "seed 3" in text

    text, traced = _last_json(["--workload", "canonical-cli", "--seed", "3", "--seconds", "0.5", "--trace", "1"])
    assert traced["correct"] is True
    assert traced["metrics"].keys() == metrics.per_layer().keys()
    n_ops = len(workloads.build("canonical-cli", 3, str(tmp_path)).ops)
    assert traced["metrics"]["cli.main.calls"]["value"] == n_ops
    assert traced["metrics"]["lp.solve.pivots"]["value"] > 0
    assert "tracing overhead" in text


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    assert e2e == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.per_layer()
    higher = {m["name"] for m in bench["per_layer"] if m["better"] == "higher"}
    assert higher == metrics.HIGHER_IS_BETTER
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.NAMES)
    out = subprocess.run([sys.executable, RUN, "--help"], capture_output=True, text=True, check=True)
    for name in workloads.NAMES:
        assert name in out.stdout


def test_layer_map_names_only_reported_metrics():
    with open(os.path.join(ROOT, "perfbench", "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    for row in plan["layer_map"]:
        assert set(row["per_layer"]) <= metrics.per_layer().keys()
        assert set(row["should_move"]) <= metrics.END_TO_END.keys()
        assert set(row["workloads"]) <= set(workloads.NAMES)
    assert all(d["workload"] == "defects" for d in plan["known_defects"])


def _ops(tmp_path):
    return {op.name: op for op in workloads.build("geometry-sweep", 5, str(tmp_path)).ops}


def test_gate_flags_a_corrupted_farkas_witness(tmp_path):
    op = _ops(tmp_path)["polygon-4"]
    out = op.run()
    assert op.check(out) == []
    y = out["emb"].farkas_matrix.copy()
    out["emb"].farkas_matrix = -y  # flipped sign: the trace turns positive
    assert any("trace" in p for p in op.check(out))
    out["emb"].farkas_matrix = y - 10.0 * np.max(np.abs(y)) * np.eye(y.shape[0])
    assert any("negative on a ray pair" in p for p in op.check(out))


def test_gate_flags_a_corrupted_decomposition_and_r_star(tmp_path):
    op = _ops(tmp_path)["bitxbit"]
    out = op.run()
    assert op.check(out) == []
    out["emb"].certificate.beta = -out["emb"].certificate.beta
    problems = op.check(out)
    assert any("negative decomposition weight" in p for p in problems)
    assert any("residual" in p for p in problems)

    out = op.run()
    out["rob"].r_star += 0.01
    assert any("HiGHS" in p for p in op.check(out))


def test_tracer_wrappers_are_removed_after_the_traced_run(tmp_path):
    import classicality

    mods = {name: dict(vars(m)) for name, m in sys.modules.items()
            if name == "classicality" or name.startswith("classicality.")}
    op = _ops(tmp_path)["polygon-5"]
    with Tracer() as tracer:
        assert getattr(classicality.embedding.solve, "__wrapped_by_tracer__", False)
        assert getattr(classicality.cones.matrix_rank, "__wrapped_by_tracer__", False)
        op.run()
    assert tracer.calls["lp.solve"] > 0 and tracer.calls["linalg.matrix_rank"] > 0
    assert len(tracer.span_start) == sum(tracer.calls.values())
    for name, snapshot in mods.items():
        current = vars(sys.modules[name])
        for attr, obj in snapshot.items():
            assert current[attr] is obj, f"{name}.{attr} still wrapped"
            assert not getattr(current[attr], "__wrapped_by_tracer__", False)


def test_host_speed_scales_follow_the_probes_near_each_interval():
    ref = calibrate.REFERENCE_S
    # Six intervals; the host runs at half the reference speed for the last three.
    probes = [[ref] * 3] * 4 + [[2 * ref] * 3] * 3
    got = calibrate.scales(probes)
    assert len(got) == 6
    assert got[0] == pytest.approx(1.0)  # every probe within reach is at reference speed
    assert got[-1] == pytest.approx(0.5)  # a wall time twice the reference one halves
    # One outlying kernel time within the window does not move the factor.
    probes[1] = [ref, 50 * ref, ref]
    assert calibrate.scales(probes)[0] == pytest.approx(1.0)


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "canonical-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
