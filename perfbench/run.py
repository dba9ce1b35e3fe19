"""Closed-loop benchmark of the classicality package.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload canonical-cli --seed 1 --seconds 30 --trace 0

Set-up is timed from spawning a fresh worker interpreter until it has
imported ``classicality`` from ``src/`` and built the workload's inputs;
this is repeated and the median reported.  A further worker runs the
workload (see ``worker.py``).  Every timed metric is rescaled to a
reference host speed measured next to it (see ``calibrate.py``).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    # before numpy is imported, here and in every worker
    os.environ[_var] = "1"

from perfbench import calibrate, metrics  # noqa: E402

WORKLOADS = ("canonical-cli", "geometry-sweep", "counts-pipeline", "defects")
# Worker spawns in order.  The first fills the page cache and writes bytecode
# and is not reported; the "setup" ones are timed for setup_s.  Half come
# after the run worker, so that the median spans more than one stretch of
# host speed.
SPAWNS = ("warm-up", "setup", "setup", "setup", "run", "setup", "setup", "setup")
DEADLINE_S = 170.0


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured wall time of a run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _spawn(args, role: str, workdir: str, env: dict) -> subprocess.Popen:
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--workdir", workdir,
    ]
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def _tagged(line: str, tag: str) -> dict:
    if not line.startswith(tag + " "):
        raise RuntimeError(f"worker sent {line.strip()[:200]!r} instead of {tag}")
    return json.loads(line[len(tag) + 1:])


def _measure(args, env: dict, workdir: str, deadline: float):
    setup_s, raw_setup_s, import_s, fingerprints = [], [], [], set()
    result = None
    calibrate.warm_up()
    for kind in SPAWNS:
        role = "run" if kind == "run" else "setup"
        before = calibrate.probe()
        t0 = time.perf_counter()
        proc = _spawn(args, role, workdir, env)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            ready = _tagged(proc.stdout.readline(), "READY")
            elapsed = time.perf_counter() - t0
            fingerprints.add(_tagged(proc.stdout.readline(), "INPUTS")["sha256"])
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        if kind == "setup":
            factor = calibrate.scales([before, calibrate.probe()])[0]
            raw_setup_s.append(elapsed)
            setup_s.append(elapsed * factor)
            import_s.append(ready["import_s"] * factor)
        if role == "run":
            lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
            if not lines:
                raise RuntimeError("worker printed no result")
            result = _tagged(lines[-1], "RESULT")
    if len(fingerprints) != 1:
        raise RuntimeError("workers built different inputs from the same seed")
    return setup_s, raw_setup_s, import_s, fingerprints.pop(), result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "classicality", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'classicality')}; "
              "run from the root of a classicality checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    work_root = os.path.join(ROOT, ".perfbench-work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_s, raw_setup_s, import_s, fingerprint, res = _measure(args, env, workdir, deadline)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    v = res["versions"]
    setup_med = statistics.median(setup_s)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"inputs sha256 {fingerprint}")
    print(f"nproc {v['nproc']}  python {v['python']}  numpy {v['numpy']}  scipy {v['scipy']}  "
          f"OPENBLAS/OMP/MKL threads {v['blas_threads']}")
    print("closed loop, one client, single-threaded worker: no op waits in a queue, "
          "so no wait time is reported")
    print(f"timings at reference host speed (probe kernel {calibrate.REFERENCE_S * 1e3:g} ms); "
          f"host ran at x{res['host_speed']:.3f} of it during the run; raw wall-clock: "
          f"setup {statistics.median(raw_setup_s):.4f} s, p50 {res['raw_latency_ms_p50']:.3f} ms, "
          f"tail {res['raw_latency_ms_tail']:.3f} ms")
    attempted, failed = res["attempted"], res["failed"]
    for name, ms in sorted(res["per_op_ms"].items(), key=lambda kv: kv[1]):
        print(f"  op {name:<36} {ms:10.3f} ms (median)")
    for name, (count, why) in sorted(res["failures"].items()):
        print(f"FAILED {name} x{count}: {why}")

    if args.trace:
        layer = dict(res["per_layer"])
        median_import = statistics.median(import_s)
        layer["setup.import_s"] = median_import
        layer["setup.import_share"] = median_import / setup_med
        units = metrics.per_layer()
        print(f"traced passes {res['traced_passes']}, untraced passes {res['untraced_passes']}, "
              f"{res['ops_per_pass']} ops per pass; values are per pass")
        print(f"tracing overhead {layer['trace.overhead_ms']:.3f} ms per pass "
              f"(traced {layer['bench.pass_ms'] + layer['trace.overhead_ms']:.3f} ms, "
              f"untraced {layer['bench.pass_ms']:.3f} ms); spans in {res['spans_file']}")
        for name, value in sorted(res["all_functions"].items()):
            print(f"  fn {name:<48} {_fmt(value)}")
        out = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        res["setup_s"] = setup_med
        res["ok_ratio"] = 1.0 - failed / attempted
        print(f"passes {res['passes']}, {res['ops_per_pass']} ops per pass, {attempted} ops, "
              f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
        samples = {
            "setup_s": f"median of {len(setup_s)} spawns",
            "latency_ms_tail": f"{res['tail_label']} of {attempted} ops",
            "latency_ms_p50": f"median of {attempted} ops",
            "ops_per_s": f"{attempted} ops over the busy time of {res['passes']} passes",
            "ok_ratio": f"{attempted - failed} of {attempted} ops passed the gate",
            "peak_rss_mb": "ru_maxrss of the run worker",
        }
        out = {}
        for name, (unit, better, _) in metrics.END_TO_END.items():
            out[name] = {"value": res[name], "unit": unit}
            print(f"  {name:<16} {_fmt(res[name]):>12} {unit:<6} ({better} is better; {samples[name]})")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
