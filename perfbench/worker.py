"""Benchmark worker: imports the package, builds inputs, runs passes.

Started by ``run.py`` with ``python -m perfbench.worker``.  It prints a
``READY`` line once ``import classicality`` has finished and the
workload's inputs are built; a set-up worker exits there.  A run worker
then runs whole passes in a closed loop (one client: the next op starts
when the previous one returns) until ``--seconds`` have elapsed, checks
every output outside the timed region, and prints one JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from . import metrics
from .trace import Tracer


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench.worker")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "run"), default="run")
    p.add_argument("--workdir", required=True)
    return p.parse_args(argv)


def run_passes(wl, seconds: float, records: list, outputs: dict, tracer=None) -> list[float]:
    """Whole passes until ``seconds`` of wall time, and at least ``wl.min_passes``.

    Returns the busy seconds (the sum of op latencies at reference host
    speed, see ``calibrate``) of each pass.

    Pass indices restart at 0 on every call, so a traced phase sees the
    same seeded inputs as the untraced one before it.

    ``records`` gets (op index, latency s, error or None, digest or None,
    host-speed scale) per op; ``outputs`` keeps the first output seen for
    each digest.  The host-speed probe runs between ops, outside the timed
    region.
    """
    from . import calibrate  # imports numpy; a worker imports it only after set-up is timed

    clock = time.perf_counter
    ran = []  # (pass, op index, latency s, error or None, digest or None)
    probes = [calibrate.probe()]
    start = clock()
    index = 0
    while True:
        wl.start_pass(index)
        for i in wl.pass_order(index):
            op = wl.ops[i]
            if tracer is not None:
                tracer.op_id = len(records) + len(ran)
            err = None
            t0 = clock()
            try:
                raw = op.run()
            except Exception as exc:  # every exception is a failed op, never a crash
                raw, err = None, f"{type(exc).__name__}: {exc}"
            latency = clock() - t0
            probes.append(calibrate.probe())
            digest = None
            if err is None:
                try:
                    out = op.collect(raw)
                    digest = op.digest(out)
                    outputs.setdefault((i, digest), out)
                except Exception as exc:
                    err = f"unreadable output: {type(exc).__name__}: {exc}"
            ran.append((index, i, latency, err, digest))
        index += 1
        if index >= wl.min_passes and clock() - start >= seconds:
            break
    busy_per_pass = [0.0] * index
    for (p, i, latency, err, digest), factor in zip(ran, calibrate.scales(probes)):
        busy_per_pass[p] += latency * factor
        records.append((i, latency, err, digest, factor))
    return busy_per_pass


def gate_outputs(wl, outputs: dict) -> dict:
    """Problems per (op index, digest); cross-op oracles see each op's first output."""
    problems = {}
    for (i, digest), out in outputs.items():
        try:
            problems[(i, digest)] = list(wl.ops[i].check(out))
        except Exception as exc:
            problems[(i, digest)] = [f"check raised {type(exc).__name__}: {exc}"]
    first = {}
    for (i, digest), out in outputs.items():
        first.setdefault(wl.ops[i].name, (i, digest, out))
    try:
        cross = wl.cross_check({name: out for name, (_, _, out) in first.items()})
    except Exception as exc:
        cross = {name: [f"cross-check raised {type(exc).__name__}: {exc}"] for name in first}
    for name, found in cross.items():
        i, digest, _ = first[name]
        problems[(i, digest)] += found
    return problems


def summarize(wl, records, problems) -> dict:
    failures: dict[str, list] = {}
    failed = 0
    for i, _, err, digest, _ in records:
        why = [err] if err is not None else problems.get((i, digest), [])
        if why:
            failed += 1
            entry = failures.setdefault(wl.ops[i].name, [0, why[0]])
            entry[0] += 1
    per_op: dict[str, list[float]] = {}
    for i, latency, _, _, factor in records:
        per_op.setdefault(wl.ops[i].name, []).append(latency * factor * 1e3)
    lat = sorted(r[1] * r[4] * 1e3 for r in records)
    raw = sorted(r[1] * 1e3 for r in records)
    tail_label, tail_value = metrics.tail(lat)
    return {
        "attempted": len(records),
        "failed": failed,
        "failures": failures,
        "latency_ms_p50": metrics.percentile(lat, 50.0),
        "latency_ms_tail": tail_value,
        "tail_label": tail_label,
        "raw_latency_ms_p50": metrics.percentile(raw, 50.0),
        "raw_latency_ms_tail": metrics.tail(raw)[1],
        "host_speed": statistics.median(r[4] for r in records),
        "per_op_ms": {name: sorted(v)[len(v) // 2] for name, v in per_op.items()},
    }


def _rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _versions() -> dict:
    from importlib import metadata

    import numpy

    return {
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def traced_metrics(wl, seconds, records, outputs) -> tuple[dict, Tracer]:
    """Untraced then traced passes; per-layer metrics per traced pass."""
    untraced = run_passes(wl, seconds / 2, records, outputs)
    tracer = Tracer()
    first_traced = len(records)
    with tracer:
        traced = run_passes(wl, seconds / 2, records, outputs, tracer)
    n = len(traced)
    base_ms = sum(untraced) / len(untraced) * 1e3
    traced_ms = sum(traced) / n * 1e3
    span_end, span_start = tracer.span_end, tracer.span_start
    top = sum(span_end[k] - span_start[k] for k in range(len(span_start)) if tracer.span_parent[k] < 0)
    busy = sum(r[1] for r in records[first_traced:])

    out = {}
    for fn in metrics.FUNCTIONS:
        out[f"{fn}.calls"] = tracer.calls.get(fn, 0) / n
        out[f"{fn}.self_ms"] = tracer.self_s.get(fn, 0.0) * 1e3 / n
    for layer in metrics.LAYERS:
        total = sum(v for k, v in tracer.self_s.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_ms"] = total * 1e3 / n
    c = tracer.counters
    for name in metrics.COUNTERS:
        out[name] = c.get(name, 0.0) / n
    cols = c.get("embedding.certificate_cols", 0.0)
    out["embedding.support_ratio"] = c.get("embedding.supported_pairs", 0.0) / cols if cols else 0.0
    out["bench.pass_ms"] = base_ms
    out["bench.outside_ms"] = (busy - top) * 1e3 / n
    out["trace.overhead_ms"] = traced_ms - base_ms
    out["trace.spans"] = len(span_start) / n
    every = {
        f"{name}.{kind}": value
        for name in sorted(tracer.calls)
        for kind, value in (("calls", tracer.calls[name] / n),
                            ("self_ms", tracer.self_s[name] * 1e3 / n))
    }
    return {"per_layer": out, "all_functions": every, "traced_passes": n,
            "untraced_passes": len(untraced)}, tracer


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = _parse(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    t0 = time.perf_counter()
    import classicality

    import_s = time.perf_counter() - t0
    src = os.path.join(root, "src", "classicality")
    if os.path.dirname(os.path.abspath(classicality.__file__)) != src:
        print(f"error: imported classicality from {classicality.__file__}, not {src}", file=sys.stderr)
        return 2
    from . import workloads

    wl = workloads.build(args.workload, args.seed, args.workdir)
    print("READY " + json.dumps({"import_s": import_s, "ready_s": time.perf_counter() - t_start}),
          flush=True)
    print("INPUTS " + json.dumps({"sha256": wl.fingerprint()}), flush=True)
    if args.role == "setup":
        return 0

    records: list = []
    outputs: dict = {}
    result: dict = {}
    tracer = None
    from . import calibrate

    calibrate.warm_up()
    if args.trace:
        layer, tracer = traced_metrics(wl, args.seconds, records, outputs)
        result.update(layer)
    else:
        busy = run_passes(wl, args.seconds, records, outputs)
        # Over the whole run, so that every pass's seeded draws count.
        result["ops_per_s"] = len(wl.ops) * len(busy) / sum(busy)
        result["passes"] = len(busy)
    result["peak_rss_mb"] = _rss_mb()
    problems = gate_outputs(wl, outputs)
    result.update(summarize(wl, records, problems))
    result["ops_per_pass"] = len(wl.ops)
    result["versions"] = _versions()
    if tracer is not None:
        out_dir = os.path.join(root, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.npz")
        tracer.write(path)
        result["spans_file"] = os.path.relpath(path, root)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
