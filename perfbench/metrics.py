"""Metric definitions shared by the runner, the worker and the tests.

End-to-end metrics come from untraced runs; per-layer metrics from a
traced run and are given per pass (one pass = every op of the workload
once), so counts made by the program repeat exactly between runs.
"""

from __future__ import annotations

import math

# name: (unit, better, bound).  Timings are rescaled to a reference host
# speed (calibrate.py), which removes most of a shared host's drift but not
# all of it, so their bounds are the widest allowed; ok_ratio loses 1% when
# one op in a canonical-cli pass fails.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "latency_ms_p50": ("ms", "lower", 0.25),
    "latency_ms_tail": ("ms", "lower", 0.25),
    "ok_ratio": ("ratio", "higher", 0.01),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# Functions whose calls and self time are reported, as layer.function.
FUNCTIONS = (
    "cli.main",
    "serialize.dumps",
    "scenarios.build",
    "fragments.predict",
    "fragments.tensor",
    "fragments.validate",
    "identities.find_identities",
    "embedding.accessibilize",
    "embedding.accessible_identities",
    "embedding.test_embeddability",
    "embedding.robustness",
    "embedding.to_model",
    "cones.dual_cone",
    "cones.h_rep_extreme_rays",
    "lp.solve",
    "noncontextuality.response_vertices",
    "noncontextuality.membership",
    "noncontextuality.noncontextual_maximum",
    "secondary.secondary_states",
    "tomography.synth",
    "tomography.fit",
    "tomography.verdict_pipeline",
    "linalg.matrix_rank",
    "linalg.orthonormal_basis",
    "linalg.null_space",
    "linalg.constrained_lstsq",
)

LAYERS = (
    "cli", "serialize", "scenarios", "fragments", "identities", "embedding",
    "cones", "lp", "noncontextuality", "secondary", "tomography", "linalg", "models",
)

COUNTERS = {
    "cones.rays_out": "count/pass",
    "lp.solve.pivots": "count/pass",
    "lp.solve.rows": "count/pass",
    "lp.solve.cols": "count/pass",
    "lp.solve.failed": "count/pass",
    "embedding.lp_cols": "count/pass",
    "embedding.support_ratio": "ratio",
    "noncontextuality.response_vertices.vertices": "count/pass",
    "tomography.fit.dims_tried": "count/pass",
}

OTHER = {
    "bench.pass_ms": "ms/pass",  # untraced busy time of one pass
    "bench.outside_ms": "ms/pass",  # op time outside every wrapped function
    "trace.overhead_ms": "ms/pass",  # traced minus untraced busy time of one pass
    "trace.spans": "count/pass",
    "setup.import_s": "s",  # `import classicality` inside a set-up worker, median
    "setup.import_share": "ratio",  # setup.import_s over setup_s
}

HIGHER_IS_BETTER = {"embedding.support_ratio"}


def per_layer() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out: dict[str, str] = {}
    for fn in FUNCTIONS:
        out[f"{fn}.calls"] = "count/pass"
        out[f"{fn}.self_ms"] = "ms/pass"
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = "ms/pass"
    out.update(COUNTERS)
    out.update(OTHER)
    return out


TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list.

    Unlike interpolation it never mixes two ops' latencies, so a pass
    count that varies between runs does not move the value between ops.
    """
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values: list[float]) -> tuple[str, float]:
    """Highest ladder percentile with at least ten samples above it.

    With fewer than twenty samples no percentile qualifies and the tail
    is the maximum.
    """
    best = None
    for p in TAIL_LADDER:
        value = percentile(sorted_values, p)
        beyond = sum(1 for v in sorted_values if v > value)
        if beyond >= 10:
            best = (f"p{p:g}", value)
    return best if best is not None else ("max", sorted_values[-1])
