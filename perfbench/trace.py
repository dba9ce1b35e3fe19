"""Per-layer tracing from outside the package.

``Tracer`` replaces every public function of the package's modules, at
each module attribute where a caller looks it up (``embedding.solve``,
``cones.matrix_rank``, ``tomography.constrained_lstsq``, ...), with a
wrapper that records a span: function, start, end, parent span and op
id.  Self time is a span's duration minus that of its child spans.
A few wrappers also read work counters from arguments and return
values.  ``remove`` puts every original function back.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict
from functools import wraps

from .metrics import LAYERS

PACKAGE = "classicality"


def _targets():
    """{original function: 'layer.name'} for every public package function."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
            ):
                found[obj] = f"{layer}.{name}"
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        # Spans, column-wise: name id, start, end, parent span (-1 at top), op id.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op_id = -1
        self._stack: list[list] = []  # [span index, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        targets = _targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if callable(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- recording ----------------------------------------------------

    def _wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        clock = time.perf_counter
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            parent = stack[-1][0] if stack else -1
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_op.append(self.op_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            result, failed = None, True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if hook is not None:
                    hook(self.counters, args, kwargs, result, failed, stack, self)

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def parent_name(self, stack) -> str | None:
        if not stack:
            return None
        return self.names[self.span_name[stack[-1][0]]]

    def write(self, path: str) -> None:
        """Spans as a compact npz: names, and one column per field."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )


# -- counters read from arguments and return values ------------------------


def _lp_solve(c, args, kwargs, result, failed, stack, tracer):
    lp = args[0] if args else kwargs["lp"]
    c["lp.solve.rows"] += len(lp.b_eq) + len(lp.b_ub)
    c["lp.solve.cols"] += lp.n_vars
    if failed:
        c["lp.solve.failed"] += 1
    else:
        c["lp.solve.pivots"] += result.iterations
    if tracer.parent_name(stack) == "embedding.test_embeddability":
        c["embedding.lp_cols"] += lp.n_vars


def _rays_out(c, args, kwargs, result, failed, stack, tracer):
    if not failed:
        c["cones.rays_out"] += result.shape[0]


def _vertices(c, args, kwargs, result, failed, stack, tracer):
    if not failed:
        c["noncontextuality.response_vertices.vertices"] += len(result)


def _dims_tried(c, args, kwargs, result, failed, stack, tracer):
    if not failed:
        c["tomography.fit.dims_tried"] += len(result.chi_squared_trace)


def _support(c, args, kwargs, result, failed, stack, tracer):
    cert = None if failed else getattr(result, "certificate", None)
    if cert is not None:
        c["embedding.supported_pairs"] += int((cert.beta > 1e-12).sum())
        c["embedding.certificate_cols"] += cert.beta.size


_HOOKS = {
    "lp.solve": _lp_solve,
    "cones.h_rep_extreme_rays": _rays_out,
    "noncontextuality.response_vertices": _vertices,
    "tomography.fit": _dims_tried,
    "embedding.test_embeddability": _support,
    "embedding.robustness": _support,
}
