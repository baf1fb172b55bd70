"""Span tracer that wraps the library's public functions from outside.

``Tracer.install()`` replaces each traced function with a timing wrapper in
every ``triscribe`` module that binds it, so calls through ``from .x import
name`` bindings (``triscribe.solvers.apply_frame``, ``triscribe.cli.
solve_similar``) are seen, as are calls through the defining module and the
package.  Methods and the ``Curve.extent`` property are wrapped on the class.
A traced name that no longer exists is skipped; its metrics read zero.
``uninstall()`` restores every original binding.

Spans are aggregated as they close instead of being stored: per name, the
call count, the inclusive time and the self time (duration minus the union of
its child spans).  A span opened on a worker thread with no open span of its
own takes the main thread's innermost open span as parent, which inside the
sweep is ``solvers.sweep_similar``; those children overlap in time, and the
amount by which their summed durations exceed their union is kept as the
span's parallel excess, so that for every root span

    sum of self times in its tree == root duration + parallel excess.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

# module -> names traced in it; ``Class.method`` entries wrap on the class.
TRACED = {
    "curve": (
        "make_curve", "curve_from_spec", "load_curve",
        "Curve.eval", "Curve.eval_many", "Curve.extent", "Curve.farthest_param",
        "Curve.min_distance_excluding", "Curve.with_base_param", "Curve.resample",
    ),
    "frames": (
        "third_vertex_sphere", "canonical_frame", "apply_frame", "cylindrical_project",
        "rotation_aligning",
    ),
    "winding": (
        "passes_through", "winding_closed", "angle_sweep", "segment_distances",
        "reverse_path", "concat_paths",
    ),
    "shape": ("residuals", "shape_from_angles", "shape_from_degrees", "equilateral_shape"),
    "solvers": (
        "sphere_winding", "sweep_similar", "refine_similar", "solve_similar",
        "solve_equilateral", "near_base_param", "chord_angle_bounds", "check_hypothesis",
        "completed_report", "check_strong_monotone", "ratio_path",
    ),
    "cli": ("run", "parse_curve_arg", "parse_angles", "build_parser"),
}
# Leaf helpers called once per segment or row (``curve.row_norms``,
# ``curve.point_segment_distance``) stay unwrapped: their time counts as their
# caller's self time, and wrapping them would cost more than they do.

ROOT = "bench.solve"


class _Span:
    __slots__ = ("name", "start", "parent", "children", "child_sum", "self_sum", "excess",
                 "grid_size", "winding_calls", "winding_bytes", "winding_time")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.parent = parent
        self.children = []  # (start, end) of direct children
        self.child_sum = 0.0
        self.self_sum = 0.0  # self times summed over the subtree, this span included
        self.excess = 0.0  # parallel excess summed over the subtree
        self.grid_size = None
        self.winding_calls = 0
        self.winding_bytes = 0
        self.winding_time = 0.0


def _union_length(intervals):
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.roots = []  # (duration, self_sum, excess) per closed root span
        self.sweeps = []  # (wall, grid_size, winding_calls, winding_bytes, winding_time)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._main = threading.main_thread()
        self._patches = []
        self.missing = []
        self.worker_threads = set()  # idents of pool threads that opened spans

    # -- spans ---------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is self._main_stack:
            parent = None
        else:
            parent = self._main_stack[-1] if self._main_stack else None
            self.worker_threads.add(threading.get_ident())
        span = _Span(name, time.perf_counter(), parent)
        stack.append(span)
        return span

    def close(self, span):
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = end - span.start
        with self._lock:
            covered = _union_length(span.children)
            own = dur - covered
            span.self_sum += own
            span.excess += span.child_sum - covered
            self.calls[span.name] += 1
            self.total[span.name] += dur
            self.self_time[span.name] += own
            parent = span.parent
            if parent is not None:
                parent.children.append((span.start, end))
                parent.child_sum += dur
                parent.self_sum += span.self_sum
                parent.excess += span.excess
                if span.name == "solvers.sphere_winding" and parent.name == "solvers.sweep_similar":
                    parent.winding_calls += 1
                    parent.winding_bytes += span.winding_bytes
                    parent.winding_time += dur
            if span.name == ROOT:
                self.roots.append((dur, span.self_sum, span.excess))
            elif span.name == "solvers.sweep_similar":
                self.sweeps.append(
                    (dur, span.grid_size, span.winding_calls, span.winding_bytes,
                     span.winding_time)
                )

    # -- patching ------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        hooks = None
        if name == "solvers.sweep_similar":
            sig = inspect.signature(fn)

            def hooks(span, args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.grid_size = int(bound.arguments.get("grid_size") or 0)
        elif name == "solvers.sphere_winding":

            def hooks(span, args, kwargs):
                curve = args[0] if args else kwargs.get("curve")
                span.winding_bytes = int(curve.points.size) * 8

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                if hooks is not None:
                    hooks(span, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        wrapper.__traced_original__ = fn
        return wrapper

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "triscribe" or k.startswith("triscribe."))]
        for mod_name, names in TRACED.items():
            home = sys.modules.get(f"triscribe.{mod_name}")
            for entry in names:
                label = f"{mod_name}.{entry.split('.')[-1]}"
                if home is None:
                    self.missing.append(label)
                    continue
                if "." in entry:
                    self._patch_member(home, entry, label)
                    continue
                original = getattr(home, entry, None)
                if original is None:
                    self.missing.append(label)
                    continue
                wrapper = self._wrap(label, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def _patch_member(self, home, entry, label):
        cls_name, member = entry.split(".")
        cls = getattr(home, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(member)
        if raw is None:
            self.missing.append(label)
            return
        if isinstance(raw, property):
            wrapped = property(self._wrap(label, raw.fget))
        else:
            wrapped = self._wrap(label, raw)
        self._patches.append((cls, member, raw))
        setattr(cls, member, wrapped)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
