"""Spans and counters at the package's public boundaries, for the traced run.

The package is not edited: :func:`instrument` swaps module attributes for
wrappers that record a span around each call and restores them on exit.
Only attributes that exist are wrapped, so the traced run keeps working
when a boundary is removed; its metrics then read 0.

Spans live in memory (name, start, end, parent, op id) until the run writes
them out.  Scan points run on a thread pool, so spans from different
threads overlap; :func:`exclusive_times` splits every instant equally among
the innermost spans open at that instant.  A span's exclusive time is thus
its duration minus the union of its children's, shared with any sibling
running at the same time, and the exclusive times of all spans sum to the
time covered by spans, never more than the traced wall time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import statistics
import threading
import time

CLI = "cli.run"
SCAN = "analysis.scan"
FIELD = "systems.to_angular_velocity"
INTEGRATE = "dynamics.integrate"
DIAG = "dynamics.diagnostics"
DYN_PATH = "dynamics.adaptive_path"
QUANTUM_PATH = "quantum.adaptive_path"
EVOLVE = "quantum.evolve_schrodinger"
BLOCH = "quantum.bloch_states"
SAMPLE = "pulses.evaluate_envelope"
ORACLE = "verify.oracle"

#: Function names of the package's verify checks; each has a metric
#: ``verify.<name without check_>_s``.
VERIFY_CHECKS = (
    "check_reference_alignment",
    "check_cross_solver",
    "check_adapter_equivalence",
    "check_rk4_order",
    "check_adaptive_tolerance",
    "check_rotation_norm_drift",
    "check_rk4_norm_drift",
    "check_time_reversal",
    "check_scaling_invariance",
    "check_eigen_residuals",
    "check_dark_constancy",
    "check_delay_symmetry",
)

#: Cash-Karp 4(5): right-hand-side evaluations per attempted step.
_STAGES_PER_ATTEMPT = 5

#: Per-layer metrics of a traced run: name -> (unit, better).
LAYER_METRICS = {
    "dynamics.integrate_calls": ("count", "lower"),
    "dynamics.steps": ("count", "lower"),
    "dynamics.rk4_s": ("s", "lower"),
    "dynamics.rotation_s": ("s", "lower"),
    "dynamics.adaptive_s": ("s", "lower"),
    "dynamics.rhs_evals": ("count", "lower"),
    "dynamics.adaptive_accepted": ("count", "lower"),
    "dynamics.adaptive_rejected": ("count", "lower"),
    "dynamics.diag_s": ("s", "lower"),
    "dynamics.norm_drift_max": ("1", "lower"),
    "systems.field_evals": ("count", "lower"),
    "systems.field_eval_s": ("s", "lower"),
    "pulses.sample_s": ("s", "lower"),
    "analysis.self_s": ("s", "lower"),
    "analysis.point_ms": ("ms", "lower"),
    "analysis.pool_overlap": ("1", "higher"),
    "cli.self_s": ("s", "lower"),
    "cli.csv_bytes": ("B", "lower"),
    "quantum.evolve_s": ("s", "lower"),
    "quantum.rhs_evals": ("count", "lower"),
    "quantum.bloch_s": ("s", "lower"),
    **{f"verify.{c[len('check_'):]}_s": ("s", "lower") for c in VERIFY_CHECKS},
    "verify.oracle_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int
    attrs: dict


class Tracer:
    """Collects spans and counters; safe to use from the scan pool's threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = {
            "integrate_calls": 0,
            "steps": 0,
            "rhs_evals": 0,
            "accepted": 0,
            "rejected": 0,
            "quantum_rhs_evals": 0,
            "csv_bytes": 0,
        }
        self.norm_drift_max = 0.0
        self.fields: list[list] = []  # [evaluations, seconds] per traced field
        self.op = 0
        self.local = threading.local()
        self._lock = threading.Lock()
        self._root_stack = self._stack()

    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def open(self, name) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._root_stack and self._root_stack:
            # a pool thread: its spans belong to the span that started the pool
            parent = self._root_stack[-1]
        else:
            parent = None
        op = self.spans[parent].op if parent is not None else self.op
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), None, parent, op, {}))
        stack.append(idx)
        return idx

    def close(self, idx) -> float:
        end = time.perf_counter()
        self.spans[idx].end = end
        self._stack().pop()
        return end

    def add(self, name, start, end, parent):
        with self._lock:
            self.spans.append(Span(name, start, end, parent, self.spans[parent].op, {}))

    def count(self, key, n):
        with self._lock:
            self.counts[key] += n

    def note_drift(self, drift):
        with self._lock:
            self.norm_drift_max = max(self.norm_drift_max, drift)

    def field_accumulator(self):
        acc = [0, 0.0]
        with self._lock:
            self.fields.append(acc)
        return acc


def _spanned(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, out)
        return out

    return wrapper


def _traced_integrate(tracer, fn):
    local = tracer.local

    @functools.wraps(fn)
    def integrate(*args, **kwargs):
        idx = tracer.open(INTEGRATE)
        local.diag_start = None
        try:
            traj = fn(*args, **kwargs)
        finally:
            end = tracer.close(idx)
            start, local.diag_start = local.diag_start, False
            if start is not None:
                # diagnostics run last in integrate: from the first profile
                # evaluation to the return
                tracer.add(DIAG, start, end, idx)
        tracer.spans[idx].attrs["method"] = traj.method
        tracer.count("integrate_calls", 1)
        if traj.method != "adaptive":
            tracer.count("steps", traj.times.size - 1)
        tracer.note_drift(float(traj.norm_drift))
        return traj

    return integrate


def _traced_path(tracer, fn, name, key, count_steps):
    @functools.wraps(fn)
    def adaptive_path(f, *args, **kwargs):
        evals = [0]

        def counted(t, y):
            evals[0] += 1
            return f(t, y)

        idx = tracer.open(name)
        nodes = None
        try:
            nodes = fn(counted, *args, **kwargs)
        finally:
            tracer.close(idx)
            tracer.count(key, evals[0])
            if count_steps and nodes is not None:
                # one evaluation at the start and one per accepted node,
                # the rest in groups of _STAGES_PER_ATTEMPT per attempt
                accepted = len(nodes) - 1
                attempts = (evals[0] - 1 - accepted) // _STAGES_PER_ATTEMPT
                tracer.count("accepted", accepted)
                tracer.count("rejected", attempts - accepted)
        return nodes

    return adaptive_path


def _traced_field_factory(tracer, fn):
    local = tracer.local

    @functools.wraps(fn)
    def to_angular_velocity(*args, **kwargs):
        idx = tracer.open(FIELD)
        try:
            field = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        comp = getattr(field, "components", None)
        if comp is None or not dataclasses.is_dataclass(field):
            return field
        acc = tracer.field_accumulator()
        clock = time.perf_counter

        def components(t):
            t0 = clock()
            out = comp(t)
            acc[1] += clock() - t0
            acc[0] += 1
            return out

        changes = {"components": components}
        prof = getattr(field, "profiles", None)
        if prof is not None:

            def profiles(t):
                if getattr(local, "diag_start", False) is None:
                    local.diag_start = clock()
                return prof(t)

            changes["profiles"] = profiles
        return dataclasses.replace(field, **changes)

    return to_angular_velocity


def _record_csv_bytes(tracer):
    def after(args, _out):
        path = getattr(args[0], "out_path", None)
        if path is not None and os.path.exists(path):
            tracer.count("csv_bytes", os.path.getsize(path))

    return after


@contextlib.contextmanager
def instrument(tracer, pkg):
    """Swap the package's boundary functions for traced wrappers, then restore."""
    plan = [
        (pkg.cli, "run", lambda f: _spanned(tracer, CLI, f, _record_csv_bytes(tracer))),
        (pkg.analysis, "delay_scan", lambda f: _spanned(tracer, SCAN, f)),
        (pkg.analysis, "area_scan", lambda f: _spanned(tracer, SCAN, f)),
        (pkg.systems, "to_angular_velocity", lambda f: _traced_field_factory(tracer, f)),
        (pkg.dynamics, "integrate", lambda f: _traced_integrate(tracer, f)),
        (pkg.dynamics, "adaptive_path",
         lambda f: _traced_path(tracer, f, DYN_PATH, "rhs_evals", True)),
        (pkg.quantum, "adaptive_path",
         lambda f: _traced_path(tracer, f, QUANTUM_PATH, "quantum_rhs_evals", False)),
        (pkg.quantum, "evolve_schrodinger", lambda f: _spanned(tracer, EVOLVE, f)),
        (getattr(pkg.quantum, "QuantumTrajectory", None), "bloch_states",
         lambda f: _spanned(tracer, BLOCH, f)),
        (pkg.pulses, "evaluate_envelope", lambda f: _spanned(tracer, SAMPLE, f)),
        (pkg.verify, "_order_study_reference", lambda f: _spanned(tracer, ORACLE, f)),
        (pkg.verify, "ALL_CHECKS",
         lambda checks: tuple(_spanned(tracer, f"verify.{c.__name__}", c) for c in checks)),
    ]
    saved = []
    try:
        for owner, attr, wrap in plan:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def exclusive_times(spans):
    """Per span: the time it was an innermost open span, split among peers."""
    events = []
    for i, s in enumerate(spans):
        events.append((s.start, 1, i))
        events.append((s.end, 0, -i))  # at equal times: ends first, children first
    events.sort()
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves = set()
    excl = [0.0] * len(spans)
    prev = None
    for t, starts, key in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for j in leaves:
                excl[j] += share
        prev = t
        i = key if starts else -key
        parent = spans[i].parent
        if starts:
            is_open[i] = True
            leaves.add(i)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open[i] = False
            leaves.discard(i)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and is_open[parent]:
                    leaves.add(parent)
    return excl


def _under_scan(spans, i):
    p = spans[i].parent
    while p is not None:
        if spans[p].name == SCAN:
            return True
        p = spans[p].parent
    return False


def layer_metrics(tracer, passes):
    """Per-layer metrics per traced pass, keyed as in :data:`LAYER_METRICS`
    (without the ``trace.*`` entries, which need the untraced run)."""
    spans = tracer.spans
    excl = exclusive_times(spans)

    def exclusive(pred):
        return sum(e for s, e in zip(spans, excl) if pred(s)) / passes

    def duration(name):
        return sum(s.end - s.start for s in spans if s.name == name) / passes

    def method_is(m):
        return lambda s: s.name == INTEGRATE and s.attrs.get("method") == m

    points = [
        s.end - s.start
        for i, s in enumerate(spans)
        if s.name == INTEGRATE and _under_scan(spans, i)
    ]
    scan_time = sum(s.end - s.start for s in spans if s.name == SCAN)
    c = tracer.counts
    out = {
        "dynamics.integrate_calls": c["integrate_calls"] / passes,
        "dynamics.steps": c["steps"] / passes,
        "dynamics.rk4_s": exclusive(method_is("rk4")),
        "dynamics.rotation_s": exclusive(method_is("piecewise_rotation")),
        "dynamics.adaptive_s": exclusive(
            lambda s: method_is("adaptive")(s) or s.name == DYN_PATH
        ),
        "dynamics.rhs_evals": c["rhs_evals"] / passes,
        "dynamics.adaptive_accepted": c["accepted"] / passes,
        "dynamics.adaptive_rejected": c["rejected"] / passes,
        "dynamics.diag_s": exclusive(lambda s: s.name == DIAG),
        "dynamics.norm_drift_max": tracer.norm_drift_max,
        "systems.field_evals": sum(a[0] for a in tracer.fields) / passes,
        "systems.field_eval_s": sum(a[1] for a in tracer.fields) / passes,
        "pulses.sample_s": exclusive(lambda s: s.name == SAMPLE),
        "analysis.self_s": exclusive(lambda s: s.name == SCAN),
        "analysis.point_ms": 1e3 * statistics.median(points) if points else 0.0,
        "analysis.pool_overlap": sum(points) / scan_time if scan_time > 0 else 0.0,
        "cli.self_s": exclusive(lambda s: s.name == CLI),
        "cli.csv_bytes": c["csv_bytes"] / passes,
        "quantum.evolve_s": exclusive(lambda s: s.name in (EVOLVE, QUANTUM_PATH)),
        "quantum.rhs_evals": c["quantum_rhs_evals"] / passes,
        "quantum.bloch_s": exclusive(lambda s: s.name == BLOCH),
        "verify.oracle_s": duration(ORACLE),
    }
    for check in VERIFY_CHECKS:
        out[f"verify.{check[len('check_'):]}_s"] = duration(f"verify.{check}")
    return out


def span_records(tracer):
    """Spans as JSON-ready dicts, times relative to the first span."""
    t0 = min((s.start for s in tracer.spans), default=0.0)
    return [
        {
            "name": s.name,
            "start": s.start - t0,
            "end": s.end - t0,
            "parent": s.parent,
            "op": s.op,
            **s.attrs,
        }
        for s in tracer.spans
    ]
