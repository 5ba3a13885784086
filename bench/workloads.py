"""The benchmark's workloads: seeded inputs, warm-up and output checks.

Each workload turns ``--seed`` into a list of :class:`Request` (program
inputs only: a subcommand and its JSON config) and checks what each request
wrote.  An op is a scan point, a ``simulate`` request or a verify check.  An
op fails when its request raises, when its output holds non-finite values,
when its scan row carries an error, or when its final state lies farther
than :data:`TOLERANCE` from the independent reference in
:mod:`reference`.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

import reference

#: Largest accepted distance of a final state from the reference.  The
#: program's own error on these inputs is at most about 3e-4 (rk4 at
#: 4096 steps near the strongest fields); ``max_err`` reports it.
TOLERANCE = 5e-3

SYSTEMS = tuple(reference.W_FACTORS)
STEPS = 4096

_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


@dataclass(frozen=True)
class Request:
    experiment: str
    config: dict
    #: per op, the reference inputs (system, b0, tau, span); empty for verify
    expect: tuple = ()


@dataclass
class Op:
    ok: bool
    err: float | None = None
    name: str = ""
    value: float | None = None
    note: str = ""


@dataclass
class Workload:
    """Base: requests from a seed, a warm-up call, and per-op checks."""

    name = ""
    why = ""
    #: reference loop timed around each request (calibration.py): scans
    #: use the pool like their points; calls make a block of a twentieth
    #: to a tenth of a request
    calibration_mode = "single"
    calibration_calls = 1
    _refs: dict = field(default_factory=dict)

    def requests(self, seed: int, tiny: bool = False) -> list[Request]:
        raise NotImplementedError

    def warm_up(self, pkg, requests, out_path, execute):
        execute(pkg, requests[0], out_path)

    def before_request(self, pkg):
        """Hook run outside the timed region before every request."""

    def op_count(self, pkg, request):
        return len(request.expect)

    def check(self, pkg, request, out_path) -> list[Op]:
        raise NotImplementedError

    def failed_ops(self, pkg, request, message):
        return [Op(False, note=message) for _ in range(self.op_count(pkg, request))]

    def max_err(self, ops):
        errs = [op.err for op in ops if op.err is not None]
        return max(errs) if errs else math.nan

    def _reference(self, system, b0, tau, span):
        key = (system, b0, tau, span)
        if key not in self._refs:
            self._refs[key] = reference.final_state(system, b0, tau, steps=STEPS, span=span)
        return self._refs[key]

    def _compare(self, expect, state):
        if not np.all(np.isfinite(state)):
            return Op(False, note="non-finite final state")
        err = float(np.linalg.norm(state - self._reference(*expect)))
        ok = err <= TOLERANCE
        return Op(ok, err=err, note="" if ok else f"error {err:.3e} > {TOLERANCE}")


def _data_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


class _Scan(Workload):
    """Scan CSV: header, one row per point (value, vx, vy, vz, ...),
    then ``# failed:`` lines for rows that carry an error."""

    def check(self, pkg, request, out_path):
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        rows = _data_lines(text)[1:]
        failed = text.count("# failed:")
        ops = []
        for k, expect in enumerate(request.expect):
            if k >= len(rows):
                ops.append(Op(False, note="missing row"))
                continue
            vals = np.array([float(v) for v in rows[k].split(",")])
            want = expect[2] if self.parameter == "tau" else expect[1]
            if not math.isclose(vals[0], want, rel_tol=1e-9, abs_tol=1e-9):
                ops.append(Op(False, note=f"row {k} is for {vals[0]}, expected {want}"))
            elif not np.all(np.isfinite(vals)):
                ops.append(Op(False, note=f"row {k} not finite"))
            else:
                ops.append(self._compare(expect, vals[1:4]))
        if failed and all(op.ok for op in ops):
            ops[-1] = Op(False, note=f"{failed} rows report an error")
        return ops


class DelayScan(_Scan):
    name = "delay-scan"
    why = (
        "the headline scan-delay run: fixed-step rk4 endpoints on the thread pool, "
        "where a batched kernel or the pool removal shows"
    )
    parameter = "tau"
    scans = 4
    points = 8
    b0 = 40.0
    calibration_mode = "pool"
    calibration_calls = 4

    def requests(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        n = 3 if tiny else self.points
        out = []
        for _ in range(1 if tiny else self.scans):
            step = float(rng.uniform(0.17, 6.0 / (n - 1)))
            lo = float(rng.uniform(-3.0, 3.0 - step * (n - 1)))
            taus = lo + step * np.arange(n)
            config = {
                "system": "lorentz",
                "method": "rk4",
                "steps": STEPS,
                "b0": self.b0,
                "delay_min": lo,
                "delay_max": float(taus[-1]),
                "delay_step": step,
            }
            expect = tuple(("lorentz", self.b0, float(t), None) for t in taus)
            out.append(Request("scan-delay", config, expect))
        return out

    def warm_up(self, pkg, requests, out_path, execute):
        req = requests[0]
        config = dict(req.config, delay_max=req.config["delay_min"] + req.config["delay_step"])
        execute(pkg, Request(req.experiment, config), out_path)


class AreaScanAdaptive(_Scan):
    name = "area-scan-adaptive"
    why = (
        "scan-area with the adaptive Cash-Karp stepper and dense output, the only "
        "workload that layer dominates; all points share one window and grid"
    )
    parameter = "amplitude"
    scans = 2
    points = 4
    tau = 1.2
    calibration_mode = "pool"
    calibration_calls = 8

    def requests(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        n = 1 if tiny else self.points
        span = reference.window(self.tau)
        out = []
        for _ in range(1 if tiny else self.scans):
            step = float(rng.uniform(2.5, 10.0 / max(n - 1, 1)))
            lo = float(rng.uniform(33.4, 43.4 - step * (n - 1)))
            amps = lo + step * np.arange(n)
            config = {
                "system": "lorentz",
                "method": "adaptive",
                "steps": STEPS,
                "tau": self.tau,
                "amp_min": lo,
                "amp_max": float(amps[-1]),
                "amp_step": step,
            }
            expect = tuple(("lorentz", float(a), self.tau, span) for a in amps)
            out.append(Request("scan-area", config, expect))
        return out

    def warm_up(self, pkg, requests, out_path, execute):
        req = requests[0]
        config = dict(req.config, amp_max=req.config["amp_min"])
        execute(pkg, Request(req.experiment, config), out_path)


class Trajectory(Workload):
    name = "trajectory"
    why = (
        "simulate requests that keep all 4097 samples, so diagnostics, row building "
        "and CSV writing carry half the time and the pool is unused"
    )
    #: peak |W| levels (1/T) and delay levels (T); every system gets every
    #: pair, so each seed spans the same ranges and max_err stays comparable
    peaks = (10.0, 17.5, 25.0, 32.5, 40.0)
    taus = (-3.0, -1.5, 0.0, 1.5, 3.0)
    #: one cell in five uses rotation, the rest rk4, so the median and the
    #: 90th percentile request both lie inside the rk4 cluster
    rotation_every = 5

    def requests(self, seed, tiny=False):
        rng = np.random.default_rng(seed)
        out = []
        for k, system in enumerate(SYSTEMS):
            coupling = max(abs(c) for c in reference.W_FACTORS[system])
            for i, peak in enumerate(self.peaks):
                for j, tau_level in enumerate(self.taus):
                    method = "rotation" if (i + j + k) % self.rotation_every == 0 else "rk4"
                    b0 = (peak - rng.uniform(0.0, 0.5)) / coupling
                    tau = float(np.clip(tau_level + rng.uniform(-0.1, 0.1), -3.0, 3.0))
                    config = {
                        "system": system,
                        "method": method,
                        "steps": STEPS,
                        "b0": b0,
                        "tau": tau,
                    }
                    out.append(Request("simulate", config, ((system, b0, tau, None),)))
        order = rng.permutation(len(out))
        return [out[i] for i in order[: 4 if tiny else len(out)]]

    def check(self, pkg, request, out_path):
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        if _NON_FINITE.search(text):
            return [Op(False, note="non-finite values in the CSV")]
        rows = _data_lines(text)[1:]
        if len(rows) != STEPS + 1:
            return [Op(False, note=f"{len(rows)} rows, expected {STEPS + 1}")]
        last = np.array([float(v) for v in rows[-1].split(",")])
        return [self._compare(request.expect[0], last[1:4])]


class Verify(Workload):
    name = "verify"
    why = (
        "the full verify suite run cold, the only workload where the rotation oracle "
        "and the three-state quantum solver dominate"
    )
    #: verify has no final states; this check's value, the distance of the
    #: quantum solver's states from the kernel's, stands in as max_err
    max_err_check = "cross_solver_max_diff"
    calibration_calls = 16

    def requests(self, seed, tiny=False):
        return [Request("verify", {})]

    def warm_up(self, pkg, requests, out_path, execute):
        pkg.verify.ALL_CHECKS[0]()

    def before_request(self, pkg):
        clear_caches(pkg)

    def op_count(self, pkg, request):
        return len(pkg.verify.ALL_CHECKS)

    def check(self, pkg, request, out_path):
        with open(out_path, encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        ops = []
        for c in checks:
            value = float(c["value"])
            ok = bool(c["passed"]) and math.isfinite(value)
            ops.append(Op(ok, name=c["name"], value=value, note="" if ok else "check failed"))
        missing = self.op_count(pkg, request) - len(ops)
        ops.extend(Op(False, note="check missing from summary") for _ in range(missing))
        return ops

    def max_err(self, ops):
        vals = [op.value for op in ops if op.name == self.max_err_check]
        return max(vals) if vals else math.nan


def clear_caches(pkg):
    """Empty every functools cache in the package, so each pass runs cold."""
    for module in (pkg.cli, pkg.analysis, pkg.dynamics, pkg.quantum, pkg.systems,
                   pkg.pulses, pkg.verify):
        for obj in list(vars(module).values()):
            while obj is not None and not hasattr(obj, "cache_clear"):
                obj = getattr(obj, "__wrapped__", None)
            if obj is not None and callable(obj.cache_clear):
                obj.cache_clear()


WORKLOADS = {w.name: w for w in (DelayScan, Trajectory, AreaScanAdaptive, Verify)}
