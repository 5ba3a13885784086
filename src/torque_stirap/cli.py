"""Batch command-line front end.

Four subcommands: ``simulate`` (one trajectory to CSV), ``scan-delay`` and
``scan-area`` (per-point CSVs), and ``verify`` (the built-in check suite,
pass/fail table plus a JSON summary, exit status 0 iff everything passes).

Configuration comes from an optional JSON file (``--config``) overlaid by
command-line flags; unknown or duplicated keys in the file are errors.  All
times are in units of the pulse width T and all field amplitudes in 1/T;
floats in the CSV are written with 12 significant digits so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import __version__, analysis, dynamics, systems, verify
from .pulses import PulseSchedule
from .systems import SYSTEM_KINDS

EXPERIMENTS = ("simulate", "scan-delay", "scan-area", "verify")

_DEFAULT_OUT = {
    "simulate": "simulate.csv",
    "scan-delay": "scan_delay.csv",
    "scan-area": "scan_area.csv",
    "verify": "verify_summary.json",
}

#: Default amplitude grid for scan-area: accumulated precession angles
#: (rms areas) sweep roughly 100..130 at the default delay +1.2T.
_AMP_GRID_DEFAULT = (33.4, 43.4, 0.25)

#: Largest number of grid intervals a run may request.
MAX_STEPS = 1 << 20


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; units normalized to T = 1."""

    experiment: str
    system: str = "lorentz"
    coupling: float | None = None
    b0: float = 20.0
    s_b0: float | None = None
    tau: float = -1.2
    width: float = 1.0
    initial: tuple = (0.0, 0.0, 1.0)
    method: str = "rk4"
    steps: int = 4096
    tol: float = 1e-9
    window: float | None = None
    out: str | None = None
    delay_min: float = -3.0
    delay_max: float = 3.0
    delay_step: float = 0.025  # 241 points over [-3T, 3T]
    amp_min: float = _AMP_GRID_DEFAULT[0]
    amp_max: float = _AMP_GRID_DEFAULT[1]
    amp_step: float = _AMP_GRID_DEFAULT[2]

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for key in ("b0", "s_b0"):
            value = getattr(self, key)
            if value is not None and value < 0:
                raise ValueError(f"{key} must be >= 0, got {value}")
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.system not in SYSTEM_KINDS:
            raise ValueError(f"unknown system {self.system!r}")
        if self.method not in ("rk4", "adaptive", "rotation"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be <= {MAX_STEPS}, got {self.steps}")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if not (self.width > 0):
            raise ValueError("width must be positive")
        if self.window is not None and not (self.window > 0):
            raise ValueError("window must be positive")
        if len(self.initial) != 3 or not all(math.isfinite(c) for c in self.initial):
            raise ValueError("initial must be a finite 3-vector")
        if all(c == 0 for c in self.initial):
            raise ValueError("initial must be nonzero")
        object.__setattr__(self, "initial", tuple(float(c) for c in self.initial))

    @property
    def out_path(self) -> str:
        return self.out if self.out is not None else _DEFAULT_OUT[self.experiment]

    def schedule(self) -> PulseSchedule:
        return PulseSchedule.from_delay(
            self.b0, self.tau, width=self.width, s_amplitude=self.s_b0
        )

    def mapping(self) -> systems.SystemMapping:
        return systems.SystemMapping(self.system, coupling=self.coupling)

    def grid(self, schedule=None):
        if self.window is not None:
            lo, hi = -self.window, self.window
        else:
            lo, hi = (schedule or self.schedule()).window()
        return dynamics.time_grid(lo, hi, self.steps)

    def echo(self) -> dict:
        """Resolved configuration for the CSV metadata block.

        The output path is omitted so runs of the same physics written to
        different destinations produce byte-identical content.
        """
        d = {}
        for f in fields(self):
            if f.name == "out":
                continue
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            d[f.name] = v
        return d


def _json_type(hint):
    """The JSON value type that a config field annotated ``hint`` accepts."""
    (base,) = set(typing.get_args(hint) or (hint,)) - {type(None)}
    return {str: str, float: float, int: int, tuple: list}[base]


_HINTS = typing.get_type_hints(RunConfig)
_KEY_TYPES = {key: _json_type(hint) for key, hint in _HINTS.items()}
#: Optional keys, for which ``null`` (as the ``# config:`` line echoes an
#: unset one) means unset.
_NULLABLE = {key for key, hint in _HINTS.items() if type(None) in typing.get_args(hint)}

# experiment-dependent defaults applied when neither file nor flag sets the key
_EXPERIMENT_DEFAULTS = {
    "scan-delay": {"b0": 40.0},
    "scan-area": {"tau": 1.2},
}


class ConfigError(ValueError):
    pass


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} in config file")
        seen[key] = value
    return seen


def _coerce(key, value):
    if value is None and key in _NULLABLE:
        return None
    want = _KEY_TYPES[key]
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"malformed number for key {key!r}: {value!r}")
        return float(value)
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"malformed integer for key {key!r}: {value!r}")
        return value
    if want is list:
        if not isinstance(value, list) or len(value) != 3:
            raise ConfigError(f"key {key!r} must be a 3-element list")
        out = []
        for c in value:
            if isinstance(c, bool) or not isinstance(c, (int, float)):
                raise ConfigError(f"malformed number in {key!r}: {c!r}")
            out.append(float(c))
        return tuple(out)
    if not isinstance(value, str):
        raise ConfigError(f"key {key!r} must be a string")
    return value


def parse_config(file_text: str | None, overrides: dict, experiment: str) -> RunConfig:
    """Merge a JSON config document with flag overrides into a RunConfig.

    Strict mode: unknown keys and duplicate keys are errors; malformed JSON
    reports the parse location.  ``overrides`` (from flags) win over file
    values, and the subcommand fixes the experiment.
    """
    merged = {}
    if file_text is not None and file_text.strip():
        try:
            raw = json.loads(file_text, object_pairs_hook=_reject_duplicates)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed config: {exc.msg} at line {exc.lineno} column {exc.colno}"
            ) from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in raw.items():
            if key not in _KEY_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, value)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = _coerce(key, value)
    merged["experiment"] = experiment
    for key, value in _EXPERIMENT_DEFAULTS.get(experiment, {}).items():
        merged.setdefault(key, value)
    try:
        return RunConfig(**merged)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

#: Text of every float in a CSV; ``%`` and ``format`` give the same digits.
_FLOAT = "%.12g"


def _metadata_lines(config: RunConfig):
    echo = json.dumps(config.echo(), sort_keys=True, separators=(", ", ": "))
    return [
        f"# torque-stirap {__version__}",
        "# units: time in T, field amplitudes in 1/T",
        f"# config: {echo}",
    ]


def _write_csv(path, config, header, table, footer=()):
    """Write ``table`` (rows x columns of floats) under the metadata block.

    The whole table is formatted in one ``%`` over a repeated row template.
    """
    row = ",".join([_FLOAT] * table.shape[1])
    lines = _metadata_lines(config)
    lines.append(",".join(header))
    lines.append("\n".join([row] * table.shape[0]) % tuple(table.ravel().tolist()))
    lines.extend(footer)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path} ({table.shape[0]} rows)")


def _run_simulate(config: RunConfig) -> int:
    sched = config.schedule()
    field_ = systems.to_angular_velocity(config.mapping(), sched)
    traj = dynamics.integrate(
        field_, config.initial, config.grid(sched), method=config.method, rtol=config.tol
    )
    d = traj.diagnostics
    table = np.column_stack((
        traj.times, traj.states, d.dark_variable, d.mixing_angle,
        np.linalg.norm(traj.states, axis=1),
    ))
    _write_csv(
        config.out_path,
        config,
        ("t", "x", "y", "z", "dark_variable", "mixing_angle", "norm"),
        table,
    )
    return 0


def _scan_rows_and_footer(scan):
    table = np.column_stack(
        (scan.values, scan.final_states, scan.rms_areas, scan.norm_drift)
    )
    failed = [
        f"# failed: {scan.parameter}={_FLOAT % value}: {error}"
        for value, error in zip(scan.values, scan.errors)
        if error is not None
    ]
    return table, failed


#: Largest number of points a scan grid may have.
MAX_SCAN_POINTS = 100_000


def _value_grid(lo, hi, step):
    if step <= 0:
        raise ConfigError("scan step must be positive")
    intervals = (hi - lo) / step
    if not math.isfinite(intervals) or round(intervals) >= MAX_SCAN_POINTS:
        raise ConfigError(
            f"scan from {lo:g} to {hi:g} in steps of {step:g} "
            f"has more than {MAX_SCAN_POINTS} points"
        )
    n = round(intervals)
    if n < 0:
        raise ConfigError("scan range is empty")
    return lo + step * np.arange(n + 1)


def _run_scan(config: RunConfig) -> int:
    # per scan: its grid's config keys, analysis function and first CSV
    # column; built per call, like ``run``'s table, so that a wrapper
    # patched onto ``analysis`` (as the benchmark's tracer does) is called
    grid_keys, scan_fn, column = {
        "scan-delay": (
            ("delay_min", "delay_max", "delay_step"), analysis.delay_scan, "tau_over_T"
        ),
        "scan-area": (("amp_min", "amp_max", "amp_step"), analysis.area_scan, "amplitude_T"),
    }[config.experiment]
    values = _value_grid(*(getattr(config, key) for key in grid_keys))
    window = None if config.window is None else (-config.window, config.window)
    scan = scan_fn(
        config.schedule(),
        values,
        config.mapping(),
        x0=config.initial,
        method=config.method,
        steps=config.steps,
        rtol=config.tol,
        window=window,
    )
    table, footer = _scan_rows_and_footer(scan)
    _write_csv(
        config.out_path,
        config,
        (column, "vx", "vy", "vz", "rms_area", "norm_drift"),
        table,
        footer,
    )
    return 0 if not footer else 1


def _run_verify(config: RunConfig) -> int:
    results = verify.run_all()
    width = max(len(r.name) for r in results)
    print(f"torque-stirap {__version__} verification suite")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status}  {r.name:<{width}}  value={r.value:.6g}  "
            f"required {r.comparison} {r.threshold:.6g}"
        )
    all_passed = all(r.passed for r in results)
    summary = {
        "version": __version__,
        "all_passed": all_passed,
        "checks": [
            {
                "name": r.name,
                "value": r.value,
                "threshold": r.threshold,
                "comparison": r.comparison,
                "passed": r.passed,
                "detail": r.detail,
            }
            for r in results
        ],
    }
    with open(config.out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{'all checks passed' if all_passed else 'FAILURES present'}; "
          f"summary in {config.out_path}")
    return 0 if all_passed else 1


def run(config: RunConfig) -> int:
    """Dispatch one experiment; returns the process exit status."""
    runner = {
        "simulate": _run_simulate,
        "scan-delay": _run_scan,
        "scan-area": _run_scan,
        "verify": _run_verify,
    }[config.experiment]
    return runner(config)


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _add_common_flags(sub):
    sub.add_argument("--config", help="JSON config file; flags override its keys")
    sub.add_argument("--system", choices=SYSTEM_KINDS, help="physical system adapter")
    sub.add_argument("--b0", type=float, help="peak amplitude (units 1/T)")
    sub.add_argument("--tau", type=float, help="pulse delay (units of T)")
    sub.add_argument(
        "--method", choices=("rk4", "adaptive", "rotation"), help="integrator"
    )
    sub.add_argument("--steps", type=int, help="grid intervals (default 4096)")
    sub.add_argument("--tol", type=float, help="adaptive relative tolerance")
    sub.add_argument("--out", help="output path")
    sub.add_argument(
        "--window", type=float, help="integration half-width (units of T)"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torque-stirap",
        description="Torque-equation dynamics: batch simulations, scans, verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name, help_text in (
        ("simulate", "integrate one schedule and write the per-time CSV"),
        ("scan-delay", "final state vs pulse delay"),
        ("scan-area", "final state vs peak amplitude"),
        ("verify", "run the built-in verification suite"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common_flags(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    file_text = None
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_text = fh.read()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    overrides = {
        "system": args.system,
        "b0": args.b0,
        "tau": args.tau,
        "method": args.method,
        "steps": args.steps,
        "tol": args.tol,
        "out": args.out,
        "window": args.window,
    }
    try:
        return run(parse_config(file_text, overrides, args.experiment))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except dynamics.IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
