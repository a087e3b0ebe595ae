"""Concurrent-process benchmark harness and timing analyzer.

The harness starts P identical workload processes, releases them together
and records per-process real/user/sys seconds (the measurement model of
GNU time: wall clock around the process, CPU split from the OS's
child-process resource accounting).  The analyzer side is pure arithmetic
over saved runs: slowest/fastest process, system-time percentage,
degradation against a baseline, and speedup curves.  Reference timing
tables for virtual and physical machines ship as JSON fixtures.
"""

from __future__ import annotations

import json
import math
import os
import shlex
import time
from collections import namedtuple

from phenocloud.errors import PhenocloudError, key_problem


class BenchError(PhenocloudError):
    pass


class TimingRecord(namedtuple("TimingRecord", "real_s user_s sys_s")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if isinstance(value, bool):  # True would pass as 1 s
                raise ValueError(f"{name} must be a finite number, not a boolean")
        if not 0 < self.real_s < math.inf:
            raise ValueError("real_s must be positive and finite")
        if not (0 <= self.user_s < math.inf and 0 <= self.sys_s < math.inf):
            raise ValueError("CPU times must be non-negative and finite")
        return self


# size_class: S | M | L | XL | R
MachineLabel = namedtuple("MachineLabel", "size_class cores hyperthreading ram_gb")


def _from_mapping(record_type, raw, where):
    """record_type(**raw); a BenchError naming the key if raw lacks a field or adds one."""
    problem = key_problem(record_type, raw)
    if problem:
        raise BenchError(f"malformed bench run {where}: {problem}")
    return record_type(**raw)


# errors: {"index", "reason"} of each process that raised or died
class BenchRun(namedtuple("BenchRun", "machine phase processes records label failed errors",
                          defaults=("", False, ()))):
    __slots__ = ()

    def to_dict(self):
        return {
            "label": self.label,
            "machine": self.machine._asdict(),
            "phase": self.phase,
            "processes": self.processes,
            "failed": self.failed,
            "errors": list(self.errors),
            "records": [r._asdict() for r in self.records],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, raw):
        try:
            run = cls(
                machine=_from_mapping(MachineLabel, raw["machine"], "machine"),
                phase=raw["phase"],
                processes=raw["processes"],
                records=[_from_mapping(TimingRecord, r, f"record {i}")
                         for i, r in enumerate(raw["records"])],
                label=raw.get("label", ""),
                failed=raw.get("failed", False),
                errors=tuple(raw.get("errors", ())),
            )
        except (KeyError, TypeError) as exc:
            raise BenchError(f"malformed bench run: {type(exc).__name__}: {exc}") from exc
        for key in ("phase", "label"):
            if not isinstance(getattr(run, key), str):
                raise BenchError(f"malformed bench run: {key} must be a string")
        return run


# --- analyzer ----------------------------------------------------------------


def slowest(run: BenchRun) -> TimingRecord:
    """The record with maximal real time; what the user actually waits for."""
    if not run.records:
        raise BenchError("run has no records")
    return max(run.records, key=lambda r: r.real_s)


def fastest(run: BenchRun) -> TimingRecord:
    if not run.records:
        raise BenchError("run has no records")
    return min(run.records, key=lambda r: r.real_s)


def sys_pct(record: TimingRecord) -> float:
    """System time as a percentage of real time."""
    return 100.0 * record.sys_s / record.real_s


def degradation_pct(candidate: TimingRecord, baseline: TimingRecord) -> float:
    """Relative slowdown of candidate vs baseline; negative means faster."""
    return 100.0 * (candidate.real_s - baseline.real_s) / baseline.real_s


def speedup_curve(timings) -> list:
    """[(P, wall time)] -> [(P, t(1)/t(P))], sorted by P."""
    by_p = {}
    for p, t in timings:
        if not 0 < t < math.inf:
            raise BenchError("wall times must be positive and finite")
        if p in by_p:
            raise BenchError(f"ambiguous baseline: duplicate entry for P={p}")
        by_p[p] = t
    if 1 not in by_p:
        raise BenchError("speedup needs a P=1 baseline")
    t1 = by_p[1]
    return [(p, t1 / by_p[p]) for p in sorted(by_p)]


# --- harness -----------------------------------------------------------------


class Workload(namedtuple("Workload", "command work_units", defaults=(None, 0))):
    """Either an external command or a built-in CPU burner.

    Refused with `ValueError`: an empty command, a negative `work_units`,
    and a non-zero `work_units` together with a command."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.command is not None and not self.command:
            raise ValueError("workload command must be non-empty")
        if self.work_units < 0:
            raise ValueError("work_units must be >= 0")
        if self.command is not None and self.work_units:
            raise ValueError("work_units applies to the builtin workload only")
        return self

    @classmethod
    def from_spec(cls, spec: str) -> "Workload":
        """`builtin`, or `cmd:` and a command line split as a POSIX shell
        would, quotes included; the command runs without a shell, so that
        its own time is what gets measured."""
        if spec == "builtin":
            return cls(work_units=10**7)
        if spec.startswith("cmd:"):
            return cls(command=tuple(shlex.split(spec[4:])))
        raise ValueError(f"unknown workload spec {spec!r}")


def _child(workload: Workload):
    """One timed copy of the workload; returns (exit status, TimingRecord)."""
    import resource
    import subprocess

    from phenocloud.scan import burn

    start = time.perf_counter()
    if workload.command is not None:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(list(workload.command), stdin=subprocess.DEVNULL, capture_output=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        exit_status = proc.returncode
    else:
        before = resource.getrusage(resource.RUSAGE_SELF)
        burn(workload.work_units)
        after = resource.getrusage(resource.RUSAGE_SELF)
        exit_status = 0
    return exit_status, TimingRecord(
        real_s=max(time.perf_counter() - start, 1e-9),
        user_s=max(after.ru_utime - before.ru_utime, 0.0),
        sys_s=max(after.ru_stime - before.ru_stime, 0.0),
    )


def run_concurrent(workload: Workload, processes: int) -> BenchRun:
    """Run P copies of the workload simultaneously and time each one.

    `fan_out` forks all P before releasing them together, so the measured
    interval excludes staggered startup.  A copy that raises or dies has
    no record but an entry in errors, and the run is marked failed.
    """
    from phenocloud.scan import WorkerFailure, fan_out

    if processes < 1:
        raise BenchError("process count must be >= 1")
    results = fan_out(_child, [(workload,)] * processes)
    failures = [r._asdict() for r in results if isinstance(r, WorkerFailure)]
    finished = [r for r in results if not isinstance(r, WorkerFailure)]
    return BenchRun(
        machine=MachineLabel("R", os.cpu_count(), False, 0.0),
        phase="workload",
        processes=processes,
        records=[record for _, record in finished],
        failed=bool(failures) or any(status != 0 for status, _ in finished),
        errors=tuple(failures),
    )


# --- reference fixtures -------------------------------------------------------

FIXTURE_FILES = (
    "timings_vm_ht_single.json",
    "timings_vm_nht_single.json",
    "timings_physical_single.json",
    "timings_vm_ht_multi.json",
    "timings_physical_multi.json",
)


def load_fixture_runs(names=FIXTURE_FILES) -> list:
    """Load the shipped reference timing tables as BenchRun objects."""
    from importlib import resources

    runs = []
    for name in names:
        text = resources.files("phenocloud.fixtures").joinpath(name).read_text()
        runs.extend(BenchRun.from_dict(raw) for raw in json.loads(text))
    return runs


def find_run(runs, label: str, phase: str) -> BenchRun:
    for run in runs:
        if run.label == label and run.phase == phase:
            return run
    raise BenchError(f"no run labelled {label!r} with phase {phase!r}")


class BenchReport(namedtuple("BenchReport", "run_label phase max_record min_record sys_pct_max "
                             "baseline_label degradation_pct_vs_baseline",
                             defaults=(None, None))):
    """Analysis of one run, optionally against a named baseline run."""

    __slots__ = ()

    def to_dict(self):
        out = {
            "run": self.run_label,
            "phase": self.phase,
            "max": self.max_record._asdict(),
            "min": self.min_record._asdict(),
            "sys_pct": round(self.sys_pct_max, 4),
        }
        if self.baseline_label is not None:
            out["baseline"] = self.baseline_label
            out["degradation_pct"] = round(self.degradation_pct_vs_baseline, 4)
        return out


def analyze(run: BenchRun, baseline: BenchRun | None = None) -> BenchReport:
    worst = slowest(run)
    report = BenchReport(
        run_label=run.label or f"{run.machine.size_class}({run.machine.cores})",
        phase=run.phase,
        max_record=worst,
        min_record=fastest(run),
        sys_pct_max=sys_pct(worst),
        baseline_label=None if baseline is None else baseline.label,
        degradation_pct_vs_baseline=(
            None if baseline is None else degradation_pct(worst, slowest(baseline))),
    )
    # Finite times can still overflow a percentage (a subnormal real_s).
    percentages = (report.sys_pct_max, report.degradation_pct_vs_baseline or 0.0)
    if not all(map(math.isfinite, percentages)):
        raise BenchError("times out of range: a percentage overflows")
    return report
