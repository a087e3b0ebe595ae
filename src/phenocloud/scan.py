"""Embarrassingly parallel 2D parameter scan.

The grid over (ma, tanb) is split statically into equal contiguous index
ranges, one per worker process.  Workers evaluate their share with the
configured kernel and write partial files; the coordinator concatenates
them in worker order, so the merged file is byte-identical for any worker
count.  There is no inter-worker communication and no dynamic scheduling:
per-point cost is near constant, so static shares need no balancing.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import subprocess
from dataclasses import dataclass
from multiprocessing.connection import wait

import numpy as np

from phenocloud.errors import PhenocloudError

STATUS_ALLOWED = "ALLOWED"
STATUS_EXC_LHC = "EXC_LHC"
STATUS_EXC_LEP = "EXC_LEP"
STATUSES = (STATUS_ALLOWED, STATUS_EXC_LHC, STATUS_EXC_LEP)

HEADER = "# MA TANB STATUS\n"


class ScanError(PhenocloudError):
    pass


@dataclass(frozen=True)
class ScanGrid:
    ma_min: float = 90.0
    ma_max: float = 500.0
    tb_min: float = 1.1
    tb_max: float = 60.0
    steps_per_axis: int = 120

    def __post_init__(self):
        if self.steps_per_axis < 1:
            raise ValueError("steps_per_axis must be >= 1")
        if not (self.ma_min < self.ma_max and self.tb_min < self.tb_max):
            raise ValueError("parameter ranges must be non-empty")

    @property
    def n_points(self):
        return self.steps_per_axis ** 2


def _axis(lo, hi, steps):
    if steps == 1:
        return [lo]
    return [lo + k * (hi - lo) / (steps - 1) for k in range(steps)]


def build_grid(grid: ScanGrid, lo: int = 0, hi: int | None = None):
    """The (ma, tanb) points with linear index in [lo, hi), by default all.

    The index is i_ma * steps + i_tb; no point outside the range is built.
    """
    steps = grid.steps_per_axis
    ma_axis = _axis(grid.ma_min, grid.ma_max, steps)
    tb_axis = _axis(grid.tb_min, grid.tb_max, steps)
    return [(ma_axis[i // steps], tb_axis[i % steps]) for i in range(grid.n_points)[lo:hi]]


@dataclass(frozen=True)
class Partition:
    worker_index: int
    lo: int
    hi: int  # half-open

    @property
    def size(self):
        return self.hi - self.lo


def partition(n_points: int, workers: int):
    """Split [0, n_points) into `workers` contiguous near-equal ranges.

    The first n_points % workers ranges get the extra point.
    """
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    base, extra = divmod(n_points, workers)
    parts = []
    lo = 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        parts.append(Partition(worker_index=w, lo=lo, hi=lo + size))
        lo += size
    return parts


_BURN_CHUNK = 1 << 16
_burn_buffer = None


def burn(work_units: int) -> float:
    """Spend work_units arithmetic operations; cost is uniform per call."""
    global _burn_buffer
    if _burn_buffer is None:
        _burn_buffer = np.sqrt(np.arange(1, _BURN_CHUNK + 1, dtype=np.float64))
    total = 0.0
    remaining = int(work_units)
    while remaining > 0:
        n = min(remaining, _BURN_CHUNK)
        total += float(np.sum(_burn_buffer[:n]))
        remaining -= n
    return total


def classify(ma: float, tanb: float) -> str:
    """Fixed stand-in exclusion rule for the real physics codes."""
    if tanb < 4 and ma < 200:
        return STATUS_EXC_LEP
    if tanb > 40:
        return STATUS_EXC_LHC
    return STATUS_ALLOWED


def builtin_kernel(ma: float, tanb: float, work_units: int = 0) -> str:
    if work_units < 0:
        raise ValueError("work_units must be >= 0")
    if work_units:
        burn(work_units)
    return classify(ma, tanb)


def format_point(ma: float, tanb: float, status: str) -> str:
    return "%.6g %.6g %s\n" % (ma, tanb, status)


def _evaluate_command(points, first_index, command, timeout_per_point):
    """Run the command kernel over `points`, whose grid indices start at
    `first_index`.  Each output line must echo its input point as sent and
    add one known status."""
    inputs = ["%.6g %.6g" % (ma, tb) for ma, tb in points]
    stdin = "".join(f"{point}\n" for point in inputs)
    timeout = timeout_per_point * len(points) if timeout_per_point else None
    proc = subprocess.run(
        command,
        input=stdin,
        capture_output=True,
        text=True,
        shell=isinstance(command, str),
        timeout=timeout,
    )
    if proc.returncode != 0:
        detail = f": {proc.stderr.strip()}" if proc.stderr.strip() else ""
        raise ScanError(f"kernel command failed with exit {proc.returncode}{detail}")
    lines = proc.stdout.splitlines()
    if len(lines) != len(points):
        raise ScanError(
            f"kernel emitted {len(lines)} lines for {len(points)} points"
        )
    for offset, (point, line) in enumerate(zip(inputs, lines)):
        tokens = line.split()
        if tokens[:2] != point.split() or len(tokens) != 3 or tokens[2] not in STATUSES:
            raise ScanError(
                f"kernel output for point {first_index + offset}: expected "
                f"'{point} <{'|'.join(STATUSES)}>', got {line.strip()!r}"
            )
    return [line.rstrip("\n") + "\n" for line in lines]


@dataclass(frozen=True)
class WorkerFailure:
    index: int
    reason: str  # one line


def _report(index, target, args, barrier, conn):
    with conn:
        try:
            barrier.wait()
            conn.send(target(*args))
        except Exception as exc:  # sent to the parent instead of printed
            message = " ".join(str(exc).split())
            name = type(exc).__name__
            conn.send(WorkerFailure(index, f"{name}: {message}" if message else name))


def fan_out(target, arg_tuples) -> list:
    """Run target(*args) for every tuple, each in its own process.

    All start behind one launch barrier.  Returns, in worker order, each
    return value or a WorkerFailure; one that dies without reporting aborts
    the barrier, so no sibling waits forever.  All are joined on return.
    Targets and arguments must be module-level and picklable.
    """
    released = multiprocessing.Event()
    barrier = multiprocessing.Barrier(len(arg_tuples), action=released.set)
    procs, conns = [], []
    try:
        for index, args in enumerate(arg_tuples):
            conn, sender = multiprocessing.Pipe(duplex=False)
            conns.append(conn)
            proc = multiprocessing.Process(
                target=_report, args=(index, target, args, barrier, sender)
            )
            with sender:  # the worker alone holds it, so its death reads as EOF
                proc.start()
            procs.append(proc)
        results = [None] * len(conns)
        pending = {conn: index for index, conn in enumerate(conns)}
        while pending:
            for conn in wait(list(pending)):
                index = pending.pop(conn)
                try:
                    results[index] = conn.recv()
                except EOFError:
                    if not released.is_set():  # once released, abort would break siblings
                        barrier.abort()
                    procs[index].join()
                    reason = f"exited with code {procs[index].exitcode} before reporting"
                    results[index] = WorkerFailure(index, reason)
        return results
    finally:
        barrier.abort()  # frees workers still waiting if this call failed
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def _worker(grid, part, kernel, work_units, command, timeout_per_point, out):
    points = build_grid(grid, part.lo, part.hi)
    if kernel == "builtin":
        lines = [format_point(ma, tb, builtin_kernel(ma, tb, work_units)) for ma, tb in points]
    else:
        lines = _evaluate_command(points, part.lo, command, timeout_per_point)
    part_path = f"{out}.part{part.worker_index}"
    with open(part_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return part_path


def run_scan(
    grid: ScanGrid,
    workers: int,
    out: str,
    kernel: str = "builtin",
    work_units: int = 0,
    command=None,
    timeout_per_point: float | None = None,
) -> str:
    """Evaluate the full grid with `workers` processes and merge the parts.

    On success the merged file replaces `out` in one step and the partial
    files are removed.  On any worker failure `out` is removed and the
    part files of the workers that succeeded are kept for diagnosis.
    """
    if kernel not in ("builtin", "command"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if kernel == "command" and not command:
        raise ValueError("command kernel requires a command")
    if os.path.exists(out) and not os.path.isfile(out):  # e.g. /dev/null: never replace it
        raise ScanError(f"{out} exists and is not a regular file")
    parts = partition(grid.n_points, workers)
    tmp = f"{out}.tmp"
    try:
        args = [(grid, part, kernel, work_units, command, timeout_per_point, out) for part in parts]
        part_paths = fan_out(_worker, args)
        failures = [p for p in part_paths if isinstance(p, WorkerFailure)]
        if failures:
            kept = [p for p in part_paths if not isinstance(p, WorkerFailure)]
            raise ScanError(
                "; ".join(f"worker {f.index} failed: {f.reason}" for f in failures)
                + (f"; partial files kept: {', '.join(kept)}" if kept else "")
            )
        with open(tmp, "w", encoding="utf-8") as merged:
            merged.write(HEADER)
            for part_path in part_paths:
                with open(part_path, encoding="utf-8") as fh:
                    merged.write(fh.read())
        os.replace(tmp, out)
    except BaseException:
        # A failed scan leaves neither an earlier result nor a half merge.
        for path in (out, tmp):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        raise
    for part_path in part_paths:
        os.unlink(part_path)
    return out
