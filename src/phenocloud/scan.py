"""Embarrassingly parallel 2D parameter scan.

The grid over (ma, tanb) is split statically into equal contiguous index
ranges, one per worker process.  Workers evaluate their share with the
configured kernel and return its lines, written by `format_point` for
either kernel, through `fan_out`'s pipe; the coordinator writes them in
worker order, so the output is byte-identical for any worker count.  There
is no inter-worker communication and no dynamic scheduling: per-point cost
is near constant, so static shares need no balancing.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import subprocess
import sys
import zlib
from collections import namedtuple

from phenocloud.errors import PhenocloudError, replace_file

STATUS_ALLOWED = "ALLOWED"
STATUS_EXC_LHC = "EXC_LHC"
STATUS_EXC_LEP = "EXC_LEP"
STATUSES = (STATUS_ALLOWED, STATUS_EXC_LHC, STATUS_EXC_LEP)

HEADER = "# MA TANB STATUS\n"


class ScanError(PhenocloudError):
    pass


class ScanGrid(namedtuple("ScanGrid", "ma_min ma_max tb_min tb_max steps_per_axis",
                          defaults=(90.0, 500.0, 1.1, 60.0, 120))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.steps_per_axis < 1:
            raise ValueError("steps_per_axis must be >= 1")
        if not all(map(math.isfinite, (self.ma_min, self.ma_max, self.tb_min, self.tb_max))):
            raise ValueError("parameter ranges must be finite")
        if not (self.ma_min < self.ma_max and self.tb_min < self.tb_max):
            raise ValueError("parameter ranges must be non-empty")
        return self

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


# The worker's share is the half-open index range [lo, hi).
class Partition(namedtuple("Partition", "worker_index lo hi")):
    __slots__ = ()

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


_BURN_BLOCK = memoryview(bytes(range(256)) * 256)  # 64 KiB


def burn(work_units: int) -> int:
    """Spend CPU time in proportion to work_units: one byte of CRC-32 each."""
    crc = 0
    remaining = int(work_units)
    while remaining > 0:
        n = min(remaining, len(_BURN_BLOCK))
        crc = zlib.crc32(_BURN_BLOCK[:n], crc)
        remaining -= n
    return crc


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
    `first_index`, and return their statuses.  Each output line must echo
    its input point as sent and add one known status."""
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
    rows = [line.split() for line in lines]
    for offset, (point, tokens) in enumerate(zip(inputs, rows)):
        if tokens[:2] != point.split() or len(tokens) != 3 or tokens[2] not in STATUSES:
            raise ScanError(
                f"kernel output for point {first_index + offset}: expected "
                f"'{point} <{'|'.join(STATUSES)}>', got {lines[offset].strip()!r}"
            )
    return [tokens[2] for tokens in rows]


WorkerFailure = namedtuple("WorkerFailure", "index reason")  # reason: one line


def _report(index, target, args, release, releaser, result):
    """A forked child: once released, pickle target(*args), or a WorkerFailure
    if it raises, into its result pipe.  Never returns into the caller's code."""
    code = 1
    try:
        os.close(releaser)  # else the parent closing its copy would not read as EOF here
        if os.read(release, 1):  # EOF instead: the parent failed before the release
            try:
                data = pickle.dumps(target(*args))
            except Exception as exc:  # sent to the parent instead of printed
                message = " ".join(str(exc).split())
                name = type(exc).__name__
                data = pickle.dumps(WorkerFailure(index, f"{name}: {message}" if message else name))
            with result:
                result.write(data)
        code = 0  # only now: a child that exits 0 has sent a whole pickle, if released
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def fan_out(target, arg_tuples) -> list:
    """Run target(*args) for every tuple, each in its own forked process.

    The children wait on one release pipe, written once all are forked, or
    closed unwritten if this call fails first.  Returns, in worker order,
    each (picklable) return value or a WorkerFailure for a child that raised
    or died.  All are reaped and every pipe is closed on every exit path.
    """
    release, releaser = os.pipe()
    readers, pids = [], []
    sys.stdout.flush()  # else each child would write the buffered output again
    sys.stderr.flush()
    try:
        for index, args in enumerate(arg_tuples):
            reader, writer = os.pipe()
            readers.append(open(reader, "rb"))
            with open(writer, "wb") as pipe:  # the child alone keeps it: its death reads as EOF
                if (pid := os.fork()) == 0:
                    _report(index, target, args, release, releaser, pipe)
            pids.append(pid)
        os.write(releaser, bytes(len(pids)))
        payloads = [pipe.read() for pipe in readers]  # in order: a child blocks on its own alone
    finally:
        os.close(release)
        os.close(releaser)
        for pipe in readers:  # before reaping, so that no child blocks on a write
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    return [pickle.loads(payload) if payload and not code
            else WorkerFailure(index, f"exited with code {code} before reporting")
            for index, (payload, code) in enumerate(zip(payloads, codes))]


def _worker(grid, part, kernel, work_units, command, timeout_per_point):
    points = build_grid(grid, part.lo, part.hi)
    if kernel == "builtin":
        statuses = (builtin_kernel(ma, tb, work_units) for ma, tb in points)
    else:
        statuses = _evaluate_command(points, part.lo, command, timeout_per_point)
    return "".join(format_point(ma, tb, status) for (ma, tb), status in zip(points, statuses))


def run_scan(
    grid: ScanGrid,
    workers: int,
    out: str,
    kernel: str = "builtin",
    work_units: int = 0,
    command=None,
    timeout_per_point: float | None = None,
) -> str:
    """Evaluate the full grid with `workers` processes and write `out`.

    On success the output replaces `out` whole through `replace_file`, so
    two scans to one `out` each leave a whole file.  On any worker failure
    `out` is removed and each surviving share is written the same way to
    `<out>.partN` for diagnosis; an `out` that is not a regular file is
    refused with `ScanError` before any worker starts.

    Refused with `ValueError` before any worker starts or any file is
    written: an unknown kernel, the command kernel without a command, a
    negative `work_units`, a non-zero `work_units` with the command kernel,
    a `timeout_per_point` with the builtin kernel or not positive and
    finite, and a command with the builtin kernel.
    """
    if kernel not in ("builtin", "command"):
        raise ValueError(f"unknown kernel {kernel!r}")
    if kernel == "command" and not command:
        raise ValueError("command kernel requires a command")
    if work_units < 0:
        raise ValueError(f"work_units must be >= 0, got {work_units}")
    if kernel == "command" and work_units:
        raise ValueError("work_units applies to the builtin kernel only")
    if kernel == "builtin" and timeout_per_point is not None:
        raise ValueError("timeout_per_point applies to the command kernel only")
    if timeout_per_point is not None and not 0 < timeout_per_point < math.inf:
        raise ValueError(f"timeout_per_point must be positive and finite, got {timeout_per_point}")
    if kernel == "builtin" and command is not None:
        raise ValueError("command applies to the command kernel only")
    if os.path.exists(out) and not os.path.isfile(out):  # e.g. /dev/null: never replace it
        raise ScanError(f"{out} exists and is not a regular file")
    parts = partition(grid.n_points, min(workers, grid.n_points))
    try:
        args = [(grid, part, kernel, work_units, command, timeout_per_point) for part in parts]
        shares = fan_out(_worker, args)
        failures = [s for s in shares if isinstance(s, WorkerFailure)]
        if failures:
            kept = {f"{out}.part{index}": share for index, share in enumerate(shares)
                    if not isinstance(share, WorkerFailure)}
            for path, share in kept.items():
                replace_file(path, [share.encode()])
            raise ScanError(
                "; ".join(f"worker {f.index} failed: {f.reason}" for f in failures)
                + (f"; partial files kept: {', '.join(kept)}" if kept else "")
            )
        replace_file(out, map(str.encode, [HEADER, *shares]))
    except BaseException:
        # A failed scan leaves no earlier result; replace_file leaves no half write.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(out)
        raise
    return out
