import os
import stat
import statistics
import sys
import time

import pytest

from phenocloud.scan import (
    HEADER,
    Partition,
    ScanError,
    ScanGrid,
    build_grid,
    builtin_kernel,
    classify,
    format_point,
    partition,
    run_scan,
)

SMALL_GRID = ScanGrid(ma_min=90, ma_max=500, tb_min=1.1, tb_max=60, steps_per_axis=8)


# --- grid --------------------------------------------------------------------


def test_default_grid_has_14400_points():
    grid = ScanGrid()
    points = build_grid(grid)
    assert len(points) == 14400
    assert points[0] == (90.0, 1.1)
    assert points[-1] == (500.0, 60.0)
    ma_values = sorted({ma for ma, _ in points})
    assert ma_values[0] == 90.0 and ma_values[-1] == 500.0
    assert len(ma_values) == 120


def test_single_step_grid_degenerates_to_lower_bound():
    grid = ScanGrid(ma_min=90, ma_max=500, tb_min=1.1, tb_max=60, steps_per_axis=1)
    assert build_grid(grid) == [(90.0, 1.1)]


def test_three_step_axis_is_linear():
    grid = ScanGrid(ma_min=0, ma_max=1, tb_min=0, tb_max=1, steps_per_axis=3)
    values = sorted({ma for ma, _ in build_grid(grid)})
    assert values == [0.0, 0.5, 1.0]


def test_linearized_index_order():
    grid = ScanGrid(ma_min=0, ma_max=1, tb_min=0, tb_max=2, steps_per_axis=2)
    assert build_grid(grid) == [(0, 0), (0, 2), (1, 0), (1, 2)]


def test_zero_steps_rejected():
    with pytest.raises(ValueError):
        ScanGrid(steps_per_axis=0)


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        ScanGrid(ma_min=500, ma_max=90)


# --- partition ---------------------------------------------------------------


def test_partition_14400_by_8():
    parts = partition(14400, 8)
    assert [p.size for p in parts] == [1800] * 8


def test_partition_remainder_rule():
    assert [p.size for p in partition(10, 3)] == [4, 3, 3]


def test_partition_zero_workers_rejected():
    with pytest.raises(ValueError):
        partition(10, 0)


def test_partition_small_cases_exhaustively():
    for n in range(0, 51):
        for w in range(1, 9):
            parts = partition(n, w)
            covered = []
            for p in parts:
                covered.extend(range(p.lo, p.hi))
            assert covered == list(range(n))  # disjoint, covering, ordered
            sizes = [p.size for p in parts]
            assert max(sizes) - min(sizes) <= 1


# --- kernel ------------------------------------------------------------------


@pytest.mark.parametrize(
    "ma,tanb,status",
    [(100, 2.0, "EXC_LEP"), (300, 50.0, "EXC_LHC"), (300, 10.0, "ALLOWED")],
)
def test_builtin_kernel_classification(ma, tanb, status):
    assert builtin_kernel(ma, tanb) == status
    assert classify(ma, tanb) == status


def test_builtin_kernel_rejects_negative_work():
    with pytest.raises(ValueError):
        builtin_kernel(100, 2.0, work_units=-1)


def test_builtin_kernel_near_constant_cost():
    # per-point cost spread is what justifies static partitioning
    times = []
    grid = build_grid(SMALL_GRID)
    builtin_kernel(*grid[0], work_units=200_000)  # warm the burn buffer
    for ma, tb in grid[:32]:
        # host noise only ever adds time, so each sample is the least of 3 calls
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            builtin_kernel(ma, tb, work_units=200_000)
            samples.append(time.perf_counter() - start)
        times.append(min(samples))
    cv = statistics.pstdev(times) / statistics.mean(times)
    assert cv < 0.25


# --- scan runs ---------------------------------------------------------------


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


def serial_expectation(grid):
    return [HEADER] + [
        format_point(ma, tb, classify(ma, tb)) for ma, tb in build_grid(grid)
    ]


def test_single_worker_equals_serial_evaluation(tmp_path):
    out = str(tmp_path / "scan.dat")
    run_scan(SMALL_GRID, workers=1, out=out)
    assert read_lines(out) == serial_expectation(SMALL_GRID)


def test_merged_output_identical_across_worker_counts(tmp_path):
    outputs = []
    for w in (1, 2, 4):
        out = str(tmp_path / f"scan_w{w}.dat")
        run_scan(SMALL_GRID, workers=w, out=out)
        with open(out, "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1] == outputs[2]


def test_part_files_removed_after_merge(tmp_path):
    out = tmp_path / "scan.dat"
    run_scan(SMALL_GRID, workers=3, out=str(out))
    assert not list(tmp_path.glob("scan.dat.part*"))


def test_output_format(tmp_path):
    out = str(tmp_path / "scan.dat")
    run_scan(SMALL_GRID, workers=2, out=out)
    lines = read_lines(out)
    assert lines[0] == "# MA TANB STATUS\n"
    assert len(lines) == 1 + SMALL_GRID.n_points
    for line in lines[1:]:
        ma, tb, status = line.split()
        float(ma), float(tb)
        assert status in ("ALLOWED", "EXC_LHC", "EXC_LEP")


def test_external_command_kernel(tmp_path):
    # echo-style kernel: classify nothing, call everything ALLOWED
    kernel = (
        'while read ma tb; do echo "$ma $tb ALLOWED"; done'
    )
    out = str(tmp_path / "scan.dat")
    run_scan(SMALL_GRID, workers=2, out=out, kernel="command", command=kernel)
    lines = read_lines(out)
    assert len(lines) == 1 + SMALL_GRID.n_points
    assert all(line.endswith("ALLOWED\n") for line in lines[1:])


def test_command_kernel_with_unknown_status_is_refused(tmp_path):
    out = tmp_path / "scan.dat"
    kernel = 'while read ma tb; do echo "$ma $tb BOGUS"; done'
    with pytest.raises(ScanError) as err:
        run_scan(SMALL_GRID, workers=2, out=str(out), kernel="command", command=kernel)
    message = str(err.value)
    assert "point 0:" in message and "BOGUS" in message
    assert "point 32:" in message  # the second worker's first point
    assert not out.exists()


def test_command_kernel_that_does_not_echo_its_point_is_refused(tmp_path):
    out = tmp_path / "scan.dat"
    kernel = 'while read ma tb; do echo "$tb $ma ALLOWED"; done'
    with pytest.raises(ScanError, match="point 0:"):
        run_scan(SMALL_GRID, workers=1, out=str(out), kernel="command", command=kernel)
    assert not out.exists()


def test_external_command_failure_keeps_parts(tmp_path):
    out = str(tmp_path / "scan.dat")
    with pytest.raises(ScanError):
        run_scan(SMALL_GRID, workers=2, out=out, kernel="command", command="exit 9")
    assert not (tmp_path / "scan.dat").exists()


def test_failed_scan_removes_earlier_output(tmp_path):
    out = tmp_path / "scan.dat"
    out.write_text("result of an earlier run\n")
    with pytest.raises(ScanError):
        run_scan(SMALL_GRID, workers=2, out=str(out), kernel="command", command="exit 9")
    assert not out.exists()
    assert not list(tmp_path.iterdir())


def test_failed_scan_error_names_workers_and_reason(tmp_path):
    out = str(tmp_path / "scan.dat")
    with pytest.raises(ScanError) as err:
        run_scan(SMALL_GRID, workers=2, out=out, kernel="command", command="exit 9")
    message = str(err.value)
    assert "worker 0 failed: ScanError: kernel command failed with exit 9" in message
    assert "worker 1 failed: ScanError: kernel command failed with exit 9" in message
    assert "kept" not in message


def test_output_that_is_not_a_regular_file_is_refused(tmp_path):
    fifo = tmp_path / "scan.fifo"
    os.mkfifo(fifo)
    # With a reader open, code that writes into the FIFO fails this test
    # instead of blocking in open().
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with pytest.raises(ScanError, match="not a regular file"):
            run_scan(SMALL_GRID, workers=1, out=str(fifo))
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_failed_worker_keeps_part_files_of_survivors(tmp_path):
    # only the second worker's slice contains ma > 400, so only it fails
    kernel = (
        f'{sys.executable} -c "'
        "import sys\n"
        "for line in sys.stdin:\n"
        "    ma, tb = line.split()\n"
        "    if float(ma) > 400: sys.exit(1)\n"
        "    print(ma, tb, 'ALLOWED')\n"
        '"'
    )
    out = str(tmp_path / "scan.dat")
    with pytest.raises(ScanError, match="partial files kept"):
        run_scan(SMALL_GRID, workers=2, out=out, kernel="command", command=kernel)
    assert (tmp_path / "scan.dat.part0").exists()


def test_unknown_kernel_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_scan(SMALL_GRID, workers=1, out=str(tmp_path / "x"), kernel="magic")
