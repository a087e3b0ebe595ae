import json
import math
import os
import random
import subprocess
import sys

import pytest

import phenocloud
from conftest import find_run, load_fixture_runs
from phenocloud.bench import (
    BenchError,
    BenchRun,
    MachineLabel,
    TimingRecord,
    Workload,
    analyze,
    degradation_pct,
    fastest,
    run_concurrent,
    slowest,
    speedup_curve,
    sys_pct,
)

LAB = MachineLabel(size_class="R", cores=1, hyperthreading=False, ram_gb=1)


def make_run(reals, p=None):
    records = [TimingRecord(real_s=r, user_s=r * 0.9, sys_s=r * 0.01) for r in reals]
    return BenchRun(machine=LAB, phase="Math", processes=p or len(reals), records=records)


@pytest.fixture(scope="module")
def fixtures():
    return load_fixture_runs()


# --- analyzer ----------------------------------------------------------------


def test_slowest_and_fastest_from_reference_tables(fixtures):
    run = find_run(fixtures, "XL_HT(8/6)", "Math")
    assert slowest(run).real_s == 2385.7
    assert fastest(run).real_s == 2358.8
    anomaly = find_run(fixtures, "R_HT(8/6)", "Math")
    assert slowest(anomaly).real_s == 2572.4
    assert fastest(anomaly).real_s == 1899.1


def test_slowest_single_record_run():
    run = make_run([10.0])
    assert slowest(run) is fastest(run) is run.records[0]


def test_slowest_empty_run_errors():
    run = BenchRun(machine=LAB, phase="Math", processes=0, records=[])
    with pytest.raises(BenchError):
        slowest(run)


def test_slowest_always_geq_fastest_random_runs():
    rng = random.Random(99)
    for _ in range(200):
        run = make_run([rng.uniform(0.1, 100) for _ in range(rng.randint(1, 10))])
        assert slowest(run).real_s >= fastest(run).real_s


def test_sys_pct_reference_values(fixtures):
    s1 = find_run(fixtures, "S_HT(1)", "Math").records[0]
    assert sys_pct(s1) == pytest.approx(2.91, abs=0.01)
    xl = find_run(fixtures, "XL_HT(8)", "Fortran").records[0]
    assert sys_pct(xl) == pytest.approx(0.23, abs=0.01)


def test_sys_pct_zero():
    assert sys_pct(TimingRecord(real_s=10, user_s=5, sys_s=0)) == 0.0


def test_degradation_reference_values(fixtures):
    virt_f = find_run(fixtures, "XL_HT(8)", "Fortran").records[0]
    phys_f = find_run(fixtures, "R_HT(8)", "Fortran").records[0]
    assert degradation_pct(virt_f, phys_f) == pytest.approx(3.19, abs=0.01)

    virt_m = find_run(fixtures, "XL_HT(8)", "Math").records[0]
    phys_m = find_run(fixtures, "R_HT(8)", "Math").records[0]
    assert degradation_pct(virt_m, phys_m) == pytest.approx(0.75, abs=0.01)

    ht = find_run(fixtures, "M_HT(2)", "Fortran").records[0]
    nht = find_run(fixtures, "M_nHT(2)", "Fortran").records[0]
    assert degradation_pct(ht, nht) == pytest.approx(3.76, abs=0.01)


def test_degradation_sign():
    fast = TimingRecord(real_s=90, user_s=1, sys_s=0)
    slow = TimingRecord(real_s=100, user_s=1, sys_s=0)
    assert degradation_pct(fast, slow) < 0 < degradation_pct(slow, fast)


def test_speedup_curve_linear():
    assert speedup_curve([(1, 100), (2, 50), (4, 25)]) == [(1, 1.0), (2, 2.0), (4, 4.0)]


@pytest.mark.parametrize("times", [
    dict(real_s=math.nan, user_s=1, sys_s=0),
    dict(real_s=math.inf, user_s=1, sys_s=0),
    dict(real_s=1, user_s=math.nan, sys_s=0),
    dict(real_s=1, user_s=0, sys_s=math.inf),
    dict(real_s=True, user_s=0, sys_s=0),
    dict(real_s=1, user_s=False, sys_s=0),
], ids=["real-nan", "real-inf", "user-nan", "sys-inf", "real-true", "user-false"])
def test_timing_record_requires_finite_times(times):
    with pytest.raises(ValueError, match="finite"):
        TimingRecord(**times)


def test_analyze_refuses_a_percentage_that_overflows():
    tiny = TimingRecord(real_s=1e-310, user_s=0, sys_s=1)
    with pytest.raises(BenchError, match="overflows"):
        analyze(BenchRun(machine=LAB, phase="Math", processes=1, records=[tiny]))
    with pytest.raises(BenchError, match="overflows"):
        analyze(make_run([1e10]), baseline=make_run([1e-300]))


@pytest.mark.parametrize("wall", [0, -1, math.nan, math.inf])
def test_speedup_curve_requires_finite_positive_wall_times(wall):
    with pytest.raises(BenchError, match="positive and finite"):
        speedup_curve([(1, 100), (2, wall)])
    with pytest.raises(BenchError, match="positive and finite"):
        speedup_curve([(1, wall), (2, 50)])


def test_speedup_curve_requires_unique_baseline():
    with pytest.raises(BenchError, match="ambiguous"):
        speedup_curve([(1, 100), (1, 100)])
    with pytest.raises(BenchError, match="baseline"):
        speedup_curve([(2, 50)])


def test_analyzer_is_bit_stable(fixtures):
    run = find_run(fixtures, "XL_HT(8/6)", "Math")
    baseline = find_run(fixtures, "R_HT(8/6)", "Math")
    first = analyze(run, baseline=baseline).to_dict()
    second = analyze(run, baseline=baseline).to_dict()
    assert json.dumps(first) == json.dumps(second)


def test_fixture_machine_ram_convention(fixtures):
    ram = {run.machine.size_class: run.machine.ram_gb for run in fixtures}
    assert (ram["S"], ram["M"], ram["L"], ram["XL"]) == (2, 4, 7, 14)


# --- run serialization ---------------------------------------------------------


def test_run_json_roundtrip():
    run = make_run([1.5, 2.5])
    again = BenchRun.from_dict(json.loads(run.to_json()))
    assert again.records == run.records
    assert again.machine == run.machine


def test_timing_record_validation():
    with pytest.raises(ValueError):
        TimingRecord(real_s=0, user_s=0, sys_s=0)
    with pytest.raises(ValueError):
        TimingRecord(real_s=1, user_s=-1, sys_s=0)


# --- harness -----------------------------------------------------------------


def test_run_concurrent_sleep_has_negligible_cpu():
    workload = Workload(command=(sys.executable, "-c", "import time; time.sleep(1)"))
    run = run_concurrent(workload, processes=1)
    record = run.records[0]
    assert not run.failed
    assert 0.9 <= record.real_s <= 3.0
    assert record.user_s + record.sys_s < 0.5 * record.real_s


def test_run_concurrent_builtin_is_cpu_bound():
    run = run_concurrent(Workload(work_units=50_000_000), processes=2)
    assert len(run.records) == 2
    for record in run.records:
        assert record.user_s + record.sys_s > 0.01


def test_run_concurrent_failure_flagged():
    workload = Workload(command=(sys.executable, "-c", "raise SystemExit(3)"))
    run = run_concurrent(workload, processes=2)
    assert run.failed
    assert len(run.records) == 2  # partial records retained


def test_bench_run_with_missing_command_fails_without_hanging():
    src = os.path.dirname(os.path.dirname(phenocloud.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "phenocloud.cli", "bench", "run",
         "--processes", "2", "--workload", "cmd:/nonexistent/cmd"],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    run = json.loads(proc.stdout)
    assert run["failed"] is True
    assert [e["index"] for e in run["errors"]] == [0, 1]
    assert all("No such file or directory" in e["reason"] for e in run["errors"])
    assert "Traceback" not in proc.stderr


def test_run_concurrent_zero_processes():
    with pytest.raises(BenchError):
        run_concurrent(Workload(work_units=1), processes=0)


def test_workload_refuses_work_units_with_a_command():
    with pytest.raises(ValueError, match="work_units"):
        Workload(command=("true",), work_units=5)
    assert Workload(command=("true",), work_units=0).command == ("true",)


def test_workload_spec_parsing():
    assert Workload.from_spec("cmd:sleep 1").command == ("sleep", "1")
    assert Workload.from_spec("builtin").command is None
    with pytest.raises(ValueError):
        Workload.from_spec("frobnicate")


def test_cmd_workload_keeps_quoted_arguments():
    workload = Workload.from_spec("cmd:sh -c 'exit 0'")
    assert workload.command == ("sh", "-c", "exit 0")
    assert not run_concurrent(workload, processes=1).failed
