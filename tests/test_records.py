"""The package's records outside identity: named tuples with fixed fields,
defaults, repr and immutability (identity's records are pinned in
test_identity)."""

import pytest

from phenocloud.bench import BenchReport, BenchRun, MachineLabel, TimingRecord, Workload
from phenocloud.catalog import ResolvedApp
from phenocloud.contextualize import ExecutionReport, ImageRecord, MetadataSource, StepReport
from phenocloud.resolver import InstallPlan
from phenocloud.scan import Partition, ScanGrid, WorkerFailure

TIMES = TimingRecord(1.0, 0.5, 0.25)
MACHINE = MachineLabel("R", 2, False, 0.0)
STEP = StepReport("A", "1.0", "cached", None, 0, 0.5)
APP = ResolvedApp("A", "1.0", {"dependencies": []}, None)

RECORDS = [
    (TIMES, TimingRecord(sys_s=0.25, user_s=0.5, real_s=1.0),
     dict(real_s=1.0, user_s=0.5, sys_s=0.25),
     "TimingRecord(real_s=1.0, user_s=0.5, sys_s=0.25)"),
    (MACHINE, MachineLabel(ram_gb=0.0, hyperthreading=False, cores=2, size_class="R"),
     dict(size_class="R", cores=2, hyperthreading=False, ram_gb=0.0),
     "MachineLabel(size_class='R', cores=2, hyperthreading=False, ram_gb=0.0)"),
    (BenchRun(MACHINE, "Math", 1, [TIMES]),
     BenchRun(records=[TIMES], processes=1, phase="Math", machine=MACHINE),
     dict(machine=MACHINE, phase="Math", processes=1, records=[TIMES], label="", failed=False,
          errors=()),
     "BenchRun(machine=MachineLabel(size_class='R', cores=2, hyperthreading=False, ram_gb=0.0),"
     " phase='Math', processes=1, records=[TimingRecord(real_s=1.0, user_s=0.5, sys_s=0.25)],"
     " label='', failed=False, errors=())"),
    (Workload(("true",)), Workload(command=("true",)), dict(command=("true",), work_units=0),
     "Workload(command=('true',), work_units=0)"),
    (BenchReport("L", "Math", TIMES, TIMES, 25.0),
     BenchReport(sys_pct_max=25.0, min_record=TIMES, max_record=TIMES, phase="Math",
                 run_label="L"),
     dict(run_label="L", phase="Math", max_record=TIMES, min_record=TIMES, sys_pct_max=25.0,
          baseline_label=None, degradation_pct_vs_baseline=None),
     "BenchReport(run_label='L', phase='Math',"
     " max_record=TimingRecord(real_s=1.0, user_s=0.5, sys_s=0.25),"
     " min_record=TimingRecord(real_s=1.0, user_s=0.5, sys_s=0.25), sys_pct_max=25.0,"
     " baseline_label=None, degradation_pct_vs_baseline=None)"),
    (ScanGrid(), ScanGrid(steps_per_axis=120),
     dict(ma_min=90.0, ma_max=500.0, tb_min=1.1, tb_max=60.0, steps_per_axis=120),
     "ScanGrid(ma_min=90.0, ma_max=500.0, tb_min=1.1, tb_max=60.0, steps_per_axis=120)"),
    (Partition(0, 0, 5), Partition(hi=5, lo=0, worker_index=0), dict(worker_index=0, lo=0, hi=5),
     "Partition(worker_index=0, lo=0, hi=5)"),
    (WorkerFailure(1, "boom"), WorkerFailure(reason="boom", index=1),
     dict(index=1, reason="boom"), "WorkerFailure(index=1, reason='boom')"),
    (MetadataSource("local-file", "m.json"), MetadataSource(location="m.json", kind="local-file"),
     dict(kind="local-file", location="m.json"),
     "MetadataSource(kind='local-file', location='m.json')"),
    (STEP, StepReport(duration_s=0.5, exit_status=0, download_url=None, download="cached",
                      version="1.0", app="A"),
     dict(app="A", version="1.0", download="cached", download_url=None, exit_status=0,
          duration_s=0.5, output=""),
     "StepReport(app='A', version='1.0', download='cached', download_url=None, exit_status=0,"
     " duration_s=0.5, output='')"),
    (ExecutionReport([STEP]), ExecutionReport(steps=[STEP]),
     dict(steps=[STEP], failed_at=None, dry_run=False),
     "ExecutionReport(steps=[StepReport(app='A', version='1.0', download='cached',"
     " download_url=None, exit_status=0, duration_s=0.5, output='')], failed_at=None,"
     " dry_run=False)"),
    (ImageRecord("i", {}), ImageRecord(properties={}, image_id="i"),
     dict(image_id="i", properties={}), "ImageRecord(image_id='i', properties={})"),
    (APP, ResolvedApp(download_url=None, effective={"dependencies": []}, version_key="1.0",
                      name="A"),
     dict(name="A", version_key="1.0", effective={"dependencies": []}, download_url=None),
     "ResolvedApp(name='A', version_key='1.0', effective={'dependencies': []},"
     " download_url=None)"),
    (InstallPlan((APP,)), InstallPlan(steps=(APP,)), dict(steps=(APP,)),
     "InstallPlan(steps=(ResolvedApp(name='A', version_key='1.0',"
     " effective={'dependencies': []}, download_url=None),))"),
]


@pytest.mark.parametrize("by_position,by_keyword,fields,text", RECORDS,
                         ids=[type(record[0]).__name__ for record in RECORDS])
def test_record_keeps_its_fields_defaults_repr_and_immutability(by_position, by_keyword,
                                                                fields, text):
    assert by_position == by_keyword
    assert list(by_position._asdict().items()) == list(fields.items())
    assert repr(by_position) == text
    with pytest.raises(AttributeError):
        setattr(by_position, next(iter(fields)), "changed")
