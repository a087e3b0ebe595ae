import contextlib
import json
import os
import signal
import stat
import subprocess
import sys

import pytest

import phenocloud
from phenocloud import identity as identity_mod
from phenocloud.cli import dispatch


@pytest.fixture
def catalog_file(tmp_path, feyn_catalog_text):
    path = tmp_path / "catalog.json"
    path.write_text(feyn_catalog_text)
    return str(path)


@pytest.fixture
def metadata_file(tmp_path):
    path = tmp_path / "metadata.json"
    path.write_text('{"FormCalc": "7.0.2"}')
    return str(path)


FEYN_PLAN = """\
{
  "steps": [
    {
      "app": "FeynHiggs",
      "version": "2.9.4",
      "download_url": "http://www.feynhiggs.de/downloads/FeynHiggs-2.9.4.tar.gz",
      "installer": "feyntools.sh"
    },
    {
      "app": "FormCalc",
      "version": "7.0.2",
      "download_url": "https://devel.ifca.es/~enol/feynapps/",
      "installer": "feyntools.sh"
    }
  ]
}
"""


def test_ctx_plan(catalog_file, metadata_file, capsys):
    code = dispatch(["ctx", "plan", "--catalog", catalog_file, "--metadata", metadata_file])
    assert code == 0
    assert capsys.readouterr().out == FEYN_PLAN


# Versions that override base_url, file, dependencies and installer.
OVERRIDING_CATALOG = {
    "Top": {"installer": "top.sh", "base_url": "http://a/", "file": "top.tgz",
            "dependencies": ["Mid"], "versions": {
                "1": {"base_url": "http://b/", "file": "/top-1.tgz",
                      "dependencies": ["Leaf", "Mid"], "installer": "top1.sh"},
                "2": {}}},
    "Mid": {"installer": "mid.sh", "dependencies": ["Leaf"], "versions": {
        "1": {"base_url": "http://m", "file": "mid.tgz"},
        "2": {"dependencies": [], "installer": "mid2.sh"}}},
    "Leaf": {"installer": "leaf.sh", "base_url": "http://l/",
             "versions": {"1": {"file": "leaf.tgz"}}},
}


OVERRIDES_PLAN = """\
{
  "steps": [
    {
      "app": "Leaf",
      "version": "1",
      "download_url": "http://l/leaf.tgz",
      "installer": "leaf.sh"
    },
    {
      "app": "Mid",
      "version": "2",
      "download_url": null,
      "installer": "mid2.sh"
    },
    {
      "app": "Top",
      "version": "1",
      "download_url": "http://b/top-1.tgz",
      "installer": "top1.sh"
    }
  ]
}
"""

DEFAULTS_PLAN = """\
{
  "steps": [
    {
      "app": "Leaf",
      "version": "1",
      "download_url": "http://l/leaf.tgz",
      "installer": "leaf.sh"
    },
    {
      "app": "Mid",
      "version": "1",
      "download_url": "http://m/mid.tgz",
      "installer": "mid.sh"
    },
    {
      "app": "Top",
      "version": "2",
      "download_url": "http://a/top.tgz",
      "installer": "top.sh"
    }
  ]
}
"""


@pytest.mark.parametrize("request_,expected", [
    ({"Top": "1"}, OVERRIDES_PLAN),
    ({"Top": "2", "Mid": "1"}, DEFAULTS_PLAN),
], ids=["overrides", "defaults"])
def test_ctx_plan_prints_version_overrides(tmp_path, capsys, request_, expected):
    (tmp_path / "catalog.json").write_text(json.dumps(OVERRIDING_CATALOG))
    (tmp_path / "metadata.json").write_text(json.dumps(request_))
    code = dispatch(["ctx", "plan", "--catalog", str(tmp_path / "catalog.json"),
                     "--metadata", str(tmp_path / "metadata.json")])
    assert code == 0
    assert capsys.readouterr().out == expected


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        dispatch([])
    assert err.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        dispatch(["frobnicate"])
    assert err.value.code == 2


def test_verbose_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        dispatch(["-v", "scan", "run", "--steps", "2", "--out", "scan.dat"])
    assert err.value.code == 2


def test_ctx_run_dry_run(catalog_file, metadata_file, tmp_path, capsys):
    root = tmp_path / "root"
    root.mkdir()
    code = dispatch([
        "ctx", "run", "--catalog", catalog_file, "--metadata", metadata_file,
        "--root", str(root), "--dry-run",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "success" and doc["dry_run"]
    assert list(root.iterdir()) == []


def test_ctx_run_missing_root_is_domain_error(catalog_file, metadata_file, capsys):
    code = dispatch(["ctx", "run", "--catalog", catalog_file, "--metadata", metadata_file])
    assert code == 1
    assert "root" in capsys.readouterr().err


def test_ctx_images(tmp_path, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps([
        {"id": "a", "properties": {"feynapps": "true"}},
        {"id": "b", "properties": {"feynapps": "false"}},
        {"id": "c"},
    ]))
    code = dispatch(["ctx", "images", "--registry", str(registry)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == ["a"]


@pytest.fixture
def identity_config_file(tmp_path):
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps({
        "vo_rules": [{"vo": "pheno", "tenant": "pheno", "auto_create": True}],
        "user_rules": [{"pattern": r"^[a-z]+@ifca\.es$", "tenant": "ifca",
                        "auto_create": True}],
    }))
    return str(path)


def test_auth_map_vo_allows(identity_config_file, tmp_path, capsys):
    store = str(tmp_path / "principals.json")
    code = dispatch([
        "auth", "map-vo", "--config", identity_config_file, "--store", store,
        "--dn", "/DC=es/CN=alice", "--vo", "pheno",
    ])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"tenant": "pheno", "username": "/DC=es/CN=alice", "created": true}\n')


def test_auth_map_vo_denies_with_reason_on_stderr(identity_config_file, capsys):
    code = dispatch([
        "auth", "map-vo", "--config", identity_config_file,
        "--dn", "/DC=es/CN=alice", "--vo", "atlas",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vo-not-allowed" in captured.err


def test_auth_map_user_denies_a_disabled_principal(identity_config_file, tmp_path, capsys):
    store = tmp_path / "principals.json"
    store.write_text('{"username":"bob@ifca.es","tenant":"ifca","enabled":false,'
                     '"created_by":"manual"}\n')
    code = dispatch(["auth", "map-user", "--config", identity_config_file, "--store", str(store),
                     "--user", "bob@ifca.es"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("denied (disabled): ")


def test_auth_map_user(identity_config_file, capsys):
    code = dispatch([
        "auth", "map-user", "--config", identity_config_file, "--user", "alice@ifca.es",
    ])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"tenant": "ifca", "username": "alice@ifca.es", "created": true}\n')


def test_auth_token_issue_and_verify(capsys):
    code = dispatch([
        "auth", "token", "issue", "--key", "k", "--subject", "s", "--tenant", "t",
        "--lifetime", "60", "--now", "1000",
    ])
    assert code == 0
    token = capsys.readouterr().out.strip()
    code = dispatch(["auth", "token", "verify", "--key", "k", "--token", token, "--now", "1030"])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"subject": "s", "tenant": "t", "issued_at": 1000.0, "expires_at": 1060.0}\n')
    code = dispatch(["auth", "token", "verify", "--key", "k", "--token", token, "--now", "2000"])
    assert code == 1
    assert "expired" in capsys.readouterr().err


def test_scan_run(tmp_path, capsys):
    out = tmp_path / "scan.dat"
    code = dispatch([
        "scan", "run", "--steps", "5", "--ma", "90:500", "--tb", "1.1:60",
        "--workers", "2", "--kernel", "builtin", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"] == 25
    assert len(out.read_text().splitlines()) == 26


def test_bench_run_and_analyze(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = dispatch([
        "bench", "run", "--processes", "2", "--workload", "builtin",
        "--work-units", "100000", "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    code = dispatch(["bench", "analyze", str(out), "--report", "json"])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 1 and "sys_pct" in reports[0]


def test_bench_run_out_gets_the_mode_open_gives(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert dispatch(["bench", "run", "--processes", "1", "--work-units", "1000",
                     "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out
    with open(tmp_path / "reference", "w"):
        pass
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["reference", "run.json"]


def test_bench_run_out_that_is_not_a_regular_file_is_refused(tmp_path, capsys):
    fifo = tmp_path / "run.fifo"
    os.mkfifo(fifo)
    # With a reader open, code that writes into the FIFO fails this test
    # instead of blocking in open().
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code = dispatch(["bench", "run", "--processes", "1", "--work-units", "1000",
                         "--out", str(fifo)])
    finally:
        os.close(reader)
    assert code == 1
    assert capsys.readouterr().err == f"error: {fifo} exists and is not a regular file\n"
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["run.fifo"]


def test_bench_run_children_do_not_read_the_callers_stdin(tmp_path):
    # stdin stays an open pipe (communicate() would close it): a `cat` that read the
    # caller's stdin would never return.
    src = os.path.dirname(os.path.dirname(phenocloud.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "phenocloud.cli", "bench", "run", "--processes", "2",
         "--workload", "cmd:cat"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=30)
        out, err = proc.stdout.read(), proc.stderr.read()
    finally:
        # Kill the whole session, so the workers of a hung run go too.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            pipe.close()
    assert code == 0, err
    assert len(json.loads(out)["records"]) == 2


def test_bench_run_accepts_zero_work_units_with_a_command_workload(capsys):
    code = dispatch(["bench", "run", "--processes", "1", "--workload", "cmd:true",
                     "--work-units", "0"])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["records"]) == 1


def test_bench_analyze_table(tmp_path, capsys):
    out = tmp_path / "run.json"
    dispatch(["bench", "run", "--processes", "1", "--workload", "builtin",
              "--work-units", "1000", "--out", str(out)])
    capsys.readouterr()
    code = dispatch(["bench", "analyze", str(out), "--baseline", str(out),
                     "--report", "table"])
    assert code == 0
    assert "sys%" in capsys.readouterr().out


def _bench_run_text(**record):
    """A saved bench run with one record, written as `json.dumps` writes
    non-finite floats (NaN, Infinity)."""
    return json.dumps({
        "machine": {"size_class": "R", "cores": 1, "hyperthreading": False, "ram_gb": 1},
        "phase": "Math", "processes": 1,
        "records": [{"real_s": 2.0, "user_s": 1.0, "sys_s": 0.5, **record}],
    })


@pytest.mark.parametrize("record,bad_baseline,message", [
    ({"real_s": float("nan")}, False, "real_s must be positive and finite"),
    ({"sys_s": float("inf")}, False, "CPU times must be non-negative and finite"),
    ({"real_s": 0}, False, "real_s must be positive and finite"),
    ({"real_s": 1e-310}, False, "times out of range: a percentage overflows"),
    ({}, True, "real_s must be positive and finite"),
    ({"real_s": True, "user_s": False, "sys_s": False}, False,
     "real_s must be a finite number, not a boolean"),
    ({"x": 1}, False, "malformed bench run record 0: unknown key 'x'"),
], ids=["real-nan", "sys-infinity", "real-zero", "sys-pct-overflow", "baseline-nan",
        "real-true", "record-unknown-key"])
def test_bench_analyze_refuses_bad_times_naming_the_file(record, bad_baseline, message, tmp_path,
                                                         capsys):
    run = tmp_path / "run.json"
    run.write_text(_bench_run_text(**record))
    argv = ["bench", "analyze", str(run), "--report", "json"]
    bad = run
    if bad_baseline:
        bad = tmp_path / "baseline.json"
        bad.write_text(_bench_run_text(real_s=float("nan")))
        argv += ["--baseline", str(bad)]
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {message}\n"


def test_global_config_supplies_catalog(catalog_file, metadata_file, tmp_path,
                                        monkeypatch, capsys):
    config = tmp_path / "global.json"
    config.write_text(json.dumps({"catalog": catalog_file}))
    monkeypatch.setenv("PHENO_CONFIG", str(config))
    code = dispatch(["ctx", "plan", "--metadata", metadata_file])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["steps"]) == 2


# PHENO_CONFIG key, the flag it fills in, a command that reads it, and two
# values of it that make the command print different output.
CONFIG_PRECEDENCE = [
    ("catalog", "--catalog", ["ctx", "plan", "--metadata", "{metadata}"],
     ("{tmp}/missing-1", "{tmp}/missing-2")),
    ("scripts_dir", "--scripts",
     ["ctx", "run", "--catalog", "{outside}", "--metadata", "{request_a}", "--root", "{tmp}",
      "--dry-run"], ("{tmp}/dir-1", "{tmp}/dir-2")),
    ("root", "--root", ["ctx", "run", "--catalog", "{catalog}", "--metadata", "{metadata}"],
     ("{tmp}/file-1", "{tmp}/file-2")),
    ("identity_config", "--config", ["auth", "map-user", "--user", "u"],
     ("{tmp}/missing-1", "{tmp}/missing-2")),
    ("principal_store", "--store",
     ["auth", "map-user", "--config", "{mapping}", "--user", "bob@ifca.es"],
     ("{tmp}/store-1", "{tmp}/store-2")),
    ("signing_key", "--key",
     ["auth", "token", "issue", "--subject", "s", "--tenant", "t", "--now", "1000"],
     ("key-1", "key-2")),
]


@pytest.mark.parametrize("key,flag,argv,values", CONFIG_PRECEDENCE,
                         ids=[case[0] for case in CONFIG_PRECEDENCE])
def test_pheno_config_fills_an_absent_flag_and_a_given_flag_wins(
        key, flag, argv, values, catalog_file, metadata_file, identity_config_file, tmp_path,
        monkeypatch, capsys):
    files = {"catalog": catalog_file, "metadata": metadata_file, "mapping": identity_config_file,
             "tmp": str(tmp_path), "request_a": str(tmp_path / "request_a.json"),
             "outside": str(tmp_path / "outside.json")}
    (tmp_path / "request_a.json").write_text('{"A": "1.0"}')
    (tmp_path / "outside.json").write_text(  # its installer is outside any scripts dir
        '{"A": {"installer": "../A.sh", "versions": {"1.0": {}}}}')
    for n in (1, 2):
        (tmp_path / f"dir-{n}").mkdir()
        (tmp_path / f"file-{n}").write_text("")  # not a directory, so not a root
        (tmp_path / f"store-{n}").write_text('[{"username":"x"}]')  # a malformed store
    argv = [arg.format(**files) for arg in argv]
    one, two = (value.format(**files) for value in values)
    config = tmp_path / "pheno.json"

    def run(config_value, flag_value):
        monkeypatch.delenv("PHENO_CONFIG", raising=False)
        if config_value is not None:
            config.write_text(json.dumps({key: config_value}))
            monkeypatch.setenv("PHENO_CONFIG", str(config))
        code = dispatch(argv + ([flag, flag_value] if flag_value is not None else []))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    by_flag = run(None, one), run(None, two)
    assert by_flag[0] != by_flag[1]
    assert run(one, None) == by_flag[0]
    assert run(one, two) == by_flag[1]


def test_machine_readable_stdout_is_json_on_success(catalog_file, metadata_file, capsys):
    code = dispatch(["ctx", "plan", "--catalog", catalog_file, "--metadata", metadata_file])
    assert code == 0
    json.loads(capsys.readouterr().out)  # must not raise


def test_ctx_plan_on_deep_cyclic_chain_is_a_one_line_error(tmp_path):
    names = ["c%05d" % i for i in range(10_000)]
    catalog = {
        name: {
            "installer": "install.sh",
            "dependencies": [names[(i + 1) % len(names)]],
            "versions": {"1.0": {"version_name": "1.0"}},
        }
        for i, name in enumerate(names)
    }
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text(json.dumps(catalog))
    metadata_path = tmp_path / "metadata.json"
    metadata_path.write_text(json.dumps({names[0]: "1.0"}))
    src = os.path.dirname(os.path.dirname(phenocloud.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "phenocloud.cli", "ctx", "plan",
         "--catalog", str(catalog_path), "--metadata", str(metadata_path)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: dependency cycle: ")


BAD_INPUTS = [
    pytest.param(["auth", "map-vo", "--config", "{mapping}", "--dn", "/CN=a", "--vo", "pheno",
                  "--not-before", "10", "--not-after", "5"], None, id="map-vo-window"),
    pytest.param(["auth", "token", "issue", "--key", "k", "--subject", "s", "--tenant", "t",
                  "--lifetime", "0"], None, id="token-lifetime"),
    pytest.param(["scan", "run", "--steps", "0", "--out", "{out}"], None, id="scan-steps"),
    pytest.param(["scan", "run", "--ma", "5", "--out", "{out}"], None, id="scan-range"),
    pytest.param(["bench", "run", "--processes", "1", "--workload", "foo"], None,
                 id="bench-workload"),
    pytest.param(["bench", "run", "--processes", "1", "--workload", "cmd:sh -c 'exit 0"], None,
                 id="bench-unclosed-quote"),
    pytest.param(["bench", "run", "--processes", "1", "--work-units", "-1"], None,
                 id="bench-negative-work"),
    pytest.param(["auth", "map-user", "--config", "{not_json}", "--user", "u"], None,
                 id="mapping-not-json"),
    pytest.param(["auth", "map-user", "--config", "{no_tenant}", "--user", "u"], None,
                 id="mapping-rule-without-tenant"),
    pytest.param(["auth", "token", "verify", "--key", "k", "--token", "x"], "{not_json}",
                 id="pheno-config-not-json"),
    pytest.param(["bench", "analyze", "{empty}"], None, id="bench-analyze-empty"),
    pytest.param(["bench", "analyze", "{machine_without_ram}"], None,
                 id="bench-analyze-machine-missing-key"),
    pytest.param(["bench", "analyze", "{machine_with_x}"], None,
                 id="bench-analyze-machine-unknown-key"),
    pytest.param(["bench", "analyze", "{phase_null}", "--report", "table"], None,
                 id="bench-analyze-table-phase-null"),
    pytest.param(["bench", "analyze", "{label_list}", "--report", "table"], None,
                 id="bench-analyze-table-label-list"),
    pytest.param(["ctx", "images", "--registry", "{no_id}"], None, id="registry-without-id"),
    pytest.param(["ctx", "plan", "--catalog", "{versions_list}", "--metadata", "{request_a}"],
                 None, id="catalog-versions-list"),
    pytest.param(["ctx", "plan", "--catalog", "{dependencies_number}", "--metadata",
                  "{request_a}"], None, id="catalog-dependencies-number"),
    pytest.param(["ctx", "plan", "--catalog", "{dependencies_string}", "--metadata",
                  "{request_a}"], None, id="catalog-dependencies-string"),
    pytest.param(["ctx", "plan", "--catalog", "{version_file_number}", "--metadata",
                  "{request_a}"], None, id="catalog-version-file-number"),
    pytest.param(["ctx", "plan", "--catalog", "{version_name_number}", "--metadata",
                  "{request_a}"], None, id="catalog-version-name-number"),
    pytest.param(["ctx", "run", "--catalog", "{installer_number}", "--metadata", "{request_a}",
                  "--root", "{root}"], None, id="catalog-installer-number"),
    pytest.param(["auth", "token", "issue", "--key", "k", "--subject", "s", "--tenant", "t",
                  "--lifetime", "nan"], None, id="token-lifetime-nan"),
    pytest.param(["auth", "token", "issue", "--key", "k", "--subject", "s", "--tenant", "t",
                  "--lifetime", "inf"], None, id="token-lifetime-inf"),
    pytest.param(["auth", "map-vo", "--config", "{auto_create_string}", "--dn", "/CN=a",
                  "--vo", "pheno"], None, id="mapping-auto-create-string"),
    pytest.param(["auth", "map-vo", "--config", "{tenant_number}", "--dn", "/CN=a",
                  "--vo", "pheno"], None, id="mapping-tenant-number"),
    pytest.param(["bench", "run", "--processes", "1", "--workload", "cmd:true",
                  "--work-units", "5"], None, id="bench-work-units-command"),
    pytest.param(["scan", "run", "--steps", "2", "--kernel", "cmd:sed 's/$/ ALLOWED/'",
                  "--work-units", "7", "--out", "{out}"], None, id="scan-work-units-command"),
    pytest.param(["scan", "run", "--steps", "2", "--timeout-per-point", "5", "--out", "{out}"],
                 None, id="scan-timeout-builtin"),
    pytest.param(["scan", "run", "--steps", "2", "--kernel", "cmd:sed 's/$/ ALLOWED/'",
                  "--timeout-per-point", "0", "--out", "{out}"], None, id="scan-timeout-zero"),
    pytest.param(["scan", "run", "--steps", "3", "--ma", "0:inf", "--out", "{out}"], None,
                 id="scan-range-inf"),
    pytest.param(["auth", "token", "issue", "--subject", "s", "--tenant", "t"],
                 "{signing_key_number}", id="pheno-config-signing-key-number"),
    pytest.param(["ctx", "run", "--catalog", "{catalog_a}", "--metadata", "{request_a}"],
                 "{root_list}", id="pheno-config-root-list"),
    pytest.param(["ctx", "plan", "--metadata", "{request_a}"], "{catalog_number}",
                 id="pheno-config-catalog-number"),
]

@pytest.mark.parametrize("timeout", ["-1", "inf"])
def test_scan_timeout_per_point_is_refused_before_any_worker_runs(timeout, tmp_path, capsys):
    # Both used to reach the worker and fail there, inside subprocess.run.
    out = tmp_path / "scan.dat"
    code = dispatch(["scan", "run", "--steps", "2", "--kernel", "cmd:sed 's/$/ ALLOWED/'",
                     "--timeout-per-point", timeout, "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith(
        "error: timeout_per_point must be positive and finite, got ")
    assert list(tmp_path.iterdir()) == []


A_ENTRY = '"installer": "A.sh", "versions": {"1.0": {}}'


@pytest.mark.parametrize("argv,pheno_config", BAD_INPUTS)
def test_bad_input_is_a_one_line_error(argv, pheno_config, identity_config_file, tmp_path,
                                       monkeypatch, capsys):
    files = {"mapping": identity_config_file, "out": str(tmp_path / "scan.dat"),
             "root": str(tmp_path)}
    for name, text in [("not_json", "not json"), ("empty", "{}"), ("no_id", '[{"idx": 1}]'),
                       ("no_tenant", '{"user_rules": [{"pattern": "u"}]}'),
                       ("request_a", '{"A": "1.0"}'),
                       ("versions_list", '{"A": {"installer": "A.sh", "versions": ["1.0"]}}'),
                       ("dependencies_number", '{"A": {"dependencies": 5, %s}}' % A_ENTRY),
                       ("dependencies_string", '{"A": {"dependencies": "Bee", %s}}' % A_ENTRY),
                       ("version_file_number",
                        '{"A": {"installer": "A.sh", "versions": {"1.0": {"file": 5}}}}'),
                       ("version_name_number",
                        '{"A": {"installer": "A.sh", "versions": {"1.0": {"version_name": 5}}}}'),
                       ("installer_number", '{"A": {"installer": 5, "versions": {"1.0": {}}}}'),
                       ("auto_create_string",
                        '{"vo_rules": [{"vo": "pheno", "tenant": "t", "auto_create": "false"}]}'),
                       ("tenant_number",
                        '{"vo_rules": [{"vo": "pheno", "tenant": 5, "auto_create": true}]}'),
                       ("catalog_a", '{"A": {%s}}' % A_ENTRY),
                       ("signing_key_number", '{"signing_key": 5}'),
                       ("root_list", '{"root": ["x"]}'),
                       ("catalog_number", '{"catalog": 5}'),
                       ("machine_without_ram", _bench_run_text().replace(', "ram_gb": 1', "")),
                       ("machine_with_x", _bench_run_text().replace('"ram_gb": 1',
                                                                    '"ram_gb": 1, "x": 1')),
                       ("phase_null", _bench_run_text().replace('"Math"', "null")),
                       ("label_list", _bench_run_text().replace('"phase"',
                                                                '"label": ["a"], "phase"'))]:
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    monkeypatch.delenv("PHENO_CONFIG", raising=False)
    if pheno_config:
        monkeypatch.setenv("PHENO_CONFIG", pheno_config.format(**files))
    code = dispatch([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "()" not in lines[0]  # it names the input, not a Python callable


def test_pheno_config_value_that_is_not_a_string_names_file_and_key(tmp_path, monkeypatch,
                                                                   capsys):
    config = tmp_path / "pheno.json"
    config.write_text('{"root": "r", "signing_key": 5}')
    monkeypatch.setenv("PHENO_CONFIG", str(config))
    code = dispatch(["auth", "token", "issue", "--subject", "s", "--tenant", "t"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: PHENO_CONFIG file {config}: signing_key must be a string"
    ]


@pytest.mark.parametrize("argv,bad", [
    (["ctx", "plan", "--catalog", "{catalog}", "--metadata", "{bad}"], "metadata"),
    (["ctx", "plan", "--catalog", "{bad}", "--metadata", "{metadata}"], "catalog"),
    (["auth", "map-user", "--config", "{bad}", "--user", "u"], "mapping"),
], ids=["metadata", "catalog", "mapping-config"])
def test_input_file_not_utf8_is_an_error_naming_the_file(argv, bad, catalog_file,
                                                         metadata_file, tmp_path, capsys):
    path = tmp_path / f"{bad}-latin1.json"
    path.write_bytes(b'{"A": "caf\xe9 \xff"}')
    files = {"catalog": catalog_file, "metadata": metadata_file, "bad": str(path)}
    code = dispatch([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0]


NO_NUMPY = (
    "import runpy, sys\n"
    "sys.modules['numpy'] = None  # any import of numpy now raises ImportError\n"
    "runpy.run_module('phenocloud.cli', run_name='__main__')\n"
)


@pytest.mark.parametrize("argv", [
    ["auth", "token", "verify", "--key", "k", "--now", "1030", "--token", "{token}"],
    ["scan", "run", "--workers", "2", "--work-units", "1000", "--out", "scan.dat"],
    ["bench", "run", "--processes", "2", "--work-units", "1000"],
], ids=["auth-token-verify", "scan-run", "bench-run"])
def test_cli_runs_without_numpy(argv, tmp_path):
    token = identity_mod.issue_token(b"k", "s", "t", 60.0, 1000.0).encode()
    src = os.path.dirname(os.path.dirname(phenocloud.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, *[arg.format(token=token) for arg in argv]],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_ctx_run_failed_step_shows_the_tail_of_its_output(tmp_path, capsys):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({
        name: {"installer": f"{name}.sh", "dependencies": deps,
               "versions": {"1.0": {"version_name": "1.0"}}}
        for name, deps in (("A", []), ("B", ["A"]))
    }))
    metadata = tmp_path / "metadata.json"
    metadata.write_text('{"B": "1.0"}')
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "A.sh").write_text("echo fine\n")
    (scripts / "B.sh").write_text(
        "printf '%03000d\\n' 0\necho 'configure: no fortran compiler found' >&2\nexit 3\n"
    )
    root = tmp_path / "root"
    root.mkdir()
    code = dispatch(["ctx", "run", "--catalog", str(catalog), "--metadata", str(metadata),
                     "--root", str(root), "--scripts", str(scripts)])
    assert code == 1
    ok_step, failed_step = json.loads(capsys.readouterr().out)["steps"]
    assert "output" not in ok_step
    assert failed_step["exit_status"] == 3
    assert len(failed_step["output"]) == 2000
    assert failed_step["output"].endswith("configure: no fortran compiler found\n")


def write_two_app_setup(tmp_path, a_installer="A.sh"):
    """Catalog with B depending on A, metadata asking for B, A's installer succeeding and B's
    failing; returns the ctx run arguments up to --dry-run / --pretty."""
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({
        name: {"installer": installer, "dependencies": deps,
               "versions": {"1.0": {"version_name": "1.0"}}}
        for name, installer, deps in (("A", a_installer, []), ("B", "B.sh", ["A"]))
    }))
    metadata = tmp_path / "metadata.json"
    metadata.write_text('{"B": "1.0"}')
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "A.sh").write_text("echo fine\n")
    (scripts / "B.sh").write_text("exit 3\n")
    root = tmp_path / "root"
    root.mkdir()
    return ["ctx", "run", "--catalog", str(catalog), "--metadata", str(metadata),
            "--root", str(root), "--scripts", str(scripts)]


@pytest.mark.parametrize("dry_run,code,lines", [
    (True, 0, [["A", "1.0", "dry-run", "planned"], ["B", "1.0", "dry-run", "planned"],
               ["overall:", "success"]]),
    (False, 1, [["A", "1.0", "skipped", "ok"], ["B", "1.0", "skipped", "FAILED"],
                ["overall:", "failed-at(1)"]]),
], ids=["dry-run", "run"])
def test_ctx_run_pretty_prints_a_line_per_step_and_the_outcome(dry_run, code, lines, tmp_path,
                                                                capsys):
    argv = write_two_app_setup(tmp_path) + ["--pretty"] + (["--dry-run"] if dry_run else [])
    assert dispatch(argv) == code
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == lines


def test_ctx_dry_run_fails_at_an_installer_outside_the_scripts_dir(tmp_path, capsys):
    (tmp_path / "evil.sh").write_text(f"touch {tmp_path / 'escaped'}\n")
    argv = write_two_app_setup(tmp_path, a_installer="../evil.sh") + ["--dry-run", "--pretty"]
    assert dispatch(argv) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{'A':<20} {'1.0':<10} {'skipped':<12} FAILED", "overall: failed-at(0)"]
    assert sorted(os.listdir(tmp_path)) == ["catalog.json", "evil.sh", "metadata.json",
                                            "root", "scripts"]
    assert os.listdir(tmp_path / "root") == []


NOT_FOR_TOKEN_CHECKS = (
    "multiprocessing", "urllib.request", "logging", "phenocloud.catalog", "phenocloud.resolver",
    "phenocloud.contextualize", "phenocloud.scan", "phenocloud.bench", "dataclasses", "inspect",
)
NOT_FOR_ANY_COMMAND = ("dataclasses", "inspect", "multiprocessing")
NOT_FOR_LOCAL_READS = NOT_FOR_ANY_COMMAND + ("urllib.request", "subprocess")  # fetches, runs nothing

# Runs the CLI on argv[2:] and fails naming any module of argv[1] (space-separated) it loaded.
LOADED_AFTER_CLI = (
    "import runpy, sys\n"
    "forbidden = sys.argv.pop(1).split()\n"
    "try:\n"
    "    runpy.run_module('phenocloud.cli', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "loaded = [name for name in forbidden if name in sys.modules]\n"
    "sys.exit(f'loaded: {loaded}' if loaded else code)\n"
)


TOKEN = identity_mod.issue_token(b"k", "s", "t", 60.0, 1000.0).encode()


@pytest.mark.parametrize("argv,out,forbidden", [
    (["auth", "token", "verify", "--key", "k", "--now", "1030", "--token", TOKEN],
     '{"subject": "s", "tenant": "t", "issued_at": 1000.0, "expires_at": 1060.0}\n',
     NOT_FOR_TOKEN_CHECKS),
    (["auth", "token", "issue", "--key", "k", "--subject", "s", "--tenant", "t", "--lifetime",
      "60", "--now", "1000"], TOKEN + "\n", NOT_FOR_TOKEN_CHECKS),
    (["auth", "map-user", "--config", "{config}", "--user", "bob@ifca.es"],
     '{"tenant": "ifca", "username": "bob@ifca.es", "created": true}\n', NOT_FOR_TOKEN_CHECKS),
    (["auth", "map-vo", "--config", "{config}", "--dn", "/DC=es/CN=alice", "--vo", "pheno"],
     '{"tenant": "pheno", "username": "/DC=es/CN=alice", "created": true}\n',
     NOT_FOR_TOKEN_CHECKS),
    (["ctx", "plan", "--catalog", "{catalog}", "--metadata", "{metadata}"], None,
     NOT_FOR_LOCAL_READS),
    (["ctx", "run", "--catalog", "{catalog}", "--metadata", "{metadata}", "--root", "{root}",
      "--dry-run"], None, NOT_FOR_ANY_COMMAND),
    (["ctx", "images", "--registry", "{registry}"], '[\n  "a"\n]\n', NOT_FOR_LOCAL_READS),
    (["scan", "run", "--steps", "2", "--out", "{out}"], None, NOT_FOR_ANY_COMMAND),
    (["bench", "run", "--processes", "1", "--work-units", "1000"], None,
     NOT_FOR_ANY_COMMAND + ("importlib.resources",)),
    (["bench", "analyze", "{run}"], None,
     NOT_FOR_ANY_COMMAND + ("subprocess", "importlib.resources")),
], ids=["token-verify", "token-issue", "map-user", "map-vo", "ctx-plan", "ctx-run-dry-run",
        "ctx-images", "scan-run", "bench-run", "bench-analyze"])
def test_auth_command_imports_no_other_subsystem(argv, out, forbidden, identity_config_file,
                                                 catalog_file, metadata_file, tmp_path):
    files = {"config": identity_config_file, "catalog": catalog_file, "metadata": metadata_file,
             "root": str(tmp_path), "registry": str(tmp_path / "registry.json"),
             "out": str(tmp_path / "scan.dat"), "run": str(tmp_path / "run.json")}
    (tmp_path / "registry.json").write_text('[{"id": "a", "properties": {"feynapps": "true"}}]')
    (tmp_path / "run.json").write_text(_bench_run_text())
    src = os.path.dirname(os.path.dirname(phenocloud.__file__))
    # -S: a site file may import modules the CLI does not; the CLI needs only
    # the standard library and PYTHONPATH.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_AFTER_CLI, " ".join(forbidden),
         *[arg.format(**files) for arg in argv]],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    if out is None:
        json.loads(proc.stdout)  # one JSON document, nothing else
    else:
        assert proc.stdout == out


PACKAGE_NAMES_LOAD_LAZILY = (
    "import sys\n"
    "import phenocloud\n"
    "assert 'phenocloud.catalog' not in sys.modules, 'import phenocloud loaded the catalog'\n"
    "from phenocloud import (Catalog, parse_catalog, validate_catalog, effective_version,\n"
    "                        resolve, check_cycles)\n"
    "from phenocloud import catalog, resolver\n"
    "assert (Catalog, parse_catalog, validate_catalog, effective_version) == (\n"
    "    catalog.Catalog, catalog.parse_catalog, catalog.validate_catalog,\n"
    "    catalog.effective_version)\n"
    "assert (resolve, check_cycles) == (resolver.resolve, resolver.check_cycles)\n"
)


def test_package_names_load_their_module_on_first_use(tmp_path):
    src = os.path.dirname(os.path.dirname(phenocloud.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", PACKAGE_NAMES_LOAD_LAZILY],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("text,where", [
    ('[{"username":"x"}]', "record 0"),
    ('{"username":"a","tenant":"t","enabled":true,"created_by":"manual"}\nnot json\n', "line 2"),
], ids=["legacy", "journal"])
def test_malformed_principal_store_is_a_one_line_error(identity_config_file, tmp_path, capsys,
                                                       text, where):
    store = tmp_path / "bad.json"
    store.write_text(text)
    code = dispatch(["auth", "map-user", "--config", identity_config_file, "--store", str(store),
                     "--user", "bob@ifca.es"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(store) in lines[0] and where in lines[0]
