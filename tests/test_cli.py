import json
import os
import subprocess
import sys

import pytest

import phenocloud
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


def test_ctx_plan(catalog_file, metadata_file, capsys):
    code = dispatch(["ctx", "plan", "--catalog", catalog_file, "--metadata", metadata_file])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["app"] for s in doc["steps"]] == ["FeynHiggs", "FormCalc"]
    assert doc["steps"][1]["download_url"].startswith(
        "https://devel.ifca.es/~enol/feynapps/"
    )


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        dispatch([])
    assert err.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        dispatch(["frobnicate"])
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
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"tenant": "pheno", "username": "/DC=es/CN=alice", "created": True}


def test_auth_map_vo_denies_with_reason_on_stderr(identity_config_file, capsys):
    code = dispatch([
        "auth", "map-vo", "--config", identity_config_file,
        "--dn", "/DC=es/CN=alice", "--vo", "atlas",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vo-not-allowed" in captured.err


def test_auth_map_user(identity_config_file, capsys):
    code = dispatch([
        "auth", "map-user", "--config", identity_config_file, "--user", "alice@ifca.es",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["tenant"] == "ifca"


def test_auth_token_issue_and_verify(capsys):
    code = dispatch([
        "auth", "token", "issue", "--key", "k", "--subject", "s", "--tenant", "t",
        "--lifetime", "60", "--now", "1000",
    ])
    assert code == 0
    token = capsys.readouterr().out.strip()
    code = dispatch(["auth", "token", "verify", "--key", "k", "--token", token, "--now", "1030"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["subject"] == "s"
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


def test_bench_analyze_table(tmp_path, capsys):
    out = tmp_path / "run.json"
    dispatch(["bench", "run", "--processes", "1", "--workload", "builtin",
              "--work-units", "1000", "--out", str(out)])
    capsys.readouterr()
    code = dispatch(["bench", "analyze", str(out), "--baseline", str(out),
                     "--report", "table"])
    assert code == 0
    assert "sys%" in capsys.readouterr().out


def test_global_config_supplies_catalog(catalog_file, metadata_file, tmp_path,
                                        monkeypatch, capsys):
    config = tmp_path / "global.json"
    config.write_text(json.dumps({"catalog": catalog_file}))
    monkeypatch.setenv("PHENO_CONFIG", str(config))
    code = dispatch(["ctx", "plan", "--metadata", metadata_file])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["steps"]) == 2


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
