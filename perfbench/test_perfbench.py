"""Self-tests for the benchmark's generators and oracle.

    python3 -m pytest perfbench/test_perfbench.py -q

They live outside the package's ``tests/`` directory, so the package's own
test run does not collect them.
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from phenocloud import identity, resolver, scan  # noqa: E402
from phenocloud.catalog import parse_catalog  # noqa: E402

BASE_URL = "file:///archives/"


def _generate(seed, directory):
    directory.mkdir()
    raw = inputs.random_dag(seed, BASE_URL)
    requests = inputs.request_pool(seed, raw, "provision", 2, (100, 110))
    manifest = inputs.write_archives(seed, raw, requests, str(directory))
    texts = [
        inputs.catalog_text(raw),
        inputs.catalog_text(requests),
        inputs.catalog_text(inputs.request_pool(seed, raw, "plan", 8, (30, 60))),
        inputs.catalog_text(manifest),
        inputs.catalog_text(inputs.preloaded_principals(seed)),
        inputs.signing_key(seed).decode("ascii"),
    ]
    for i, text in enumerate(texts):
        inputs.write_text(directory / f"input{i}.json", text)
    return sorted(os.listdir(directory))


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    names = _generate(7, tmp_path / "a")
    assert names == _generate(7, tmp_path / "b")
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert (mismatch, errors) == ([], [])
    assert len(match) == len(names) > 6
    _generate(8, tmp_path / "c")
    assert not filecmp.cmp(tmp_path / "a" / "input0.json", tmp_path / "c" / "input0.json", shallow=False)


def _dag_and_request(seed=3):
    raw = inputs.random_dag(seed, BASE_URL)
    request = inputs.request_pool(seed, raw, "plan", 1, (30, 60))[0]
    return raw, request


def test_oracle_accepts_the_resolver_plan():
    raw, request = _dag_and_request()
    plan = resolver.resolve(parse_catalog(inputs.catalog_text(raw)), request)
    assert oracle.check_plan(raw, request, [(s.name, s.version_key) for s in plan.steps]) is None


def test_oracle_rejects_mutated_plan_order():
    raw, request = _dag_and_request()
    steps = oracle.expected_plan(raw, request)
    position = {name: i for i, (name, _) in enumerate(steps)}
    # A dependency moved after its dependent.
    i, j = next(
        (position[dep], position[name])
        for name, version in steps
        for dep in inputs.effective_deps(raw, name, version)
    )
    swapped = list(steps)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert "before its dependency" in oracle.check_plan(raw, request, swapped)
    # Two neighbouring apps, the second not depending on the first, swapped.
    k = next(k for k in range(len(steps) - 1)
             if steps[k][0] not in inputs.effective_deps(raw, *steps[k + 1]))
    swapped = list(steps)
    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
    assert "smallest-ready-name-first" in oracle.check_plan(raw, request, swapped)
    # A missing app and a duplicated one.
    assert oracle.check_plan(raw, request, steps[1:]) is not None
    assert oracle.check_plan(raw, request, steps + steps[:1]) is not None


def test_oracle_checks_cycles_exactly():
    planted = inputs.planted_cycles()
    assert oracle.check_cycles_result(planted, planted) is None
    assert oracle.check_cycles_result(planted[1:], planted) is not None
    assert oracle.check_cycles_result(planted + planted[:1], planted) is not None
    raw = inputs.random_dag(3, BASE_URL)
    assert oracle.check_cycle_error(raw, ["r1_1", "r1_2", "r1_0", "r1_1"], planted) is None
    assert oracle.check_cycle_error(raw, ["r1_0", "r1_2", "r1_1", "r1_0"], planted) is not None


def test_oracle_rejects_flipped_scan_status(tmp_path):
    steps = 12
    reference = oracle.scan_reference(scan.format_point, steps)
    out = tmp_path / "scan.dat"
    grid = scan.ScanGrid(steps_per_axis=steps, **inputs.SCAN_RANGE)
    scan.run_scan(grid, workers=2, out=str(out))
    assert oracle.check_scan(out.read_bytes(), reference) is None
    lines = reference.decode().splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.endswith(" ALLOWED\n"))
    lines[k] = lines[k].replace("ALLOWED", "EXC_LHC")
    assert "line %d" % (k + 1) in oracle.check_scan("".join(lines).encode(), reference)


def test_awk_kernel_matches_reference(tmp_path):
    steps = 20
    awk = tmp_path / "classify.awk"
    awk.write_text(inputs.AWK_KERNEL)
    out = tmp_path / "scan.dat"
    grid = scan.ScanGrid(steps_per_axis=steps, **inputs.SCAN_RANGE)
    scan.run_scan(grid, workers=1, out=str(out), kernel="command", command=f"awk -f {awk}")
    assert oracle.check_scan(out.read_bytes(), oracle.scan_reference(scan.format_point, steps)) is None


def test_oracle_rejects_accepted_tampered_token():
    key = inputs.signing_key(5)
    now = inputs.TOKEN_NOW
    token = identity.issue_token(key, "alice", "t001", inputs.TOKEN_LIFETIME, now)
    assert oracle.check_issued(key, "alice", "t001", now, inputs.TOKEN_LIFETIME, token.encode()) is None
    rng = random.Random(1)
    for _ in range(50):
        tampered = oracle.tamper(token.encode(), rng)
        assert tampered != token.encode()
        got, reason = identity.verify_token(key, tampered, now + 10)
        assert oracle.check_verified("tampered", "alice", "t001", None, reason) is None
        assert got is None
    assert "accepted" in oracle.check_verified("tampered", "alice", "t001", ("alice", "t001"), None)
    assert "accepted" in oracle.check_verified("expired", "alice", "t001", ("alice", "t001"), None)
    assert oracle.check_verified("valid", "alice", "t001", ("alice", "t002"), None) is not None


def test_identity_model_matches_mapping():
    rules = inputs.mapping_rules()
    principals = inputs.preloaded_principals(2)
    model = oracle.IdentityModel(rules, principals)
    store = identity.PrincipalStore()
    for p in principals:
        store.add(identity.Principal(**p))
    config = identity.MappingConfig.from_json(inputs.mapping_config_text())
    rng = random.Random(4)
    users = [p["username"] for p in principals[:50]]
    users += [inputs.username(rng.randrange(10**6), rng.randrange(inputs.DEPARTMENTS)) for _ in range(300)]
    kinds = set()
    for user in users + users[-20:]:
        outcome = identity.map_username(config, store, user)
        got = (("denial", outcome.reason) if isinstance(outcome, identity.Denial)
               else ("decision", outcome.tenant, outcome.username, outcome.created))
        assert oracle.check_mapping(model.expect(user), got) is None
        kinds.add(got[1] if got[0] == "denial" else ("created" if got[3] else "existing"))
    assert kinds == {"user-not-allowed", "unknown-principal", "created", "existing"}


def test_oracle_rejects_wrong_install(tmp_path):
    data = b"payload"
    manifest = {"x.tar": {"size": 1, "tree": {"lib/f": hashlib.sha256(data).hexdigest()}}}
    (tmp_path / "apps" / "x" / "1.0" / "lib").mkdir(parents=True)
    (tmp_path / "apps" / "x" / "1.0" / "lib" / "f").write_bytes(data)
    steps = [("x", "1.0", "downloaded", 0, "x.tar")]
    assert oracle.check_installed(str(tmp_path), steps, manifest, "downloaded") is None
    assert "expected 'cached'" in oracle.check_installed(str(tmp_path), steps, manifest, "cached")
    (tmp_path / "apps" / "x" / "1.0" / "lib" / "f").write_bytes(b"other")
    assert "checksum" in oracle.check_installed(str(tmp_path), steps, manifest, "downloaded")


def test_harness_counts_a_check_that_raises_as_wrong():
    harness = workloads.Harness()
    harness.tracer = spans.NullTracer()
    _, _, ok = harness.attempt("cli_verify", lambda: "not json", lambda out, exc: json.loads(out))
    assert not ok
    assert (harness.attempted, harness.failed, harness.wrong) == (1, 1, 1)


def test_harness_counts_an_exception_by_type():
    harness = workloads.Harness()
    harness.tracer = spans.NullTracer()

    def deep():
        raise RecursionError("too deep")

    _, _, ok = harness.attempt("check_cycles", deep, lambda out, exc: exc and "raised")
    assert not ok
    assert (harness.failed, harness.wrong) == (1, 0)
    assert harness.errors == {"check_cycles: RecursionError": 1}


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "control-plane", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_schedule_depends_on_the_arguments_alone():
    import run

    for workload in run.WORKLOADS:
        rounds = run.schedule(workload, 45)
        assert rounds == run.schedule(workload, 45)
        assert rounds.count(workload) == len(rounds) // 2
        assert set(rounds) == set(run.GROUPS)
        assert run.schedule(workload, 1) == rounds[:4]
