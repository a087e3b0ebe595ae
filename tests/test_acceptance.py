"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import hashlib
import itertools
import json
import os
import random
import time
from contextlib import contextmanager

import pytest

from conftest import find_run, load_fixture_runs, make_catalog
from phenocloud.bench import sys_pct, degradation_pct
from phenocloud.catalog import parse_catalog
from phenocloud.contextualize import Contextualizer
from phenocloud.errors import CycleError
from phenocloud.identity import (
    Assertion,
    Decision,
    Denial,
    MappingConfig,
    PrincipalStore,
    VoRule,
    issue_token,
    map_assertion,
    verify_token,
)
from phenocloud.resolver import resolve
from phenocloud.scan import ScanGrid, partition, run_scan


@contextmanager
def criterion(number, title, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"\ncriterion {number} ({title}): FAIL (took {elapsed:.1f}s > {budget_s}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_s}s budget")
    print(f"\ncriterion {number} ({title}): PASS ({elapsed:.2f}s)")


# 1 ----------------------------------------------------------------------------


def test_criterion_1_catalog_plan_fidelity(feyn_catalog_text):
    with criterion(1, "catalog/plan fidelity", budget_s=1.0):
        catalog = parse_catalog(feyn_catalog_text)
        plan = resolve(catalog, {"FormCalc": "7.0.2"})
        assert plan.names() == ["FeynHiggs", "FormCalc"]
        assert plan.steps[1].download_url.startswith(
            "https://devel.ifca.es/~enol/feynapps/"
        )


# 2 ----------------------------------------------------------------------------


def _closure(deps, roots):
    seen, frontier = set(), list(roots)
    while frontier:
        node = frontier.pop()
        if node not in seen:
            seen.add(node)
            frontier.extend(deps[node])
    return seen


def _valid_orders(deps, roots):
    closure = sorted(_closure(deps, roots))
    valid = set()
    for perm in itertools.permutations(closure):
        pos = {n: i for i, n in enumerate(perm)}
        if all(pos[d] < pos[n] for n in perm for d in deps[n]):
            valid.add(perm)
    return valid


def test_criterion_2_resolver_oracle_equivalence():
    with criterion(2, "resolver oracle equivalence", budget_s=30.0):
        rng = random.Random(14400)
        for _ in range(1000):
            n = rng.randint(1, 6)
            names = [chr(ord("A") + i) for i in range(n)]
            deps = {
                name: [d for d in names[:i] if rng.random() < 0.4]
                for i, name in enumerate(names)
            }
            request = {
                name: "1.0" for name in names if rng.random() < 0.6
            } or {names[0]: "1.0"}
            plan = resolve(make_catalog(deps), request)
            assert tuple(plan.names()) in _valid_orders(deps, request)

        for _ in range(200):
            n = rng.randint(2, 6)
            names = [chr(ord("A") + i) for i in range(n)]
            deps = {
                name: [d for d in names[:i] if rng.random() < 0.3]
                for i, name in enumerate(names)
            }
            lo, hi = sorted(rng.sample(range(n), 2))
            deps[names[lo]].append(names[hi])
            deps[names[hi]].append(names[lo])
            with pytest.raises(CycleError) as err:
                resolve(make_catalog(deps), {name: "1.0" for name in names})
            cycle = err.value.cycle
            assert cycle[0] == cycle[-1] and len(cycle) >= 3
            for a, b in zip(cycle, cycle[1:]):
                assert b in deps[a]


# 3 ----------------------------------------------------------------------------


def test_criterion_3_partition_properties():
    with criterion(3, "partition properties", budget_s=10.0):
        for n in range(0, 2001):
            for w in range(1, 17):
                parts = partition(n, w)
                assert parts[0].lo == 0 and parts[-1].hi == n
                sizes = []
                for prev, cur in zip(parts, parts[1:]):
                    assert prev.hi == cur.lo  # disjoint and covering
                for p in parts:
                    sizes.append(p.size)
                    assert p.size >= 0
                assert max(sizes) - min(sizes) <= 1
        assert [p.size for p in partition(14400, 8)] == [1800] * 8


# 4 ----------------------------------------------------------------------------


def test_criterion_4_merge_determinism(tmp_path):
    with criterion(4, "merge determinism", budget_s=120.0):
        grid = ScanGrid(steps_per_axis=40)
        outputs = set()
        for w in (1, 2, 4, 8):
            out = str(tmp_path / f"scan_w{w}.dat")
            run_scan(grid, workers=w, out=out)
            with open(out, "rb") as fh:
                outputs.add(fh.read())
        assert len(outputs) == 1


# 5 ----------------------------------------------------------------------------


def test_criterion_5_analyzer_fixture_reproduction():
    with criterion(5, "analyzer fixture reproduction", budget_s=1.0):
        runs = load_fixture_runs()
        assert sys_pct(
            find_run(runs, "S_HT(1)", "Math").records[0]
        ) == pytest.approx(2.91, abs=0.01)
        assert sys_pct(
            find_run(runs, "XL_HT(8)", "Fortran").records[0]
        ) == pytest.approx(0.23, abs=0.01)
        assert degradation_pct(
            find_run(runs, "XL_HT(8)", "Fortran").records[0],
            find_run(runs, "R_HT(8)", "Fortran").records[0],
        ) == pytest.approx(3.19, abs=0.01)
        assert degradation_pct(
            find_run(runs, "XL_HT(8)", "Math").records[0],
            find_run(runs, "R_HT(8)", "Math").records[0],
        ) == pytest.approx(0.75, abs=0.01)
        assert degradation_pct(
            find_run(runs, "M_HT(2)", "Fortran").records[0],
            find_run(runs, "M_nHT(2)", "Fortran").records[0],
        ) == pytest.approx(3.76, abs=0.01)
        # the six-process anomaly: the physical machine's fastest process
        # beats every virtual one while its slowest is far behind
        virtual_min = min(
            r.real_s for r in find_run(runs, "XL_HT(8/6)", "Math").records
        )
        physical = find_run(runs, "R_HT(8/6)", "Math")
        physical_reals = sorted(r.real_s for r in physical.records)
        assert virtual_min == 2358.8
        assert physical_reals[0] == 1899.1 and physical_reals[-1] == 2572.4
        assert physical_reals[0] < virtual_min < physical_reals[-1]


# 6 ----------------------------------------------------------------------------


def _physical_cores():
    try:
        import psutil

        return psutil.cpu_count(logical=False) or 1
    except ImportError:
        return os.cpu_count() or 1


def test_criterion_6_scaling(tmp_path):
    cores = _physical_cores()
    if cores < 4:
        print(f"\ncriterion 6 (scaling): SKIP (needs >= 4 physical cores, have {cores})")
        pytest.skip(f"scaling criterion needs >= 4 physical cores, host has {cores}")
    with criterion(6, "scaling", budget_s=300.0):
        grid = ScanGrid(steps_per_axis=20)
        walls = {}
        for w in range(1, cores + 1):
            out = str(tmp_path / f"scan_w{w}.dat")
            start = time.perf_counter()
            run_scan(grid, workers=w, out=out, work_units=10**7)
            walls[w] = time.perf_counter() - start
        assert walls[1] / walls[2] >= 1.7
        assert walls[1] / walls[4] >= 3.0
        # wall time non-increasing up to the physical core count (5% jitter slack)
        for w in range(2, cores + 1):
            assert walls[w] <= walls[w - 1] * 1.05


# 7 ----------------------------------------------------------------------------


def test_criterion_7_identity_suite():
    with criterion(7, "identity suite", budget_s=30.0):
        now = 1_700_000_000.0
        rng = random.Random(777)
        vos = ["pheno", "atlas", "cms", "lhcb", "ops"]
        for _ in range(1000):
            rules = [
                VoRule(rng.choice(vos), f"t{rng.randint(0, 3)}", rng.random() < 0.5)
                for _ in range(rng.randint(1, 6))
            ]
            assertion = Assertion(
                subject_dn="/CN=user", vo=rng.choice(vos + ["none"]),
                not_before=now - 1, not_after=now + 1,
            )
            baseline = map_assertion(
                MappingConfig(vo_rules=rules), PrincipalStore(), assertion, now
            )
            matching = [i for i, r in enumerate(rules) if r.vo == assertion.vo]
            cut = matching[0] + 1 if matching else 0
            tail = rules[cut:]
            rng.shuffle(tail)
            outcome = map_assertion(
                MappingConfig(vo_rules=rules[:cut] + tail), PrincipalStore(), assertion, now
            )
            assert type(outcome) is type(baseline)
            if isinstance(outcome, Decision):
                assert outcome.tenant == baseline.tenant

        # auto-create idempotency
        config = MappingConfig(vo_rules=[VoRule("pheno", "pheno", True)])
        store = PrincipalStore()
        live = Assertion(subject_dn="/CN=a", vo="pheno", not_before=0, not_after=now + 10)
        first = map_assertion(config, store, live, now)
        second = map_assertion(config, store, live, now)
        assert first.created and not second.created
        assert len(store.all()) == 1

        # deny on expired
        stale = Assertion(subject_dn="/CN=a", vo="pheno", not_before=0, not_after=now - 1)
        denied = map_assertion(config, store, stale, now)
        assert isinstance(denied, Denial) and denied.reason == "expired"

        # token roundtrip
        key = b"acceptance-key"
        token = issue_token(key, "/CN=a", "pheno", 3600, now=now)
        verified, reason = verify_token(key, token.encode(), now=now)
        assert reason is None and verified.tenant == "pheno"

        # exhaustive single-byte tamper rejection
        raw = bytearray(token.encode().encode("ascii"))
        for i in range(len(raw)):
            original = raw[i]
            for value in range(256):
                if value == original:
                    continue
                raw[i] = value
                tampered = raw.decode("latin-1")
                assert verify_token(key, tampered, now=now)[0] is None
            raw[i] = original


# 8 ----------------------------------------------------------------------------


def _tree_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def test_criterion_8_contextualizer_sandbox(tmp_path):
    with criterion(8, "contextualizer sandbox", budget_s=10.0):
        archives = tmp_path / "archives"
        archives.mkdir()
        doc = {}
        for name, deps in (("A", []), ("B", ["A"])):
            (archives / f"{name}.tar.gz").write_bytes(b"x" * 10)
            doc[name] = {
                "installer": f"{name}.sh",
                "dependencies": deps,
                "base_url": archives.as_uri(),
                "file": f"{name}.tar.gz",
                "versions": {"1.0": {"version_name": "1.0"}},
            }
        catalog = parse_catalog(json.dumps(doc))
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "A.sh").write_text("#!/bin/sh\nexit 1\n")
        (scripts / "B.sh").write_text("#!/bin/sh\nexit 0\n")
        root = tmp_path / "root"
        root.mkdir()
        (root / "seed.txt").write_text("pre-existing content")

        ctx = Contextualizer(catalog, scripts_dir=str(scripts), root=str(root))

        before = _tree_digest(root)
        report = ctx.run({"B": "1.0"}, dry_run=True)
        assert report.ok and _tree_digest(root) == before

        report = ctx.run({"B": "1.0"})
        assert report.failed_at == 0
        assert [s.app for s in report.steps] == ["A"]  # B never ran
