"""Seeded input generators for the benchmark.

Every function here is a pure function of its seed (and of the directory it
writes into): the same seed gives byte-identical files.  Nothing here imports
the package under test.

Sizes follow ROADMAP open item 1: a 1k-app catalog, 10k-deep chains, a
4-wide layered DAG and a 300x300 grid.  Dependency edges of the chains and
of the layered DAG point toward lexicographically larger names, so the
anchored cycle search in ``check_cycles`` walks them; edges of the random
DAG point toward smaller names.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import tarfile

DAG_APPS = 1000
DAG_VERSIONS = ("1.0", "1.1", "2.0")
RING_SIZES = (2, 3, 4, 5)
LAYER_WIDTH = 4
LAYER_DEPTH = 8
CHAIN_LENGTH = 10_000
INSTALLER = "install.sh"

PLAN_REQUESTS = 16
PROVISION_REQUESTS = 1
PROVISION_CLOSURE = 100
ARCHIVE_MIN = 64 * 1024
ARCHIVE_MAX = 512 * 1024

RULES = 200
PRELOADED_PRINCIPALS = 1000
DEPARTMENTS = 250  # departments >= RULES match no rule
TOKEN_NOW = 1_700_000_000.0
TOKEN_LIFETIME = 3600.0

SCAN_LIGHT_STEPS = 300
SCAN_HEAVY_STEPS = 30
SCAN_HEAVY_WORK = 1_000_000
SCAN_COMMAND_STEPS = 100
SCAN_RANGE = dict(ma_min=90.0, ma_max=500.0, tb_min=1.1, tb_max=60.0)

INSTALL_SCRIPT = """#!/bin/sh
set -e
mkdir -p "$INSTALL_PREFIX"
tar -xf "$APP_ARCHIVE" -C "$INSTALL_PREFIX"
"""

# The builtin classifier written as an external command-kernel: it echoes the
# input point and appends the status.
AWK_KERNEL = """{
    if ($2 < 4 && $1 < 200) s = "EXC_LEP"
    else if ($2 > 40) s = "EXC_LHC"
    else s = "ALLOWED"
    print $1, $2, s
}
"""


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator per input stream, so adding one stream
    leaves every other stream's values unchanged."""
    return random.Random(f"{seed}:{stream}")


# --- catalogs -----------------------------------------------------------------


def _dag_name(i):
    return "a%04d" % i


def random_dag(seed: int, base_url: str) -> dict:
    """1k apps, each depending on 0-3 apps with smaller names, plus planted
    rings ``r<k>_<j>`` that form exactly one elementary cycle each.

    Some versions override ``dependencies``; every version overrides ``file``
    so that each (app, version) has its own archive.
    """
    rng = rng_for(seed, "dag")
    raw = {}
    for i in range(DAG_APPS):
        lo = max(0, i - 40)
        k = rng.choice((0, 1, 1, 2, 2, 3)) if i else 0
        deps = sorted({_dag_name(rng.randrange(lo, i)) for _ in range(k)}) if i else []
        n_versions = rng.randint(1, len(DAG_VERSIONS))
        versions = {}
        for vk in DAG_VERSIONS[:n_versions]:
            name = _dag_name(i)
            body = {"version_name": vk, "file": f"{name}-{vk}.tar"}
            if deps and rng.random() < 0.2:
                body["dependencies"] = deps[: rng.randrange(len(deps))]
            versions[vk] = body
        raw[_dag_name(i)] = {
            "installer": INSTALLER,
            "base_url": base_url,
            "dependencies": deps,
            "versions": versions,
        }
    for ring, size in enumerate(RING_SIZES):
        names = ["r%d_%d" % (ring, j) for j in range(size)]
        for j, name in enumerate(names):
            raw[name] = {
                "installer": INSTALLER,
                "dependencies": [names[(j + 1) % size], _dag_name(rng.randrange(DAG_APPS))],
                "versions": {"1.0": {"version_name": "1.0"}},
            }
    return raw


def planted_cycles() -> list:
    """The elementary cycles of ``random_dag``, as closed paths anchored at
    their smallest node, sorted."""
    cycles = []
    for ring, size in enumerate(RING_SIZES):
        names = ["r%d_%d" % (ring, j) for j in range(size)]
        cycles.append(names + [names[0]])
    return sorted(cycles)


def layered_dag() -> dict:
    """``LAYER_DEPTH + 1`` layers of ``LAYER_WIDTH`` apps; every app depends on
    every app of the next layer, so there are 4^depth paths from the top."""
    raw = {}
    for layer in range(LAYER_DEPTH + 1):
        below = (
            ["l%02d_%d" % (layer + 1, j) for j in range(LAYER_WIDTH)]
            if layer < LAYER_DEPTH
            else []
        )
        for j in range(LAYER_WIDTH):
            raw["l%02d_%d" % (layer, j)] = {
                "installer": INSTALLER,
                "dependencies": below,
                "versions": {"1.0": {"version_name": "1.0"}},
            }
    return raw


def chain(cyclic: bool) -> dict:
    """``c00000 -> c00001 -> ... -> c09999``, closed back to ``c00000`` when
    cyclic."""
    names = ["c%05d" % i for i in range(CHAIN_LENGTH)]
    raw = {}
    for i, name in enumerate(names):
        if i + 1 < CHAIN_LENGTH:
            deps = [names[i + 1]]
        else:
            deps = [names[0]] if cyclic else []
        raw[name] = {
            "installer": INSTALLER,
            "dependencies": deps,
            "versions": {"1.0": {"version_name": "1.0"}},
        }
    return raw


def catalog_text(raw: dict) -> str:
    return json.dumps(raw, sort_keys=True)


# --- reference dependency semantics (independent of the package) ---------------


def effective_deps(raw: dict, name: str, version: str) -> list:
    entry = raw[name]
    spec = entry["versions"][version]
    return list(spec.get("dependencies", entry.get("dependencies", [])))


def select_versions(raw: dict, request: dict) -> dict:
    """Transitive closure of a request: explicit versions win, dependencies
    get the greatest version key."""
    selected = dict(request)
    stack = list(request)
    while stack:
        name = stack.pop()
        for dep in effective_deps(raw, name, selected[name]):
            if dep not in selected:
                selected[dep] = max(raw[dep]["versions"])
                stack.append(dep)
    return selected


def request_pool(seed: int, raw: dict, stream: str, count: int, closure: tuple) -> list:
    """``count`` requests over DAG apps whose closures have between
    ``closure[0]`` and ``closure[1]`` apps: random roots are added while
    the closure stays within the upper bound, until it reaches the lower."""
    rng = rng_for(seed, stream)
    lo, hi = closure
    pool = []
    while len(pool) < count:
        request, size = {}, 0
        for _ in range(200):
            name = _dag_name(rng.randrange(DAG_APPS // 2, DAG_APPS))
            trial = dict(request, **{name: rng.choice(sorted(raw[name]["versions"]))})
            trial_size = len(select_versions(raw, trial))
            if trial_size <= hi:
                request, size = trial, trial_size
                if size >= lo:
                    pool.append(request)
                    break
    return pool


def ring_requests() -> list:
    return [{"r%d_%d" % (ring, size - 1): "1.0"} for ring, size in enumerate(RING_SIZES)]


# --- provisioning artefacts ------------------------------------------------------


def write_archives(seed: int, raw: dict, requests: list, archives_dir: str) -> dict:
    """One tar per (app, version) in the closure of ``requests``.

    Returns ``{file name: {"size": bytes, "tree": {member: sha256}}}``.
    Content is seeded random bytes, 64-512 KiB per archive.
    """
    rng = rng_for(seed, "archives")
    needed = set()
    for request in requests:
        needed.update(select_versions(raw, request).items())
    manifest = {}
    for name, version in sorted(needed):
        file = raw[name]["versions"][version]["file"]
        size = rng.randint(ARCHIVE_MIN, ARCHIVE_MAX)
        split = rng.randint(1, size - 1)
        members = {"lib/payload.bin": rng.randbytes(split), "share/data.bin": rng.randbytes(size - split)}
        path = os.path.join(archives_dir, file)
        with tarfile.open(path, "w", format=tarfile.USTAR_FORMAT) as tar:
            for member, data in members.items():
                info = tarfile.TarInfo(member)
                info.size = len(data)
                info.mtime = 0
                info.mode = 0o644
                tar.addfile(info, io.BytesIO(data))
        manifest[file] = {
            "size": os.path.getsize(path),
            "tree": {m: hashlib.sha256(d).hexdigest() for m, d in members.items()},
        }
    return manifest


# --- identity ------------------------------------------------------------------


def _dept(k):
    return "dept%03d.example.org" % k


def mapping_rules() -> list:
    """200 ordered rules.  Every 25th rule is a broad rule for a block of
    later departments, so first-match-wins decides the tenant."""
    rules = []
    for k in range(RULES):
        if k % 25 == 0:
            block = k // 25
            rules.append({
                "pattern": r"u[0-9]*7@dept%d[0-9][0-9]\.example\.org" % (block % 2),
                "tenant": "broad%d" % block,
                "auto_create": True,
            })
        else:
            rules.append({
                "pattern": r"u[0-9]+@" + _dept(k).replace(".", r"\."),
                "tenant": "t%03d" % k,
                "auto_create": k % 3 != 0,
            })
    return rules


def mapping_config_text() -> str:
    return json.dumps({"user_rules": mapping_rules()}, sort_keys=True)


def username(n, dept):
    return "u%d@%s" % (n, _dept(dept))


def preloaded_principals(seed: int) -> list:
    """Principals already in the store: users of matched rules, in the
    tenant their first matching rule names."""
    import re

    rng = rng_for(seed, "principals")
    rules = [(re.compile(r["pattern"]), r["tenant"]) for r in mapping_rules()]
    out = {}
    while len(out) < PRELOADED_PRINCIPALS:
        user = username(rng.randrange(100_000), rng.randrange(RULES))
        tenant = next((t for rx, t in rules if rx.fullmatch(user)), None)
        if tenant is not None:
            out[(user, tenant)] = {
                "username": user, "tenant": tenant, "enabled": True, "created_by": "manual",
            }
    return [out[key] for key in sorted(out)]


def signing_key(seed: int) -> bytes:
    return rng_for(seed, "key").randbytes(32).hex().encode("ascii")


# --- files ---------------------------------------------------------------------


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
