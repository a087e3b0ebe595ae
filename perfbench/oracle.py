"""Correctness oracle.

Each check takes what the program returned and the generator's own inputs,
and returns ``None`` when the result is right or a one-line reason when it
is not.  Expected values come from the generators in ``inputs`` and from
re-implementations of the documented contracts below; nothing here calls the
package under test.
"""

from __future__ import annotations

import base64
import hashlib
import heapq
import hmac
import json
import os
import re

import inputs


def expected_plan(raw: dict, request: dict) -> list:
    """``[(name, version)]`` in install order: the transitive closure, each
    app once, dependencies first, smallest ready name first (the order
    ``resolve`` documents).  ``None`` when the closure has a cycle."""
    selected = inputs.select_versions(raw, request)
    deps = {n: set(inputs.effective_deps(raw, n, v)) for n, v in selected.items()}
    waiting = {n: len(d) for n, d in deps.items()}
    users = {n: [] for n in deps}
    for n, d in deps.items():
        for dep in d:
            users[dep].append(n)
    ready = [n for n, k in waiting.items() if k == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append((n, selected[n]))
        for user in users[n]:
            waiting[user] -= 1
            if waiting[user] == 0:
                heapq.heappush(ready, user)
    return order if len(order) == len(deps) else None


def check_plan(raw: dict, request: dict, steps) -> str | None:
    """``steps`` is ``[(name, version)]`` as the program planned it."""
    expected = expected_plan(raw, request)
    if expected is None:
        return "a plan was returned for a cyclic request"
    steps = list(steps)
    if len({n for n, _ in steps}) != len(steps):
        return "an app appears more than once in the plan"
    if set(steps) != set(expected):
        return "plan is not the transitive closure with the selected versions"
    position = {n: i for i, (n, _) in enumerate(steps)}
    for n, v in steps:
        for dep in inputs.effective_deps(raw, n, v):
            if position[dep] > position[n]:
                return f"{n} is planned before its dependency {dep}"
    if steps != expected:
        return "plan order is not smallest-ready-name-first"
    return None


def check_cycle_error(raw: dict, cycle, planted) -> str | None:
    """A reported cycle must be a closed path of dependency edges that is a
    rotation of one planted cycle."""
    cycle = list(cycle)
    if len(cycle) < 2 or cycle[0] != cycle[-1]:
        return "reported cycle is not a closed path"
    for a, b in zip(cycle, cycle[1:]):
        if a not in raw or b not in inputs.effective_deps(raw, a, max(raw[a]["versions"])):
            return f"reported cycle uses a missing edge {a} -> {b}"
    body = cycle[:-1]
    start = body.index(min(body))
    anchored = body[start:] + body[:start]
    if anchored + [anchored[0]] not in planted:
        return "reported cycle is not a planted cycle"
    return None


def check_cycles_result(found, planted) -> str | None:
    found = [list(c) for c in found]
    if sorted(found) != sorted(planted) or len(found) != len(planted):
        return f"check_cycles found {len(found)} cycles, {len(planted)} planted"
    return None


# --- identity ----------------------------------------------------------------------


class IdentityModel:
    """First-match-wins user mapping with auto-create, tracked independently."""

    def __init__(self, rules, principals):
        self.rules = [(re.compile(r["pattern"]), r["tenant"], r["auto_create"]) for r in rules]
        self.known = {(p["username"], p["tenant"]) for p in principals}

    def expect(self, user):
        """``("decision", tenant, created)`` or ``("denial", reason)``."""
        for rx, tenant, auto in self.rules:
            if rx.fullmatch(user):
                if (user, tenant) in self.known:
                    return ("decision", tenant, False)
                if auto:
                    self.known.add((user, tenant))
                    return ("decision", tenant, True)
                return ("denial", "unknown-principal")
        return ("denial", "user-not-allowed")


def check_mapping(expected, outcome) -> str | None:
    """``outcome`` is ``("decision", tenant, username, created)`` or
    ``("denial", reason)``."""
    if expected[0] != outcome[0]:
        return f"expected {expected[0]}, got {outcome[0]}"
    if expected[0] == "decision":
        if (expected[1], expected[2]) != (outcome[1], outcome[3]):
            return f"expected tenant {expected[1]} created={expected[2]}, got {outcome[1]} created={outcome[3]}"
    elif expected[1] != outcome[1]:
        return f"expected denial {expected[1]}, got {outcome[1]}"
    return None


def encode_token(key: bytes, subject, tenant, issued_at, expires_at) -> str:
    """The PCT1 envelope: base64url of the canonical JSON body and of its
    HMAC-SHA256."""
    body = json.dumps(
        {"subject": subject, "tenant": tenant, "issued_at": issued_at, "expires_at": expires_at},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    sig = hmac.new(key, body, hashlib.sha256).digest()
    return "PCT1.%s.%s" % (
        base64.urlsafe_b64encode(body).decode("ascii"),
        base64.urlsafe_b64encode(sig).decode("ascii"),
    )


def check_issued(key, subject, tenant, now, lifetime, encoded) -> str | None:
    if encoded != encode_token(key, subject, tenant, now, now + lifetime):
        return "issued token differs from the PCT1 encoding of its fields"
    return None


def check_verified(kind, subject, tenant, accepted_fields, reason) -> str | None:
    """``kind`` is valid | tampered | expired.  ``accepted_fields`` is
    ``(subject, tenant)`` when the token was accepted, else ``None``."""
    if kind == "valid":
        if accepted_fields != (subject, tenant):
            return f"valid token rejected or mis-attributed ({reason})"
    elif accepted_fields is not None:
        return f"{kind} token was accepted"
    elif kind == "expired" and reason != "expired":
        return f"expired token rejected as {reason!r}"
    return None


def tamper(encoded: str, rng) -> str:
    """Replace one base64 character of the body or signature."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
    positions = [i for i, ch in enumerate(encoded) if i > 5 and ch in alphabet]
    i = rng.choice(positions)
    ch = rng.choice([c for c in alphabet if c != encoded[i]])
    return encoded[:i] + ch + encoded[i + 1:]


# --- provisioning --------------------------------------------------------------------


def check_installed(root, steps, manifest, outcome) -> str | None:
    """Every step ran, with the expected cache outcome, and its installed
    tree has the archive's checksums.  ``steps`` is
    ``[(name, version, download, exit_status, file)]``."""
    for name, version, download, exit_status, file in steps:
        if exit_status != 0:
            return f"installer for {name} {version} exited {exit_status}"
        if download != outcome:
            return f"{name} {version}: download {download!r}, expected {outcome!r}"
        prefix = os.path.join(root, "apps", name, version)
        for member, digest in manifest[file]["tree"].items():
            try:
                with open(os.path.join(prefix, member), "rb") as fh:
                    got = hashlib.sha256(fh.read()).hexdigest()
            except OSError:
                return f"{name} {version}: {member} not installed"
            if got != digest:
                return f"{name} {version}: {member} checksum mismatch"
    return None


# --- scan -----------------------------------------------------------------------------


def grid_points(steps, ma_min, ma_max, tb_min, tb_max):
    """Linearized grid, index = i_ma * steps + i_tb, as the scan documents."""
    def axis(lo, hi):
        return [lo] if steps == 1 else [lo + k * (hi - lo) / (steps - 1) for k in range(steps)]
    return [(ma, tb) for ma in axis(ma_min, ma_max) for tb in axis(tb_min, tb_max)]


def expected_status(ma, tanb):
    if tanb < 4 and ma < 200:
        return "EXC_LEP"
    if tanb > 40:
        return "EXC_LHC"
    return "ALLOWED"


def scan_reference(format_point, steps) -> bytes:
    """Expected merged scan file, lines formatted by the package's
    ``format_point``."""
    lines = ["# MA TANB STATUS\n"]
    for ma, tb in grid_points(steps, **inputs.SCAN_RANGE):
        lines.append(format_point(ma, tb, expected_status(ma, tb)))
    return "".join(lines).encode("utf-8")


def check_scan(out_bytes: bytes, reference: bytes) -> str | None:
    if out_bytes == reference:
        return None
    got, want = out_bytes.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return f"scan output has {len(got)} lines, expected {len(want)}"
    line = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return f"scan output differs from the reference at line {line + 1}"
