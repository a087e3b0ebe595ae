"""Tenant mapping and token issuance.

Assertions arrive pre-validated (TLS/proxy checking belongs to the web
server in front of this module); here we only decide which tenant a VO
or username maps to, optionally auto-provision the principal, and issue
MAC-signed scoped tokens.
"""

from __future__ import annotations

import base64
import fcntl
import hashlib
import hmac
import itertools
import json
import math
import os
import re
from collections import namedtuple

from phenocloud.errors import PhenocloudError, key_problem

TOKEN_PREFIX = "PCT1"  # token envelope version


class ConfigError(PhenocloudError):
    """Mapping configuration is invalid."""


class Assertion(namedtuple("Assertion", "subject_dn vo not_before not_after",
                           defaults=(None, 0.0, math.inf))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.subject_dn:
            raise ValueError("subject_dn must be non-empty")
        if not self.not_before < self.not_after:
            raise ValueError("not_before must precede not_after")
        return self


VoRule = namedtuple("VoRule", "vo tenant auto_create", defaults=(False,))
UserRule = namedtuple("UserRule", "pattern tenant auto_create", defaults=(False,))


def _rules(raw, family, record_type):
    """The record_type of each JSON rule in raw[family]; a ConfigError naming the
    rule if one is not an object, lacks a key or has a value of the wrong type."""
    key = record_type._fields[0]
    rules = raw.get(family, [])
    if not isinstance(rules, list):
        raise ConfigError(f"{family} must be a JSON array")
    for index, rule in enumerate(rules):
        where = f"{family}[{index}]"
        if not isinstance(rule, dict):
            raise ConfigError(f"{where}: rule must be a JSON object")
        for name in (key, "tenant"):
            if name not in rule:
                raise ConfigError(f"{where}: missing key {name!r}")
        auto_create = rule.get("auto_create", False)
        if not (isinstance(rule[key], str) and isinstance(rule["tenant"], str)
                and isinstance(auto_create, bool)):
            raise ConfigError(f"{where}: {key} and tenant must be strings, auto_create a boolean")
        yield record_type(rule[key], rule["tenant"], auto_create)


# A global inline flag group, after any comments: it must stay at a pattern's start.
_GLOBAL_FLAGS = re.compile(r"(?:\(\?#(?:[^\\)]|\\.)*\))*\(\?[aiLmsux]+\)", re.DOTALL)


def _shares_alternation(rx):
    """Whether rx can be one branch of a combined regex: no groups to renumber and no
    flags, not even a redundant global ``(?u)``."""
    return not rx.groups and rx.flags == re.UNICODE and not _GLOBAL_FLAGS.match(rx.pattern)


def _alternations(matchers):
    """matchers, each (regex, (rule,)), with each run of consecutive ones that share an
    alternation compiled into one regex, ``(?:p1)()|(?:p2)()|...``: branches are tried
    in order, so the first pattern that fully matches wins, and its empty group, the
    last one to match, names its rule. Any other matcher keeps its place."""
    joined = []
    for shared, run in itertools.groupby(matchers, lambda m: _shares_alternation(m[0])):
        if shared:
            rxs, rules = zip(*((rx, rule) for rx, (rule,) in run))
            joined.append((re.compile("|".join(f"(?:{rx.pattern})()" for rx in rxs)), rules))
        else:
            joined += run
    return joined


class MappingConfig:
    """Ordered mapping rules; first match wins within each rule family.

    User rules are matched each alone on the first lookup. The second lookup
    replaces each run of consecutive plain patterns with one alternation
    (``_alternations``), so a config loaded for a single lookup, as by
    ``phenocloud auth map-user``, never pays for compiling it.
    """

    def __init__(self, vo_rules=(), user_rules=()):
        self.vo_rules = list(vo_rules)
        self.user_rules = list(user_rules)
        for family, rules in (("vo_rules", self.vo_rules), ("user_rules", self.user_rules)):
            for index, rule in enumerate(rules):
                if not rule.tenant:
                    raise ConfigError(f"{family}[{index}]: tenant must be non-empty")
        self._matchers = []  # (regex, rules): rules[lastindex - 1] matched, or the one rule
        for index, rule in enumerate(self.user_rules):
            try:
                self._matchers.append((re.compile(rule.pattern), (rule,)))
            except re.error as exc:
                raise ConfigError(
                    f"user_rules[{index}]: bad pattern {rule.pattern!r}: {exc}") from exc
        self._lookups = 0

    @classmethod
    def from_json(cls, text: str) -> "MappingConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"mapping config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("mapping config must be a JSON object")
        return cls(vo_rules=_rules(raw, "vo_rules", VoRule),
                   user_rules=_rules(raw, "user_rules", UserRule))

    def match_vo(self, vo):
        for rule in self.vo_rules:
            if rule.vo == vo:
                return rule
        return None

    def match_user(self, username):
        self._lookups += 1
        if self._lookups == 2:
            self._matchers = _alternations(self._matchers)
        for rx, rules in self._matchers:
            match = rx.fullmatch(username)
            if match:
                return rules[match.lastindex - 1] if len(rules) > 1 else rules[0]
        return None


# created_by: "manual" | "auto"
Principal = namedtuple("Principal", "username tenant enabled created_by",
                       defaults=(True, "manual"))
Decision = namedtuple("Decision", "tenant username created", defaults=(False,))
# reason: vo-not-allowed | user-not-allowed | unknown-principal | disabled | expired
Denial = namedtuple("Denial", "reason detail", defaults=("",))


class PrincipalStore:
    """In-memory (username, tenant) -> Principal store."""

    def __init__(self):
        self._principals = {}

    def get(self, username, tenant):
        return self._principals.get((username, tenant))

    def add(self, principal: Principal):
        """Store principal unless one with its key exists; return the stored one."""
        return self._principals.setdefault((principal.username, principal.tenant), principal)

    def all(self):
        return list(self._principals.values())


def _owner_only(path, flags):
    return os.open(path, flags, 0o600)  # a new store is readable by its owner only


# Built once: json.dumps with any non-default argument builds a new encoder per call.
_compact = json.JSONEncoder(separators=(",", ":")).encode
_compact_sorted = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _line(p: Principal) -> bytes:
    return _compact(p._asdict()).encode("utf-8") + b"\n"


class JsonPrincipalStore(PrincipalStore):
    """Principal store persisted as a JSON Lines journal, one principal per line.

    ``add`` appends its line under an exclusive ``flock`` after reading the
    lines other processes appended, so processes on one host sharing the file
    keep each other's principals. A last line without a newline is a torn
    write: loading ignores it and the next ``add`` truncates it. A legacy store
    starts with a JSON array, never rewritten: the journal continues after it
    and its trailing whitespace, and errors name lines as numbered in the file.
    """

    def __init__(self, path):
        super().__init__()
        self.path = path
        self._offset = 0  # bytes read: the legacy array, then complete lines
        self._lines = 0  # newlines in those bytes
        try:
            with open(path, "rb") as fh:
                self._read(fh)
        except FileNotFoundError:
            pass

    def add(self, principal: Principal):
        key = (principal.username, principal.tenant)
        if key in self._principals:
            return self._principals[key]
        with open(self.path, "a+b", opener=_owner_only) as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # closing the file unlocks it
            self._read(fh)
            if key in self._principals:
                return self._principals[key]
            if fh.tell() > self._offset:
                fh.truncate(self._offset)  # a torn tail; O_APPEND writes at the new end
            line = _line(principal)
            fh.write(line)
            fh.flush()
            self._offset += len(line)
            self._lines += 1
            self._principals[key] = principal
        return principal

    def _read(self, fh):
        """Merge the lines appended since the last read, after a legacy array at offset 0."""
        fh.seek(self._offset)
        data = fh.read()
        if self._offset == 0 and data.lstrip()[:1] == b"[":
            self._load_array(data)
            data = data[self._offset:]
        end = data.rfind(b"\n") + 1
        for line in data[:end].splitlines():
            self._lines += 1
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ConfigError(
                    f"principal store {self.path} line {self._lines} is not JSON: {exc}"
                ) from exc
            self._load(record, f"line {self._lines}")
        self._offset += end

    def _load_array(self, data):
        """Load the legacy JSON array data starts with; read past it and the whitespace after."""
        space = json.decoder.WHITESPACE
        try:
            text = data.decode("utf-8", "surrogateescape")  # journal lines are decoded one by one
            records, end = json.JSONDecoder().raw_decode(text, space.match(text).end())
            head = text[:space.match(text, end).end()].encode("utf-8", "surrogateescape")
            head.decode("utf-8")  # the array must be UTF-8
        except ValueError as exc:
            raise ConfigError(f"principal store {self.path} is not valid JSON: {exc}") from exc
        for index, record in enumerate(records):
            self._load(record, f"record {index}")
        self._offset, self._lines = len(head), head.count(b"\n")

    def _load(self, record, where):
        if not isinstance(record, dict):
            raise ConfigError(f"principal store {self.path} {where} is not a JSON object")
        try:
            p = Principal(**record)
        except TypeError as exc:
            problem = key_problem(Principal, record) or exc
            raise ConfigError(f"malformed principal store {self.path} {where}: {problem}") from exc
        if not (isinstance(p.username, str) and isinstance(p.tenant, str)
                and isinstance(p.created_by, str) and isinstance(p.enabled, bool)):
            raise ConfigError(f"malformed principal store {self.path} {where}: username, "
                              "tenant and created_by must be strings, enabled a boolean")
        self._principals[(p.username, p.tenant)] = p


def _decide(rule, store: PrincipalStore, username: str):
    principal = store.get(username, rule.tenant)
    created = False
    if principal is None:
        if not rule.auto_create:
            return Denial(
                "unknown-principal",
                f"{username!r} has no account in tenant {rule.tenant!r}",
            )
        new = Principal(username=username, tenant=rule.tenant, created_by="auto")
        principal = store.add(new)  # another process may have added it first
        created = principal is new
    if not principal.enabled:
        return Denial("disabled", f"{username!r} is disabled in tenant {rule.tenant!r}")
    return Decision(tenant=rule.tenant, username=username, created=created)


def map_assertion(config: MappingConfig, store: PrincipalStore, assertion: Assertion, now: float):
    """Map a VO assertion to a tenant; the subject DN becomes the username."""
    if not assertion.not_before <= now < assertion.not_after:
        return Denial("expired", "assertion outside its validity window")
    rule = config.match_vo(assertion.vo)
    if rule is None:
        return Denial("vo-not-allowed", f"no rule matches VO {assertion.vo!r}")
    return _decide(rule, store, assertion.subject_dn)


def map_username(config: MappingConfig, store: PrincipalStore, username: str):
    """Map an already-authenticated username to a tenant via regex rules."""
    rule = config.match_user(username)
    if rule is None:
        return Denial("user-not-allowed", f"no rule matches user {username!r}")
    return _decide(rule, store, username)


# --- tokens -----------------------------------------------------------------


class Token(namedtuple("Token", "subject tenant issued_at expires_at signature")):
    __slots__ = ()

    def encode(self) -> str:
        body = _canonical_body(self.subject, self.tenant, self.issued_at, self.expires_at)
        return "%s.%s.%s" % (
            TOKEN_PREFIX,
            base64.urlsafe_b64encode(body).decode("ascii"),
            base64.urlsafe_b64encode(self.signature).decode("ascii"),
        )


def _canonical_body(subject, tenant, issued_at, expires_at) -> bytes:
    return _compact_sorted(
        {
            "subject": subject,
            "tenant": tenant,
            "issued_at": issued_at,
            "expires_at": expires_at,
        }
    ).encode("utf-8")


def _sign(key: bytes, body: bytes) -> bytes:
    return hmac.new(key, body, hashlib.sha256).digest()


def issue_token(key: bytes, subject: str, tenant: str, lifetime_s: float, now: float) -> Token:
    if lifetime_s <= 0:
        raise ValueError("token lifetime must be positive")
    # verify_token re-encodes the times as floats: an int here would not match.
    issued_at, expires_at = float(now), float(now) + float(lifetime_s)
    if not (math.isfinite(issued_at) and math.isfinite(expires_at)):
        raise ValueError("token times must be finite")
    body = _canonical_body(subject, tenant, issued_at, expires_at)
    return Token(
        subject=subject,
        tenant=tenant,
        issued_at=issued_at,
        expires_at=expires_at,
        signature=_sign(key, body),
    )


def verify_token(key: bytes, encoded: str, now: float):
    """Return (Token, None) when valid, (None, reason) otherwise.

    Reasons: "malformed", "signature", "expired".
    """
    parts = encoded.split(".")
    if len(parts) != 3 or parts[0] != TOKEN_PREFIX:
        return None, "malformed"
    try:
        body = base64.urlsafe_b64decode(parts[1].encode("ascii"))
        signature = base64.urlsafe_b64decode(parts[2].encode("ascii"))
        fields = json.loads(body)
        token = Token(
            subject=fields["subject"],
            tenant=fields["tenant"],
            issued_at=float(fields["issued_at"]),
            expires_at=float(fields["expires_at"]),
            signature=signature,
        )
    except (ValueError, KeyError, TypeError):
        return None, "malformed"
    # Base64 padding bits are ignored by the decoder, so non-canonical
    # encodings could alias a valid token; accept canonical form only.
    if token.encode() != encoded:
        return None, "malformed"
    # json reads NaN and Infinity, and a NaN expiry would never compare as past.
    if not (math.isfinite(token.issued_at) and math.isfinite(token.expires_at)):
        return None, "malformed"
    # Sign over the received body bytes: any tamper, even one that would
    # re-canonicalize to the same fields, must fail.
    if not hmac.compare_digest(signature, _sign(key, body)):
        return None, "signature"
    if not now < token.expires_at:  # a NaN now counts as expired, not as valid
        return None, "expired"
    return token, None
