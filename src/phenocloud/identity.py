"""Tenant mapping and token issuance.

Assertions arrive pre-validated (TLS/proxy checking belongs to the web
server in front of this module); here we only decide which tenant a VO
or username maps to, optionally auto-provision the principal, and issue
MAC-signed scoped tokens.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import os
import re
import tempfile
import threading
from dataclasses import dataclass, field

from phenocloud.errors import PhenocloudError

TOKEN_PREFIX = "PCT1"  # token envelope version


class ConfigError(PhenocloudError):
    """Mapping configuration is invalid."""


@dataclass(frozen=True)
class Assertion:
    subject_dn: str
    vo: str | None = None
    not_before: float = 0.0
    not_after: float = float("inf")

    def __post_init__(self):
        if not self.subject_dn:
            raise ValueError("subject_dn must be non-empty")
        if not self.not_before < self.not_after:
            raise ValueError("not_before must precede not_after")


@dataclass(frozen=True)
class VoRule:
    vo: str
    tenant: str
    auto_create: bool = False


@dataclass(frozen=True)
class UserRule:
    pattern: str
    tenant: str
    auto_create: bool = False


class MappingConfig:
    """Ordered mapping rules; first match wins within each rule family."""

    def __init__(self, vo_rules=(), user_rules=()):
        self.vo_rules = list(vo_rules)
        self.user_rules = list(user_rules)
        for rule in self.vo_rules + self.user_rules:
            if not rule.tenant:
                raise ConfigError("rule tenant must be non-empty")
        self._compiled = []
        for rule in self.user_rules:
            try:
                self._compiled.append(re.compile(rule.pattern))
            except re.error as exc:
                raise ConfigError(f"bad pattern {rule.pattern!r}: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "MappingConfig":
        try:
            raw = json.loads(text)
            return cls(
                vo_rules=[
                    VoRule(r["vo"], r["tenant"], bool(r.get("auto_create", False)))
                    for r in raw.get("vo_rules", [])
                ],
                user_rules=[
                    UserRule(r["pattern"], r["tenant"], bool(r.get("auto_create", False)))
                    for r in raw.get("user_rules", [])
                ],
            )
        except json.JSONDecodeError as exc:
            raise ConfigError(f"mapping config is not valid JSON: {exc}") from exc
        except (AttributeError, KeyError, TypeError) as exc:
            raise ConfigError(f"malformed mapping config: {type(exc).__name__}: {exc}") from exc

    def match_vo(self, vo):
        for rule in self.vo_rules:
            if rule.vo == vo:
                return rule
        return None

    def match_user(self, username):
        for rule, rx in zip(self.user_rules, self._compiled):
            if rx.fullmatch(username):
                return rule
        return None


@dataclass(frozen=True)
class Principal:
    username: str
    tenant: str
    enabled: bool = True
    created_by: str = "manual"  # "manual" | "auto"


@dataclass(frozen=True)
class Decision:
    tenant: str
    username: str
    created: bool = False


@dataclass(frozen=True)
class Denial:
    reason: str  # vo-not-allowed | user-not-allowed | unknown-principal | expired
    detail: str = ""


class PrincipalStore:
    """In-memory (username, tenant) -> Principal store."""

    def __init__(self):
        self._principals = {}
        self._lock = threading.Lock()

    def get(self, username, tenant):
        return self._principals.get((username, tenant))

    def add(self, principal: Principal):
        with self._lock:
            existing = self._principals.get((principal.username, principal.tenant))
            if existing is not None:
                return existing
            self._principals[(principal.username, principal.tenant)] = principal
            self._flush()
            return principal

    def all(self):
        return list(self._principals.values())

    def _flush(self):
        pass


class JsonPrincipalStore(PrincipalStore):
    """Principal store persisted as one JSON file, replaced atomically."""

    def __init__(self, path):
        super().__init__()
        self.path = path
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                for raw in json.load(fh):
                    p = Principal(**raw)
                    self._principals[(p.username, p.tenant)] = p

    def _flush(self):
        payload = [
            {
                "username": p.username,
                "tenant": p.tenant,
                "enabled": p.enabled,
                "created_by": p.created_by,
            }
            for p in self._principals.values()
        ]
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(self.path)), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _decide(rule, store: PrincipalStore, username: str):
    principal = store.get(username, rule.tenant)
    if principal is None:
        if not rule.auto_create:
            return Denial(
                "unknown-principal",
                f"{username!r} has no account in tenant {rule.tenant!r}",
            )
        store.add(Principal(username=username, tenant=rule.tenant, created_by="auto"))
        return Decision(tenant=rule.tenant, username=username, created=True)
    return Decision(tenant=rule.tenant, username=username)


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


@dataclass(frozen=True)
class Token:
    subject: str
    tenant: str
    issued_at: float
    expires_at: float
    signature: bytes

    def encode(self) -> str:
        body = _canonical_body(self.subject, self.tenant, self.issued_at, self.expires_at)
        return "%s.%s.%s" % (
            TOKEN_PREFIX,
            base64.urlsafe_b64encode(body).decode("ascii"),
            base64.urlsafe_b64encode(self.signature).decode("ascii"),
        )


def _canonical_body(subject, tenant, issued_at, expires_at) -> bytes:
    return json.dumps(
        {
            "subject": subject,
            "tenant": tenant,
            "issued_at": issued_at,
            "expires_at": expires_at,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


def _sign(key: bytes, body: bytes) -> bytes:
    return hmac.new(key, body, hashlib.sha256).digest()


def issue_token(key: bytes, subject: str, tenant: str, lifetime_s: float, now: float) -> Token:
    if lifetime_s <= 0:
        raise ValueError("token lifetime must be positive")
    # verify_token re-encodes the times as floats: an int here would not match.
    issued_at, expires_at = float(now), float(now) + float(lifetime_s)
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
    # Sign over the received body bytes: any tamper, even one that would
    # re-canonicalize to the same fields, must fail.
    if not hmac.compare_digest(signature, _sign(key, body)):
        return None, "signature"
    if now >= token.expires_at:
        return None, "expired"
    return token, None
