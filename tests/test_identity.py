import base64
import contextlib
import hashlib
import hmac
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import phenocloud
from phenocloud import identity as identity_mod
from phenocloud.cli import dispatch
from phenocloud.identity import (
    Assertion,
    ConfigError,
    Decision,
    Denial,
    JsonPrincipalStore,
    MappingConfig,
    Principal,
    PrincipalStore,
    Token,
    UserRule,
    VoRule,
    issue_token,
    map_assertion,
    map_username,
    verify_token,
)

NOW = 1_700_000_000.0


def pheno_config(auto_create=True):
    return MappingConfig(vo_rules=[VoRule("pheno", "pheno", auto_create=auto_create)])


def fresh_assertion(vo="pheno", dn="/DC=es/CN=alice"):
    return Assertion(subject_dn=dn, vo=vo, not_before=NOW - 10, not_after=NOW + 3600)


# --- VO mapping --------------------------------------------------------------


def test_map_assertion_auto_creates_principal():
    store = PrincipalStore()
    outcome = map_assertion(pheno_config(), store, fresh_assertion(), NOW)
    assert outcome == Decision(tenant="pheno", username="/DC=es/CN=alice", created=True)
    assert store.get("/DC=es/CN=alice", "pheno").created_by == "auto"


def test_map_assertion_unlisted_vo_denied():
    outcome = map_assertion(pheno_config(), PrincipalStore(), fresh_assertion(vo="atlas"), NOW)
    assert outcome == Denial("vo-not-allowed", outcome.detail)


def test_map_assertion_without_auto_create_requires_existing_principal():
    store = PrincipalStore()
    outcome = map_assertion(pheno_config(auto_create=False), store, fresh_assertion(), NOW)
    assert isinstance(outcome, Denial) and outcome.reason == "unknown-principal"
    store.add(Principal(username="/DC=es/CN=alice", tenant="pheno"))
    outcome = map_assertion(pheno_config(auto_create=False), store, fresh_assertion(), NOW)
    assert isinstance(outcome, Decision) and not outcome.created


def test_expired_assertion_denied():
    stale = Assertion(subject_dn="/CN=x", vo="pheno", not_before=0.0, not_after=NOW - 1)
    outcome = map_assertion(pheno_config(), PrincipalStore(), stale, NOW)
    assert isinstance(outcome, Denial) and outcome.reason == "expired"


def test_not_yet_valid_assertion_denied():
    early = Assertion(subject_dn="/CN=x", vo="pheno", not_before=NOW + 10, not_after=NOW + 20)
    outcome = map_assertion(pheno_config(), PrincipalStore(), early, NOW)
    assert isinstance(outcome, Denial) and outcome.reason == "expired"


def test_denials_do_not_mutate_store():
    store = PrincipalStore()
    map_assertion(pheno_config(auto_create=False), store, fresh_assertion(), NOW)
    map_assertion(pheno_config(), store, fresh_assertion(vo="atlas"), NOW)
    assert store.all() == []


@pytest.mark.parametrize("auto_create", [False, True])
def test_disabled_principal_is_denied(auto_create):
    store = PrincipalStore()
    store.add(Principal(username="/DC=es/CN=alice", tenant="pheno", enabled=False))
    outcome = map_assertion(pheno_config(auto_create), store, fresh_assertion(), NOW)
    assert isinstance(outcome, Denial) and outcome.reason == "disabled"
    store.add(Principal(username="bob", tenant="t", enabled=False))
    outcome = map_username(MappingConfig(user_rules=[UserRule(r".*", "t", auto_create)]),
                           store, "bob")
    assert isinstance(outcome, Denial) and outcome.reason == "disabled"
    assert len(store.all()) == 2


def test_auto_create_is_idempotent():
    store = PrincipalStore()
    map_assertion(pheno_config(), store, fresh_assertion(), NOW)
    second = map_assertion(pheno_config(), store, fresh_assertion(), NOW)
    assert isinstance(second, Decision) and not second.created
    assert len(store.all()) == 1


# --- username mapping --------------------------------------------------------


def test_map_username_regex_match():
    config = MappingConfig(user_rules=[UserRule(r"^[a-z]+@ifca\.es$", "ifca", True)])
    outcome = map_username(config, PrincipalStore(), "alice@ifca.es")
    assert isinstance(outcome, Decision) and outcome.tenant == "ifca"


def test_map_username_no_match_denied():
    config = MappingConfig(user_rules=[UserRule(r"^[a-z]+@ifca\.es$", "ifca", True)])
    outcome = map_username(config, PrincipalStore(), "alice@cern.ch")
    assert isinstance(outcome, Denial) and outcome.reason == "user-not-allowed"


def test_first_matching_user_rule_wins():
    config = MappingConfig(
        user_rules=[UserRule(r".*", "first", True), UserRule(r".*", "second", True)]
    )
    outcome = map_username(config, PrincipalStore(), "anyone")
    assert outcome.tenant == "first"


def test_pattern_must_match_full_username():
    config = MappingConfig(user_rules=[UserRule(r"[a-z]+", "t", True)])
    outcome = map_username(config, PrincipalStore(), "alice2")
    assert isinstance(outcome, Denial)


def test_bad_regex_rejected_at_config_time():
    with pytest.raises(ConfigError):
        MappingConfig(user_rules=[UserRule(r"([unclosed", "t", True)])


def test_empty_tenant_rejected():
    with pytest.raises(ConfigError):
        MappingConfig(vo_rules=[VoRule("pheno", "", True)])


def test_config_from_json_roundtrip():
    text = json.dumps(
        {
            "vo_rules": [{"vo": "pheno", "tenant": "pheno", "auto_create": True}],
            "user_rules": [{"pattern": "^a.*$", "tenant": "t"}],
        }
    )
    config = MappingConfig.from_json(text)
    assert config.vo_rules == [VoRule("pheno", "pheno", True)]
    assert config.user_rules == [UserRule("^a.*$", "t", False)]


def test_permuting_rules_after_first_match_never_changes_decision():
    rng = random.Random(1234)
    tenants = ["t0", "t1", "t2", "t3"]
    vos = ["pheno", "atlas", "cms", "lhcb"]
    for _ in range(1000):
        rules = [
            VoRule(rng.choice(vos), rng.choice(tenants), rng.random() < 0.5)
            for _ in range(rng.randint(1, 6))
        ]
        assertion = fresh_assertion(vo=rng.choice(vos + ["nobody"]))
        baseline = map_assertion(MappingConfig(vo_rules=rules), PrincipalStore(), assertion, NOW)
        matching = [i for i, r in enumerate(rules) if r.vo == assertion.vo]
        cut = matching[0] + 1 if matching else 0
        tail = rules[cut:]
        rng.shuffle(tail)
        permuted = rules[:cut] + tail
        outcome = map_assertion(MappingConfig(vo_rules=permuted), PrincipalStore(), assertion, NOW)
        assert type(outcome) is type(baseline)
        if isinstance(outcome, Decision):
            assert outcome.tenant == baseline.tenant


# Global flags come only first, after any comments; other heads open a group that is
# not global. Fragments mix groups, backreferences, scoped flags, top-level
# alternation, anchors and newlines.
PATTERN_HEADS = ["", "", "", "", "(?i)", "(?u)", "(?#c)(?i)", "(?#c)(?u)", "(?#c\\))(?u)",
                 "(?s)", "(?:a|b)", "(?=a)", "(?!b)", "(?#c)", "(?i:a)"]
PATTERN_FRAGMENTS = ["a", "b", "A", ".", "a*", "[ab]+", "\n", "\n?", "|", "$", "\\Z", "(a)",
                     "(a|b)\\1", "(?P<n>a|b)(?P=n)", "(?-i:a)", "(?i:b)", "(?:ab)?", "(?#c)"]
patterns = st.builds(lambda head, body: head + "".join(body), st.sampled_from(PATTERN_HEADS),
                     st.lists(st.sampled_from(PATTERN_FRAGMENTS), max_size=4))


def compiles(pattern):
    try:
        re.compile(pattern)
    except re.error:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(rules=st.lists(patterns.filter(compiles), max_size=8).map(
           lambda ps: [UserRule(p, "t") for p in ps]),
       usernames=st.lists(st.text(alphabet="abA\n", max_size=3), min_size=1, max_size=8))
def test_match_user_returns_the_first_rule_that_fully_matches(rules, usernames):
    config = MappingConfig(user_rules=rules)
    for username in usernames + usernames:  # the first lookup matches each rule alone
        expected = next((r for r in rules if re.fullmatch(r.pattern, username)), None)
        assert config.match_user(username) is expected


def test_one_alternation_finds_the_last_of_a_thousand_plain_rules():
    rules = [UserRule(r"u%d@dept\.example\.org" % i, "t%d" % i) for i in range(1000)]
    config = MappingConfig(user_rules=rules)
    assert config.match_user("u999@dept.example.org") is rules[999]
    assert len(config._matchers) == 1000  # one lookup compiles no alternation
    assert config.match_user("u999@dept.example.org") is rules[999]
    assert config.match_user("u1000@dept.example.org") is None
    assert len(config._matchers) == 1


def test_a_grouped_rule_between_two_plain_runs_keeps_its_place():
    rules = [UserRule("a+|x", "t"), UserRule("b+", "t"), UserRule("(c)\\1", "t"),
             UserRule("c+", "t"), UserRule("(?i)d", "t"), UserRule("d|cc", "t")]
    config = MappingConfig(user_rules=rules)
    assert [config.match_user(u) for u in ["aa", "b", "cc", "ccc", "D", "d", ""]] == [
        rules[0], rules[1], rules[2], rules[3], rules[4], rules[4], None]
    assert len(config._matchers) == 5


def test_groups_that_are_not_global_flags_share_an_alternation():
    rules = [UserRule(r"(?:alice|bob)@x\.org", "t"), UserRule(r"(?=u)u\d+", "t"),
             UserRule(r"(?#c\))carol", "t"), UserRule(r"(?#c\))(?u)dave", "t")]
    config = MappingConfig(user_rules=rules)
    assert [config.match_user(u) for u in ["bob@x.org", "u7", "carol", "dave", "u"]] == [
        rules[0], rules[1], rules[2], rules[3], None]
    assert len(config._matchers) == 2


@pytest.mark.parametrize("text,message", [
    ('{"user_rules":[{"pattern":"a"}]}', "user_rules[0]: missing key 'tenant'"),
    ('{"vo_rules":[{"vo":"v","tenant":"t"},{"tenant":"t"}]}', "vo_rules[1]: missing key 'vo'"),
    ('{"user_rules":[{"pattern":"a","tenant":""}]}', "user_rules[0]: tenant must be non-empty"),
    ('{"vo_rules":[{"vo":"v","tenant":"t"},{"vo":"w","tenant":""}]}',
     "vo_rules[1]: tenant must be non-empty"),
    ("[]", "mapping config must be a JSON object"),
    ('"rules"', "mapping config must be a JSON object"),
    ('{"user_rules":{}}', "user_rules must be a JSON array"),
    ('{"vo_rules":null}', "vo_rules must be a JSON array"),
    ('{"user_rules":[{"pattern":"a","tenant":"t"},5]}',
     "user_rules[1]: rule must be a JSON object"),
    ('{"vo_rules":[["v","t"]]}', "vo_rules[0]: rule must be a JSON object"),
    ('{"user_rules":[{"pattern":"a","tenant":"t"},{"pattern":"(","tenant":"t"}]}',
     "user_rules[1]: bad pattern '(': missing ), unterminated subpattern at position 0"),
    ('{"user_rules":[{"pattern":5,"tenant":"t"}]}',
     "user_rules[0]: pattern and tenant must be strings, auto_create a boolean"),
    ('{"user_rules":[{"pattern":"a","tenant":"t","autocreate":true}],"vo_rule":[]}',
     "mapping config: unknown key 'vo_rule'"),
    ('{"user_rules":[{"pattern":"a","tenant":"t","autocreate":true}],"vo_rules":[]}',
     "user_rules[0]: unknown key 'autocreate'"),
])
def test_mapping_config_errors_name_the_key_or_rule(text, message):
    with pytest.raises(ConfigError) as info:
        MappingConfig.from_json(text)
    assert str(info.value) == message


# --- principal store ---------------------------------------------------------


def test_json_store_persists_and_reloads(tmp_path):
    path = str(tmp_path / "principals.json")
    store = JsonPrincipalStore(path)
    map_assertion(pheno_config(), store, fresh_assertion(), NOW)
    reloaded = JsonPrincipalStore(path)
    principal = reloaded.get("/DC=es/CN=alice", "pheno")
    assert principal is not None and principal.created_by == "auto"


def test_store_add_returns_existing_on_duplicate():
    store = PrincipalStore()
    first = store.add(Principal("u", "t"))
    second = store.add(Principal("u", "t", created_by="auto"))
    assert second is first
    assert len(store.all()) == 1


# --- tokens ------------------------------------------------------------------

KEY = b"unit-test-signing-key"


def test_token_roundtrip():
    token = issue_token(KEY, "/CN=alice", "pheno", 3600, now=NOW)
    verified, reason = verify_token(KEY, token.encode(), now=NOW)
    assert reason is None
    assert (verified.subject, verified.tenant) == ("/CN=alice", "pheno")


def test_token_expiry():
    token = issue_token(KEY, "s", "t", 3600, now=NOW)
    _, reason = verify_token(KEY, token.encode(), now=NOW + 3601)
    assert reason == "expired"
    _, reason = verify_token(KEY, token.encode(), now=NOW + 3600)
    assert reason == "expired"  # boundary: now >= expires_at


def test_token_wrong_key():
    token = issue_token(KEY, "s", "t", 60, now=NOW)
    _, reason = verify_token(b"other-key", token.encode(), now=NOW)
    assert reason == "signature"


def test_token_malformed():
    assert verify_token(KEY, "garbage", NOW)[1] == "malformed"
    assert verify_token(KEY, "PCT1.x.y.z", NOW)[1] == "malformed"
    assert verify_token(KEY, "WRONG.a.b", NOW)[1] == "malformed"


def test_token_nonpositive_lifetime():
    with pytest.raises(ValueError):
        issue_token(KEY, "s", "t", 0, now=NOW)


@pytest.mark.parametrize("lifetime,now", [(60, float("nan")), (1e308, 1e308)])
def test_token_with_a_non_finite_time_is_refused(lifetime, now):
    with pytest.raises(ValueError):
        issue_token(KEY, "s", "t", lifetime, now=now)


def test_token_verified_at_a_nan_time_is_expired():
    token = issue_token(KEY, "s", "t", 60, now=NOW)
    assert verify_token(KEY, token.encode(), now=float("nan")) == (None, "expired")


@pytest.mark.parametrize("issued_at,expires_at", [(NOW, float("nan")), (NOW, float("inf")),
                                                  (float("nan"), NOW + 60)])
def test_signed_token_with_a_non_finite_time_is_malformed(issued_at, expires_at):
    body = identity_mod._canonical_body("s", "t", issued_at, expires_at)
    token = identity_mod.Token("s", "t", issued_at, expires_at, identity_mod._sign(KEY, body))
    assert verify_token(KEY, token.encode(), now=1e300) == (None, "malformed")
    encoded = signed(dumps_body({"subject": "s", "tenant": "t", "issued_at": issued_at,
                                 "expires_at": expires_at}))  # spelled NaN and Infinity
    assert verify_token(KEY, encoded, now=1e300) == (None, "malformed")


def test_every_single_byte_flip_is_rejected():
    token = issue_token(KEY, "/CN=a", "t", 60, now=NOW).encode()
    raw = bytearray(token.encode("ascii"))
    for i in range(len(raw)):
        for bit in (0x01, 0x20):
            tampered = bytearray(raw)
            tampered[i] ^= bit
            if bytes(tampered) == bytes(raw):
                continue
            text = tampered.decode("ascii", errors="replace")
            verified, reason = verify_token(KEY, text, now=NOW)
            assert verified is None, f"flip at {i} (bit {bit:#x}) accepted"
            assert reason in ("malformed", "signature", "expired")


@settings(max_examples=50, deadline=None)
@given(
    subject=st.text(min_size=1, max_size=30),
    tenant=st.text(min_size=1, max_size=15),
    lifetime=st.floats(min_value=1, max_value=1e6),
)
def test_token_roundtrip_property(subject, tenant, lifetime):
    token = issue_token(KEY, subject, tenant, lifetime, now=NOW)
    verified, reason = verify_token(KEY, token.encode(), now=NOW)
    assert reason is None
    assert verified.subject == subject and verified.tenant == tenant


# Any code point, with surrogates drawn about half the time so that pairs form.
surrogate_rich_text = st.characters(blacklist_categories=()) | st.characters(
    min_codepoint=0xD800, max_codepoint=0xDFFF, blacklist_categories=())


@settings(max_examples=300, deadline=None)
@given(subject=st.text(surrogate_rich_text, max_size=30),
       tenant=st.text(surrogate_rich_text, max_size=15))
def test_token_roundtrip_or_refusal_over_all_text(subject, tenant):
    has_surrogate = any("\ud800" <= c <= "\udfff" for c in subject + tenant)
    # Signed as issue_token signed before it refused surrogates: json.dumps's body.
    encoded = signed(dumps_body({"subject": subject, "tenant": tenant, "issued_at": NOW,
                                 "expires_at": NOW + 60}))
    verified, reason = verify_token(KEY, encoded, now=NOW)
    if not has_surrogate:
        assert reason is None and (verified.subject, verified.tenant) == (subject, tenant)
    elif reason is None:
        # An escaped pair reads as the one character it encodes, whose token is these bytes.
        assert issue_token(KEY, verified.subject, verified.tenant, 60, now=NOW).encode() == encoded
    else:
        assert reason == "malformed"
    try:
        token = issue_token(KEY, subject, tenant, 60, now=NOW)
    except ValueError:
        assert has_surrogate
        return
    assert not has_surrogate
    verified, reason = verify_token(KEY, token.encode(), now=NOW)
    assert reason is None
    assert (verified.subject, verified.tenant) == (subject, tenant)


def test_token_issued_with_integer_times_verifies():
    token = issue_token(b"k", "s", "t", 60, 1000)
    verified, reason = verify_token(b"k", token.encode(), 1030)
    assert reason is None
    assert (verified.issued_at, verified.expires_at) == (1000.0, 1060.0)
    assert verified == token


@pytest.mark.parametrize("subject,tenant,issued_at,expires_at", [
    ("/CN=José Müller", "phéno", 1000, 1060), ("s", "t", 1_700_000_000.25, 1e300),
    ("中文\U0001f600", "t\n\"q\"", -0.0, 7), ("", "", 10**20, 1.5e-7)])
def test_token_and_store_bytes_match_json_dumps(subject, tenant, issued_at, expires_at,
                                                tmp_path):
    body = json.dumps({"subject": subject, "tenant": tenant, "issued_at": issued_at,
                       "expires_at": expires_at}, sort_keys=True, separators=(",", ":"))
    assert identity_mod._canonical_body(subject, tenant, issued_at, expires_at) == \
        body.encode("utf-8")
    principal = Principal(subject, tenant or "t", created_by="auto")
    path = tmp_path / "principals.json"
    JsonPrincipalStore(str(path)).add(principal)
    assert path.read_bytes() == json.dumps(
        principal._asdict(), separators=(",", ":")).encode("utf-8") + b"\n"


def signed(body, key=KEY):
    """The PCT1 envelope of body and its correct signature, whatever the body holds."""
    return "PCT1.%s.%s" % (base64.urlsafe_b64encode(body).decode("ascii"),
                           base64.urlsafe_b64encode(identity_mod._sign(key, body)).decode("ascii"))


def dumps_body(fields, **kwargs):
    return json.dumps(fields, **{"sort_keys": True, "separators": (",", ":"), **kwargs}).encode()


@pytest.mark.parametrize("subject,tenant,field", [
    (5, None, "subject"), ("s", None, "tenant"), (["s"], "t", "subject"), ("s", {"t": 1}, "tenant"),
    (True, "t", "subject"), ("s", 1.5, "tenant")])
def test_a_non_string_subject_or_tenant_is_refused_and_never_verifies(subject, tenant, field,
                                                                      capsys):
    with pytest.raises(ValueError, match=field):
        issue_token(KEY, subject, tenant, 60, now=NOW)
    encoded = signed(dumps_body({"subject": subject, "tenant": tenant, "issued_at": NOW,
                                 "expires_at": NOW + 60}))
    assert verify_token(KEY, encoded, now=NOW) == (None, "malformed")
    code = dispatch(["auth", "token", "verify", "--key", KEY.decode(), "--token", encoded,
                     "--now", repr(NOW)])
    assert code == 1 and capsys.readouterr() == ("", "invalid (malformed)\n")


@pytest.mark.parametrize("subject,tenant,field", [
    ("\ud9ad\udff3", "t", "subject"), ("s", "\ud83d\ude00", "tenant"), ("a\udc80", "t", "subject"),
    ("s", "t\ud800", "tenant"), ("\udc80", "\udc80", "subject")])
def test_a_subject_or_tenant_holding_a_surrogate_is_refused(subject, tenant, field):
    # "\ud9ad\udff3" was signed as two characters and verified as one, "\U0007b7f3".
    with pytest.raises(ValueError, match=f"^token {field} must not contain a surrogate$"):
        issue_token(KEY, subject, tenant, 60, now=NOW)


@pytest.mark.parametrize("subject,tenant", [
    ("\udc80", "t"), ("s", "a\ud800"), ("\udff3\ud9ad", "t"), ("\ud9ad", "\udff3")])
def test_a_signed_token_holding_a_surrogate_is_malformed(subject, tenant, capsys):
    encoded = signed(dumps_body({"subject": subject, "tenant": tenant, "issued_at": NOW,
                                 "expires_at": NOW + 60}))
    assert verify_token(KEY, encoded, now=NOW) == (None, "malformed")
    code = dispatch(["auth", "token", "verify", "--key", KEY.decode(), "--token", encoded,
                     "--now", repr(NOW)])
    assert code == 1 and capsys.readouterr() == ("", "invalid (malformed)\n")


def test_cli_subject_from_undecodable_argv_bytes_is_one_error_line():
    # Python decodes argv with surrogateescape, so the byte 0xff arrives as "\udcff".
    src = os.path.dirname(os.path.dirname(phenocloud.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "phenocloud.cli", "auth", "token", "issue", "--key", "k",
         "--subject", b"\xff", "--tenant", "t", "--now", "0"],
        capture_output=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, b"", b"error: token subject must not contain a surrogate\n")


CANONICAL = {"subject": "s", "tenant": "t", "issued_at": 1000.0, "expires_at": 1060.0}


def with_padding_bits(encoded, part):
    """encoded with the unused low bits of part's last base64 digit set: it decodes to
    the same bytes."""
    parts = encoded.split(".")
    digits = parts[part].rstrip("=")
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
    unused = {2: 0b1111, 3: 0b11}[len(digits) % 4]
    last = alphabet[alphabet.index(digits[-1]) | unused]
    parts[part] = digits[:-1] + last + parts[part][len(digits):]
    assert base64.urlsafe_b64decode(parts[part]) == base64.urlsafe_b64decode(
        encoded.split(".")[part])
    return ".".join(parts)


@pytest.mark.parametrize("encoded", [
    signed(dumps_body(CANONICAL, sort_keys=False)),
    signed(dumps_body(CANONICAL, separators=(", ", ": "))),
    signed(dumps_body({**CANONICAL, "issued_at": 1000})),
    signed(dumps_body(CANONICAL).replace(b'"s"', b'"\\u0073"')),
    signed(dumps_body({**CANONICAL, "subject": "caf\xe9"}, ensure_ascii=False)),
    signed(dumps_body(CANONICAL) + b"\n"),
    signed(dumps_body(CANONICAL).decode().encode("utf-16")),
    signed(dumps_body({**CANONICAL, "extra": 1})),
    signed(dumps_body({**CANONICAL, "issued_at": "1000.0"})),
    signed(dumps_body({**CANONICAL, "expires_at": True})),
    signed(dumps_body(CANONICAL).replace(b'"issued_at":1000.0',
                                         b'"issued_at":1000.0,"issued_at":1000.0')),
    with_padding_bits(signed(dumps_body({**CANONICAL, "tenant": "tt"})), 1),
    with_padding_bits(signed(dumps_body(CANONICAL)), 2),
], ids=["reordered-keys", "spaces", "integer-time", "escaped-ascii", "raw-utf8", "trailing-newline",
        "utf16", "extra-key", "string-time", "boolean-time", "duplicate-key",
        "body-padding-bits", "signature-padding-bits"])
def test_a_correctly_signed_non_canonical_token_is_malformed(encoded):
    assert verify_token(KEY, encoded, now=1030.0) == (None, "malformed")


def test_the_canonical_form_of_the_tokens_above_verifies():
    encoded = signed(dumps_body({**CANONICAL, "tenant": "tt"}))
    assert all(part.endswith("=") for part in encoded.split(".")[1:])  # room for padding bits
    assert encoded == issue_token(KEY, "s", "tt", 60, 1000).encode()
    assert verify_token(KEY, encoded, now=1030.0)[1] is None


any_text = st.text(st.characters(blacklist_categories=()), max_size=20)
any_time = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**30, 10**30)


@settings(max_examples=300, deadline=None)
@given(subject=any_text, tenant=any_text, issued_at=any_time, expires_at=any_time)
def test_canonical_body_is_sorted_compact_ascii_json(subject, tenant, issued_at, expires_at):
    assert identity_mod._canonical_body(subject, tenant, issued_at, expires_at) == dumps_body(
        {"subject": subject, "tenant": tenant, "issued_at": issued_at, "expires_at": expires_at})


def reference_verify(key, encoded, now):
    """verify_token as a JSON encoder spells it: the canonical body is json.dumps's, and a
    subject or tenant that is not a string, or holds a surrogate, is malformed."""
    parts = encoded.split(".")
    if len(parts) != 3 or parts[0] != "PCT1":
        return None, "malformed"
    try:
        body = base64.urlsafe_b64decode(parts[1].encode("ascii"))
        signature = base64.urlsafe_b64decode(parts[2].encode("ascii"))
        fields = json.loads(body)
        token = Token(fields["subject"], fields["tenant"], float(fields["issued_at"]),
                      float(fields["expires_at"]), signature)
    except (ValueError, KeyError, TypeError):
        return None, "malformed"
    if not (isinstance(token.subject, str) and isinstance(token.tenant, str)):
        return None, "malformed"
    if re.search("[\ud800-\udfff]", token.subject + token.tenant):
        return None, "malformed"
    canonical = dumps_body(
        {"subject": token.subject, "tenant": token.tenant, "issued_at": token.issued_at,
         "expires_at": token.expires_at})
    if "PCT1.%s.%s" % (base64.urlsafe_b64encode(canonical).decode("ascii"),
                       base64.urlsafe_b64encode(signature).decode("ascii")) != encoded:
        return None, "malformed"
    if not (math.isfinite(token.issued_at) and math.isfinite(token.expires_at)):
        return None, "malformed"
    if not hmac.compare_digest(signature, hmac.new(key, body, hashlib.sha256).digest()):
        return None, "signature"
    if not now < token.expires_at:
        return None, "expired"
    return token, None


B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_="


@pytest.mark.parametrize("subject,tenant,lifetime,now", [
    ("/DC=org/CN=user123456", "tenant7", 3600, NOW), ("caf\xe9 \"q\"\n", "t\U0001f600", 0.5, 1e-7),
    ("", "", 1e300, -1.0)])
def test_every_flip_and_one_character_tamper_verifies_as_the_json_reference(subject, tenant,
                                                                            lifetime, now):
    encoded = issue_token(KEY, subject, tenant, lifetime, now).encode()
    assert encoded == signed(dumps_body({"subject": subject, "tenant": tenant, "issued_at": now,
                                         "expires_at": now + lifetime}))
    corpus = {encoded}
    raw = encoded.encode("ascii")
    for i in range(len(raw)):
        corpus.update(bytes(raw[:i] + bytes([raw[i] ^ (1 << bit)]) + raw[i + 1:]).decode("latin-1")
                      for bit in range(8))
        corpus.update(encoded[:i] + ch + encoded[i + 1:] for ch in B64)
    for text in sorted(corpus):
        for at in (now, now + lifetime):
            assert verify_token(KEY, text, at) == reference_verify(KEY, text, at), text


# --- principal store journal -------------------------------------------------


def user_config():
    return MappingConfig(user_rules=[UserRule(r".*", "t", True)])


def write_legacy_store(path, principals):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([p._asdict() for p in principals], fh, indent=2)


def store_lines(path):
    """The records of a store: its legacy array's, then each journal line's."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.endswith("\n")
    records, end = [], 0
    if text.lstrip().startswith("["):
        records, end = json.JSONDecoder().raw_decode(text, len(text) - len(text.lstrip()))
        end = len(text) - len(text[end:].lstrip())
    return records + [json.loads(line) for line in text[end:].splitlines()]


WRITER = """
import sys
from phenocloud.identity import JsonPrincipalStore, MappingConfig, UserRule, map_username
store = JsonPrincipalStore(sys.argv[1])
config = MappingConfig(user_rules=[UserRule(r".*", "t", True)])
print("ready", flush=True)
sys.stdin.readline()
created = 0
for i in range(200):
    assert map_username(config, store, "%s%03d" % (sys.argv[2], i)).created
    created += map_username(config, store, "shared%03d" % i).created
print(created)
"""


@pytest.mark.parametrize("seed_format", ["legacy", "journal"])
def test_concurrent_processes_keep_each_others_principals(tmp_path, seed_format):
    path = str(tmp_path / "principals.json")
    seeded = Principal("seed", "t")
    if seed_format == "legacy":
        write_legacy_store(path, [seeded])
    else:
        JsonPrincipalStore(path).add(seeded)
    with open(path, "rb") as fh:
        seed_bytes = fh.read()
    src = os.path.dirname(os.path.dirname(phenocloud.__file__))
    with contextlib.ExitStack() as stack:
        procs = [
            stack.enter_context(subprocess.Popen(
                [sys.executable, "-c", WRITER, path, prefix],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                start_new_session=True,
                env={**os.environ, "PYTHONPATH": src},
            ))
            for prefix in ("a", "b")
        ]
        try:
            for proc in procs:  # both have loaded the store before either writes
                assert proc.stdout.readline() == "ready\n"
            for proc in procs:
                proc.stdin.write("go\n")
                proc.stdin.close()
            shared_created = 0
            for proc in procs:
                assert proc.wait(timeout=60) == 0  # its output fits in the pipe
                shared_created += int(proc.stdout.read())
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
    names = {p.username for p in JsonPrincipalStore(path).all()}
    users = {"%s%03d" % (prefix, i) for prefix in ("a", "b", "shared") for i in range(200)}
    assert names == {"seed"} | users
    assert len(store_lines(path)) == 601  # each principal once
    assert shared_created == 200  # and exactly one process created it
    with open(path, "rb") as fh:
        assert fh.read().startswith(seed_bytes)  # nothing rewrote the seed


def test_torn_last_line_is_ignored_then_truncated(tmp_path):
    path = tmp_path / "principals.json"
    complete = (
        '{"username":"a","tenant":"t","enabled":true,"created_by":"manual"}\n'
        '{"username":"b","tenant":"t","enabled":false,"created_by":"auto"}\n'
    )
    path.write_text(complete + '{"username":"c","ten')
    store = JsonPrincipalStore(str(path))
    assert sorted(p.username for p in store.all()) == ["a", "b"]
    assert store.get("b", "t").enabled is False
    store.add(Principal("d", "t", created_by="auto"))
    assert path.read_text() == (
        complete + '{"username":"d","tenant":"t","enabled":true,"created_by":"auto"}\n'
    )


def test_legacy_array_store_loads_and_is_continued_in_place(tmp_path):
    path = str(tmp_path / "principals.json")
    old = [Principal("a", "t"), Principal("b", "u", enabled=False, created_by="auto")]
    write_legacy_store(path, old)
    with open(path, "rb") as fh:
        original = fh.read()
    inode = os.stat(path).st_ino
    store = JsonPrincipalStore(path)
    assert sorted(store.all(), key=lambda p: p.username) == old
    new = Principal("c", "t", created_by="auto")
    assert store.add(new) is new
    assert [line["username"] for line in store_lines(path)] == ["a", "b", "c"]
    assert os.stat(path).st_ino == inode
    with open(path, "rb") as fh:
        assert fh.read().startswith(original)
    reloaded = JsonPrincipalStore(path)
    assert sorted(reloaded.all(), key=lambda p: p.username) == old + [new]
    assert reloaded.add(Principal("d", "t")) is not None
    assert len(store_lines(path)) == 4


LEGACY = [{"username": "a", "tenant": "t", "enabled": True, "created_by": "manual"},
          {"username": "b", "tenant": "t", "enabled": False, "created_by": "auto"}]


@pytest.mark.parametrize("text", [
    json.dumps(LEGACY, indent=2) + "\n",
    json.dumps(LEGACY, sort_keys=True),
], ids=["pretty-with-newline", "compact-without-newline"])
def test_legacy_store_takes_adds_that_a_reload_sees(tmp_path, text):
    path = tmp_path / "principals.json"
    path.write_text(text)
    store = JsonPrincipalStore(str(path))
    assert sorted(p.username for p in store.all()) == ["a", "b"]
    store.add(Principal("c", "t", created_by="auto"))
    store.add(Principal("d", "t"))
    assert path.read_text().startswith(text)
    reloaded = JsonPrincipalStore(str(path))
    assert sorted(p.username for p in reloaded.all()) == ["a", "b", "c", "d"]
    assert reloaded.get("b", "t").enabled is False
    assert [r["username"] for r in store_lines(path)] == ["a", "b", "c", "d"]


def test_torn_first_journal_line_after_an_array_is_truncated(tmp_path):
    path = tmp_path / "principals.json"
    array = json.dumps(LEGACY) + "\n"
    path.write_text(array + '{"username":"c","ten')
    store = JsonPrincipalStore(str(path))
    assert sorted(p.username for p in store.all()) == ["a", "b"]
    store.add(Principal("d", "t", created_by="auto"))
    assert path.read_text() == (
        array + '{"username":"d","tenant":"t","enabled":true,"created_by":"auto"}\n'
    )


def test_a_key_already_stored_is_returned_and_a_torn_tail_kept(tmp_path):
    path = tmp_path / "principals.json"
    stale, first = JsonPrincipalStore(str(path)), JsonPrincipalStore(str(path))
    alice = Principal("alice", "t", created_by="auto")
    assert first.add(alice) is alice
    torn = path.read_bytes() + b'{"username":"bob","ten'
    path.write_bytes(torn)
    assert stale.add(Principal("alice", "t")) == alice  # read under the lock
    assert first.add(Principal("alice", "t")) is alice  # known before the file is opened
    assert path.read_bytes() == torn
    stale.add(Principal("carol", "t"))
    assert path.read_bytes() == torn[:torn.rindex(b"\n") + 1] + (
        b'{"username":"carol","tenant":"t","enabled":true,"created_by":"manual"}\n')


def test_store_bytes_after_adds_from_two_stores_and_a_torn_tail(tmp_path):
    path = tmp_path / "principals.json"
    path.write_text(json.dumps(LEGACY[:1], indent=1) + "\n\n")
    a, b = JsonPrincipalStore(str(path)), JsonPrincipalStore(str(path))
    a.add(Principal("caf\xe9", "t\U0001f600", created_by="auto"))
    b.add(Principal("x\"y", "t", enabled=False))
    with open(path, "ab") as fh:
        fh.write(b'{"user')
    assert a.add(Principal("x\"y", "t")).enabled is False
    assert a.add(Principal("a", "t", created_by="auto")).created_by == "manual"
    b.add(Principal("z", "u\n"))
    assert path.read_bytes() == (
        b'[\n {\n  "username": "a",\n  "tenant": "t",\n  "enabled": true,\n'
        b'  "created_by": "manual"\n }\n]\n\n'
        b'{"username":"caf\\u00e9","tenant":"t\\ud83d\\ude00","enabled":true,"created_by":"auto"}\n'
        b'{"username":"x\\"y","tenant":"t","enabled":false,"created_by":"manual"}\n'
        b'{"username":"z","tenant":"u\\n","enabled":true,"created_by":"manual"}\n')


def test_created_only_when_this_call_wrote_the_principal(tmp_path):
    path = str(tmp_path / "principals.json")
    first, stale = JsonPrincipalStore(path), JsonPrincipalStore(path)
    assert map_username(user_config(), first, "alice").created is True
    outcome = map_username(user_config(), stale, "alice")
    assert outcome == Decision(tenant="t", username="alice", created=False)
    assert [line["username"] for line in store_lines(path)] == ["alice"]


def test_new_store_is_readable_by_its_owner_only(tmp_path):
    path = tmp_path / "principals.json"
    JsonPrincipalStore(str(path)).add(Principal("u", "t"))
    assert os.stat(path).st_mode & 0o777 == 0o600


@pytest.mark.parametrize("text,where", [
    ('[{"username": "x"}]', "record 0: missing key 'tenant'"),
    ('{"username":"a","tenant":"t","enabled":true,"created_by":"manual"}\nnot json\n', "line 2"),
    ('{"username":"a","tenant":"t"}\n{"username":"b"}\n', "line 2: missing key 'tenant'"),
    ('[{"username":"a","tenant":"t","x":1}]', "record 0: unknown key 'x'"),
    ('{"username":"a","tenant":"t"}\n{"tenant":"t","username":"b","admin":true}\n',
     "line 2: unknown key 'admin'"),
    ('[{"username":"a","tenant":"t","enabled":"false"}]', "record 0"),
    ('{"username":"a","tenant":"t"}\n{"username":"b","tenant":"t","enabled":"false"}\n',
     "line 2"),
    ('{"username":"a","tenant":"t","enabled":0}\n', "line 1"),
    ('{"username":5,"tenant":"t"}\n', "line 1"),
    ('{"username":"a","tenant":["t"]}\n', "line 1"),
    ('{"username":"a","tenant":"t","created_by":null}\n', "line 1"),
    ('[\n{"username":"a","tenant":"t"}\n]\n{"username":"b","tenant":"t"}\nnot json\n',
     "line 5"),  # counted as in the file, array lines included
    ('[{"username":"caf\xe9","tenant":"t"}]\n', "byte 0xe9"),
    ('5\n', "line 1 is not a JSON object"),
    ('{"username":"a","tenant":"t"}\n"x"\n', "line 2 is not a JSON object"),
    ('{"username":"a","tenant":"t"}\nnull\n', "line 2 is not a JSON object"),
    ('{"username":"a","tenant":"t"}\n[1]\n', "line 2 is not a JSON object"),
    ('[{"username":"a","tenant":"t"},5]', "record 1 is not a JSON object"),
    ('["x"]', "record 0 is not a JSON object"),
    ('[null]', "record 0 is not a JSON object"),
    ('[[1]]', "record 0 is not a JSON object"),
], ids=["legacy-missing-key", "journal-not-json", "journal-missing-key", "legacy-unknown-key",
        "journal-unknown-key", "legacy-enabled-string",
        "journal-enabled-string", "journal-enabled-number", "journal-username-number",
        "journal-tenant-list", "journal-created-by-null", "journal-after-three-line-array",
        "legacy-not-utf8", "journal-number", "journal-string", "journal-null",
        "journal-array", "legacy-number", "legacy-string", "legacy-null", "legacy-array"])
def test_malformed_store_raises_config_error_naming_where(tmp_path, text, where):
    path = tmp_path / "principals.json"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ConfigError) as info:
        JsonPrincipalStore(str(path))
    assert str(path) in str(info.value) and where in str(info.value)


# --- records ---------------------------------------------------------------


def test_records_keep_their_fields_defaults_repr_and_immutability(tmp_path):
    path = tmp_path / "principals.json"
    JsonPrincipalStore(str(path)).add(Principal("u", "t", created_by="auto"))
    assert path.read_bytes() == (
        b'{"username":"u","tenant":"t","enabled":true,"created_by":"auto"}\n')
    inf = float("inf")
    for by_position, by_keyword, fields in [
        (Assertion("d"), Assertion(subject_dn="d"),
         dict(subject_dn="d", vo=None, not_before=0.0, not_after=inf)),
        (VoRule("v", "t"), VoRule(vo="v", tenant="t"), dict(vo="v", tenant="t", auto_create=False)),
        (UserRule("p", "t", True), UserRule(tenant="t", pattern="p", auto_create=True),
         dict(pattern="p", tenant="t", auto_create=True)),
        (Principal("u", "t"), Principal(tenant="t", username="u"),
         dict(username="u", tenant="t", enabled=True, created_by="manual")),
        (Decision("t", "u"), Decision(username="u", tenant="t"),
         dict(tenant="t", username="u", created=False)),
        (Denial("disabled"), Denial(reason="disabled"), dict(reason="disabled", detail="")),
        (Token("s", "t", 1.0, 2.0, b"x"),
         Token(signature=b"x", expires_at=2.0, issued_at=1.0, tenant="t", subject="s"),
         dict(subject="s", tenant="t", issued_at=1.0, expires_at=2.0, signature=b"x")),
    ]:
        assert by_position == by_keyword
        assert {name: getattr(by_position, name) for name in fields} == fields
        with pytest.raises(AttributeError):
            setattr(by_position, next(iter(fields)), "changed")
    assert repr(Decision("t", "u")) == "Decision(tenant='t', username='u', created=False)"
    for bad in [dict(subject_dn=""), dict(subject_dn="d", not_before=float("nan")),
                dict(subject_dn="d", not_before=2.0, not_after=1.0)]:
        with pytest.raises(ValueError):
            Assertion(**bad)
