import contextlib
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import phenocloud
from phenocloud import identity as identity_mod
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
