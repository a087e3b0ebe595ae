import gc
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_catalog
from phenocloud.catalog import (
    OVERRIDABLE_FIELDS,
    effective_version,
    parse_catalog,
    serialize_catalog,
)
from phenocloud import catalog as catalog_mod, resolver
from phenocloud.errors import CatalogError, CycleError, DanglingDependencyError, NotFoundError
from phenocloud.resolver import check_cycles, resolve


def transitive_closure(deps: dict, roots) -> set:
    """Independent reachability computation used as an oracle."""
    seen = set()
    frontier = list(roots)
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(deps[node])
    return seen


def order_is_valid(order, deps: dict) -> bool:
    """The dependency predicate a plan must satisfy."""
    position = {name: i for i, name in enumerate(order)}
    return all(
        position[d] < position[name] for name in order for d in deps[name]
    )


def brute_force_valid_orders(deps: dict, roots):
    """All orderings of the closure that satisfy the dependency predicate."""
    closure = sorted(transitive_closure(deps, roots))
    return [
        perm for perm in itertools.permutations(closure) if order_is_valid(perm, deps)
    ]


def test_paper_catalog_plan(feyn_catalog):
    plan = resolve(feyn_catalog, {"FormCalc": "7.4"})
    assert plan.names() == ["FeynHiggs", "FormCalc"]


def test_empty_request(feyn_catalog):
    assert resolve(feyn_catalog, {}).steps == ()


def test_two_cycle_reported():
    catalog = make_catalog({"A": ["B"], "B": ["A"]})
    with pytest.raises(CycleError) as err:
        resolve(catalog, {"A": "1.0"})
    cycle = err.value.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"A", "B"}
    assert len(cycle) == 3  # A -> B -> A


def test_diamond_order_matches_brute_force_oracle():
    deps = {"D": ["B", "C"], "B": ["A"], "C": ["A"], "A": []}
    catalog = make_catalog(deps)
    valid = brute_force_valid_orders(deps, ["D"])
    # every valid order has A first and D last
    assert all(perm[0] == "A" and perm[-1] == "D" for perm in valid)
    plan = resolve(catalog, {"D": "1.0"})
    assert len(plan.steps) == 4
    assert tuple(plan.names()) in valid


def test_unknown_app_and_version(feyn_catalog):
    with pytest.raises(NotFoundError):
        resolve(feyn_catalog, {"Nope": "1"})
    with pytest.raises(NotFoundError):
        resolve(feyn_catalog, {"FormCalc": "0.0"})


def test_dangling_dependency(formcalc_fragment_text):
    from phenocloud.catalog import parse_catalog

    catalog = parse_catalog(formcalc_fragment_text)
    with pytest.raises(DanglingDependencyError, match="FeynHiggs"):
        resolve(catalog, {"FormCalc": "7.4"})


def test_request_order_does_not_matter():
    deps = {"A": [], "B": ["A"], "C": ["A"], "D": []}
    catalog = make_catalog(deps)
    first = resolve(catalog, {"B": "1.0", "C": "1.0", "D": "1.0"})
    second = resolve(catalog, {"D": "1.0", "C": "1.0", "B": "1.0"})
    assert first.names() == second.names()


def test_dependency_gets_greatest_version():
    catalog = make_catalog({"A": [], "B": ["A"]}, versions=("1.0", "1.2", "1.10"))
    plan = resolve(catalog, {"B": "1.0"})
    by_name = {s.name: s for s in plan.steps}
    # lexicographically greatest key, not numerically greatest
    assert by_name["A"].version_key == "1.2"
    assert by_name["B"].version_key == "1.0"


def test_requested_version_wins_over_default_rule():
    catalog = make_catalog({"A": [], "B": ["A"]}, versions=("1.0", "2.0"))
    plan = resolve(catalog, {"B": "2.0", "A": "1.0"})
    by_name = {s.name: s for s in plan.steps}
    assert by_name["A"].version_key == "1.0"


def test_check_cycles_acyclic(feyn_catalog):
    assert check_cycles(feyn_catalog) == []


def test_check_cycles_triangle():
    catalog = make_catalog({"A": ["B"], "B": ["C"], "C": ["A"]})
    cycles = check_cycles(catalog)
    assert len(cycles) == 1
    assert len(cycles[0]) == 4


def test_check_cycles_two_disjoint_two_cycles():
    deps = {"A": ["B"], "B": ["A"], "C": ["D"], "D": ["C"]}
    catalog = make_catalog(deps)
    cycles = check_cycles(catalog)
    assert len(cycles) == 2
    # cross-check against a brute-force enumeration of closed simple paths
    assert sorted(tuple(c) for c in cycles) == [("A", "B", "A"), ("C", "D", "C")]


def test_check_cycles_follows_version_overrides():
    catalog = parse_catalog(json.dumps({
        "A": {
            "installer": "install.sh",
            "versions": {
                "1.0": {"version_name": "1.0"},
                "2.0": {"version_name": "2.0", "dependencies": ["B"]},
            },
        },
        "B": {
            "installer": "install.sh",
            "dependencies": ["A"],
            "versions": {"1.0": {"version_name": "1.0"}},
        },
    }))
    with pytest.raises(CycleError):
        resolve(catalog, {"A": "2.0"})
    assert check_cycles(catalog) == [["A", "B", "A"]]


def test_dependencies_override_is_found_among_field_names_only():
    # A and C hold the string "dependencies" as a field value before their
    # own dependencies override, D overrides its dependencies to none, and
    # E holds that string as a value but keeps its application-level list.
    catalog = parse_catalog(json.dumps({
        "A": {"installer": "i.sh", "dependencies": ["B"],
              "versions": {"1.0": {"file": "dependencies", "dependencies": ["C"]}}},
        "B": {"installer": "i.sh", "versions": {"1.0": {}}},
        "C": {"installer": "i.sh", "dependencies": ["B"],
              "versions": {"1.0": {"app_name": "dependencies", "dependencies": ["D"]}}},
        "D": {"installer": "i.sh", "dependencies": ["B"],
              "versions": {"1.0": {"dependencies": []}}},
        "E": {"installer": "i.sh", "dependencies": ["B"],
              "versions": {"1.0": {"file": "dependencies"}}},
    }))
    plan = resolve(catalog, {"A": "1.0", "E": "1.0"})
    assert [(s.name, s.dependencies) for s in plan.steps] == [
        ("B", ()), ("D", ()), ("C", ("D",)), ("A", ("C",)), ("E", ("B",)),
    ]
    assert plan.steps[3].effective["file"] == plan.steps[4].effective["file"] == "dependencies"
    assert plan.steps[2].effective["app_name"] == "dependencies"


def random_dag(rng, n_apps):
    """Random DAG over A..F style names: edges only from later to earlier."""
    names = [chr(ord("A") + i) for i in range(n_apps)]
    deps = {name: [] for name in names}
    for i, name in enumerate(names):
        for j in range(i):
            if rng.random() < 0.4:
                deps[name].append(names[j])
    return deps


def test_random_dags_pass_dependency_oracle():
    rng = random.Random(20120101)
    for _ in range(300):
        deps = random_dag(rng, rng.randint(1, 6))
        catalog = make_catalog(deps)
        roots = {
            name: "1.0" for name in deps if rng.random() < 0.6
        } or {next(iter(deps)): "1.0"}
        plan = resolve(catalog, roots)
        names = plan.names()
        assert len(names) == len(set(names))
        assert set(names) == transitive_closure(deps, roots)
        assert order_is_valid(names, deps)


def test_injected_cycles_are_rejected():
    rng = random.Random(424242)
    for _ in range(200):
        deps = random_dag(rng, rng.randint(2, 6))
        names = sorted(deps)
        # close a cycle by pointing an early node at a later one
        lo, hi = sorted(rng.sample(range(len(names)), 2))
        deps[names[hi]].append(names[lo])
        deps[names[lo]].append(names[hi])
        catalog = make_catalog(deps)
        with pytest.raises(CycleError) as err:
            resolve(catalog, {name: "1.0" for name in names})
        cycle = err.value.cycle
        assert cycle[0] == cycle[-1]
        for a, b in zip(cycle, cycle[1:]):
            assert b in deps[a]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_property_random_dag_plans_are_valid(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    names = [chr(ord("A") + i) for i in range(n)]
    deps = {}
    for i, name in enumerate(names):
        deps[name] = data.draw(
            st.lists(st.sampled_from(names[:i]) if i else st.nothing(), unique=True)
        )
    request = {
        name: "1.0"
        for name in data.draw(
            st.lists(st.sampled_from(names), unique=True, min_size=1)
        )
    }
    plan = resolve(make_catalog(deps), request)
    assert order_is_valid(plan.names(), deps)
    assert set(plan.names()) == transitive_closure(deps, request)


# --- deep chains ---------------------------------------------------------------

CHAIN_LENGTH = 10_000


def chain_deps(cyclic: bool) -> dict:
    """c00000 -> c00001 -> ... -> c09999, closed back to c00000 when cyclic."""
    names = ["c%05d" % i for i in range(CHAIN_LENGTH)]
    deps = {name: [nxt] for name, nxt in zip(names, names[1:])}
    deps[names[-1]] = [names[0]] if cyclic else []
    return deps


def test_check_cycles_deep_acyclic_chain():
    assert check_cycles(make_catalog(chain_deps(cyclic=False))) == []


def test_check_cycles_deep_cyclic_chain():
    deps = chain_deps(cyclic=True)
    names = sorted(deps)
    assert check_cycles(make_catalog(deps)) == [names + [names[0]]]


def test_resolve_deep_acyclic_chain():
    deps = chain_deps(cyclic=False)
    plan = resolve(make_catalog(deps), {"c00000": "1.0"})
    assert plan.names() == sorted(deps, reverse=True)


def test_resolve_deep_cyclic_chain_raises_cycle_error():
    deps = chain_deps(cyclic=True)
    with pytest.raises(CycleError) as err:
        resolve(make_catalog(deps), {"c00000": "1.0"})
    cycle = err.value.cycle
    assert cycle[0] == cycle[-1] == "c00000"  # anchored at its smallest node
    assert len(cycle) == CHAIN_LENGTH + 1
    for a, b in zip(cycle, cycle[1:]):
        assert b in deps[a]


# --- what a plan builds, and the collector -------------------------------------


@pytest.fixture
def effective_version_calls(monkeypatch):
    """Every call resolve makes to effective_version, with the collector's
    state during the call."""
    calls = []

    def counted(catalog, name, version_key):
        calls.append((name, version_key, gc.isenabled()))
        return effective_version(catalog, name, version_key)

    monkeypatch.setattr(resolver, "effective_version", counted)
    return calls


def test_cyclic_request_builds_no_step_record(effective_version_calls):
    deps = chain_deps(cyclic=True)
    with pytest.raises(CycleError):
        resolve(make_catalog(deps), {"c00000": "1.0"})
    assert effective_version_calls == []


def test_acyclic_request_builds_one_record_per_step(effective_version_calls):
    deps = {"D": ["B", "C"], "B": ["A"], "C": ["A"], "A": [], "X": ["A"]}
    plan = resolve(make_catalog(deps), {"D": "1.0"})
    assert plan.names() == ["A", "B", "C", "D"]
    assert effective_version_calls == [(name, "1.0", False) for name in plan.names()]


_GC_CATALOGS = {
    "acyclic": make_catalog({"A": [], "B": ["A"]}),
    "cyclic": make_catalog({"A": ["B"], "B": ["A"]}),
    "dangling": make_catalog({"A": ["Z"]}),
}


@pytest.mark.parametrize("call,error", [
    pytest.param(lambda: parse_catalog('{"A": {"installer": "i.sh", "versions": {"1": {}}}}'),
                 None, id="parse_catalog-returns"),
    pytest.param(lambda: parse_catalog('{"A": {"versions": {"1": {}}}}'),
                 CatalogError, id="parse_catalog-CatalogError"),
    pytest.param(lambda: resolve(_GC_CATALOGS["acyclic"], {"B": "1.0"}),
                 None, id="resolve-returns"),
    pytest.param(lambda: resolve(_GC_CATALOGS["cyclic"], {"A": "1.0"}),
                 CycleError, id="resolve-CycleError"),
    pytest.param(lambda: resolve(_GC_CATALOGS["acyclic"], {"B": "9.9"}),
                 NotFoundError, id="resolve-NotFoundError"),
    pytest.param(lambda: resolve(_GC_CATALOGS["dangling"], {"A": "1.0"}),
                 DanglingDependencyError, id="resolve-DanglingDependencyError"),
])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_collector_state_is_kept_on_every_exit(call, error, enabled):
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_parse_catalog_runs_with_the_collector_paused(monkeypatch):
    states = []

    def dependencies(*args):
        states.append(gc.isenabled())
        return dependencies_orig(*args)

    # Valid strings are checked inline; a dependencies list still goes through the helper.
    dependencies_orig = catalog_mod._dependencies
    monkeypatch.setattr(catalog_mod, "_dependencies", dependencies)
    assert gc.isenabled()
    parse_catalog('{"A": {"installer": "i.sh", "dependencies": [], "versions": {"1": {}}}}')
    assert states == [False] and gc.isenabled()


# --- check_cycles against the anchored-DFS enumerator --------------------------


def reference_check_cycles(catalog) -> list:
    """The original enumerator: every elementary cycle as a closed path,
    anchored at its smallest node, found by a DFS over sorted neighbours
    that never descends below the anchor.  Exponential, small graphs only.
    An application's edges are its dependencies under any of its versions,
    read from the catalog's serialized document."""
    edges = {}
    for name, body in json.loads(serialize_catalog(catalog)).items():
        union = set(body.get("dependencies", ()))
        for version in body["versions"].values():
            union.update(version.get("dependencies", ()))
        edges[name] = sorted(union)
    cycles = []
    for anchor in sorted(edges):
        path = [anchor]
        on_path = {anchor}

        def dfs(node):
            for nxt in edges.get(node, ()):
                if nxt == anchor:
                    cycles.append(path + [anchor])
                elif nxt > anchor and nxt not in on_path:
                    path.append(nxt)
                    on_path.add(nxt)
                    dfs(nxt)
                    on_path.discard(nxt)
                    path.pop()

        dfs(anchor)
    return cycles


@st.composite
def digraphs(draw, max_nodes=10, dangling=()):
    """Up to `max_nodes` nodes in a random insertion order; each depends on
    up to 3 nodes or `dangling` names, itself and repeats allowed."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    names = draw(st.permutations([chr(ord("A") + i) for i in range(n)]))
    targets = st.sampled_from(names + list(dangling))
    return {name: draw(st.lists(targets, max_size=3)) for name in names}


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_property_check_cycles_equals_reference_enumerator(deps):
    catalog = make_catalog(deps)
    assert check_cycles(catalog) == reference_check_cycles(catalog)


# Names outside the catalog that sort before, among and after the apps'.
DANGLING = ("0", "Ab", "Zz")


@settings(max_examples=300, deadline=None)
@given(digraphs(max_nodes=12, dangling=DANGLING))
def test_property_check_cycles_ignores_dangling_dependencies(deps):
    catalog = make_catalog(deps)
    assert check_cycles(catalog) == reference_check_cycles(catalog)


def test_check_cycles_reports_only_planted_cycles_when_trim_is_partial():
    # A 10k acyclic chain whose middle hangs a 3-ring that leads back into
    # the chain, a self-loop, and p on the path from one 2-ring to another:
    # the trim peels the chain above the ring and leaves the rest to Tarjan.
    deps = chain_deps(cyclic=False)
    deps["c05000"].append("m0")
    deps.update({"m0": ["m1"], "m1": ["m2"], "m2": ["m0", "c07000"],
                 "s0": ["s0", "c08000"],
                 "a0": ["a1"], "a1": ["a0", "p"], "p": ["b0"], "b0": ["b1"], "b1": ["b0"]})
    assert check_cycles(make_catalog(deps)) == [
        ["a0", "a1", "a0"], ["b0", "b1", "b0"], ["m0", "m1", "m2", "m0"], ["s0", "s0"],
    ]


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_property_resolve_cycle_starts_at_smallest_cyclic_node(deps):
    catalog = make_catalog(deps)
    cycles = check_cycles(catalog)
    try:
        resolve(catalog, dict.fromkeys(deps, "1.0"))
    except CycleError as err:
        assert cycles and err.cycle[0] == cycles[0][0]
    else:
        assert cycles == []


@settings(max_examples=300, deadline=None)
@given(digraphs(), st.data())
def test_property_reported_cycle_is_a_closed_path_of_edges(deps, data):
    request = {
        name: "1.0"
        for name in data.draw(st.lists(st.sampled_from(sorted(deps)), unique=True, min_size=1))
    }
    try:
        plan = resolve(make_catalog(deps), request)
    except CycleError as err:
        cycle = err.cycle
        assert len(cycle) >= 2 and cycle[0] == cycle[-1]
        for a, b in zip(cycle, cycle[1:]):
            assert b in deps[a]
    else:
        assert order_is_valid(plan.names(), deps)
        assert set(plan.names()) == transitive_closure(deps, request)


# --- the checked catalog against its document ----------------------------------


_optional_fields = st.fixed_dictionaries({}, optional={
    "app_name": st.sampled_from(["n", "", "dependencies"]),
    "base_url": st.sampled_from(["http://h/d/", "http://h/e"]),
    "file": st.sampled_from(["f.tar", "/g.tar", "dependencies"]),
    "installer": st.just("other.sh"),
    "version_name": st.sampled_from(["pretty", ""]),
    "app_version": st.just("raw"),
    "notes": st.just("an unknown field"),
})


@st.composite
def catalogs_with_overrides(draw):
    """Up to 8 apps; the app and each of its 1-3 versions (in random key
    order) may set dependencies and the other fields."""
    n = draw(st.integers(min_value=1, max_value=8))
    names = [chr(ord("A") + i) for i in range(n)]
    deps = st.lists(st.sampled_from(names), max_size=3)
    doc = {}
    for name in names:
        body = {f: v for f, v in draw(_optional_fields).items() if "version" not in f}
        body["installer"] = "install.sh"
        if draw(st.booleans()):
            body["dependencies"] = draw(deps)
        keys = draw(st.lists(st.sampled_from(["1.0", "2.0", "3.1"]), min_size=1, max_size=3,
                             unique=True))
        body["versions"] = {}
        for vk in keys:
            version = draw(_optional_fields)
            if draw(st.booleans()):
                version["dependencies"] = draw(deps)
            body["versions"][vk] = version
        doc[name] = body
    return doc


@settings(max_examples=200, deadline=None)
@given(catalogs_with_overrides(), st.data())
def test_property_checked_catalog_agrees_with_its_document(doc, data):
    catalog = parse_catalog(json.dumps(doc))
    for name, body in doc.items():
        assert list(catalog.version_keys(name)) == list(body["versions"])
        for vk, version in body["versions"].items():
            merged = {f: body.get(f) for f in OVERRIDABLE_FIELDS}
            merged.update((f, v) for f, v in version.items() if f in OVERRIDABLE_FIELDS)
            merged["dependencies"] = tuple(merged["dependencies"] or ())
            merged["version_name"] = version.get("version_name") or version.get("app_version") or vk
            assert effective_version(catalog, name, vk).effective == merged
    assert check_cycles(catalog) == reference_check_cycles(catalog)
    assert parse_catalog(serialize_catalog(catalog)) == catalog
    # A plan's steps are the records effective_version builds, in an order
    # that puts each step's own dependencies first.
    request = {name: data.draw(st.sampled_from(sorted(doc[name]["versions"])))
               for name in data.draw(st.lists(st.sampled_from(sorted(doc)), unique=True))}
    try:
        plan = resolve(catalog, request)
    except CycleError:
        assert check_cycles(catalog)
    else:
        position = {step.name: i for i, step in enumerate(plan.steps)}
        for i, step in enumerate(plan.steps):
            assert step == effective_version(catalog, step.name, step.version_key)
            assert all(position[dep] < i for dep in step.dependencies)
        for name, version_key in request.items():
            assert plan.steps[position[name]].version_key == version_key
