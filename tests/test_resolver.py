import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_catalog
from phenocloud.errors import CycleError, DanglingDependencyError, NotFoundError
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


# --- check_cycles against the anchored-DFS enumerator --------------------------


def reference_check_cycles(catalog) -> list:
    """The original enumerator: every elementary cycle as a closed path,
    anchored at its smallest node, found by a DFS over sorted neighbours
    that never descends below the anchor.  Exponential, small graphs only."""
    edges = {name: sorted(set(catalog[name].dependencies)) for name in catalog}
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
def digraphs(draw):
    """Up to 10 nodes in a random insertion order; each depends on up to 3
    nodes, itself and repeats allowed."""
    n = draw(st.integers(min_value=1, max_value=10))
    names = draw(st.permutations([chr(ord("A") + i) for i in range(n)]))
    return {
        name: draw(st.lists(st.sampled_from(names), max_size=3)) for name in names
    }


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_property_check_cycles_equals_reference_enumerator(deps):
    catalog = make_catalog(deps)
    assert check_cycles(catalog) == reference_check_cycles(catalog)


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
