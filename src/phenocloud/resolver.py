"""Install-order resolution: dependencies first, no duplicates, no cycles.

Both cycle searches stand on one iterative strongly-connected-component
routine (Tarjan, SIAM J. Comput. 1(2), 1972), run only on what Kahn's peel
leaves: an acyclic catalog costs one Kahn pass and no SCC pass.  Nothing
here recurses, so dependency chains of any depth are handled.

`resolve` selects versions and orders the names on the catalog's checked
form, and builds a step record (effective_version) only for each step of a
plan it returns: a request that meets a cycle builds none.  Like
parse_catalog, it and `check_cycles` run with the cyclic garbage collector
paused: none of them allocates reference cycles, so a collection there
would free nothing.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from collections import defaultdict, namedtuple
from itertools import compress
from operator import itemgetter, not_

from phenocloud.catalog import (
    DEPENDENCIES, EDGES, SPECS, VERSION_KEYS, Catalog, collector_paused, effective_version)
from phenocloud.errors import CycleError, DanglingDependencyError, NotFoundError


# steps: ResolvedApp, dependencies always before dependents
class InstallPlan(namedtuple("InstallPlan", "steps")):
    __slots__ = ()

    def names(self):
        return [s.name for s in self.steps]


def _select_versions(catalog: Catalog, request: dict):
    """Select a version for every app in the transitive closure of the
    request, each once: (name -> version_key, name -> its dependencies).

    Explicitly requested versions win over the default-version rule:
    dependencies carry no version, so they get the greatest version key
    compared as a string, not as a version: of "9.1" and "10.0", "9.1".
    """
    checked = catalog.checked()
    selected = {}
    stack = []  # (name, checked app, version key) of each app whose edges are not read yet
    for name, version_key in request.items():
        app = checked.get(name)
        if app is None:
            raise NotFoundError(f"requested application {name!r} not in catalog")
        if version_key not in app[VERSION_KEYS]:
            raise NotFoundError(
                f"requested version {version_key!r} of {name!r} does not exist"
            )
        selected[name] = version_key
        stack.append((name, app, version_key))

    edges = {}
    while stack:
        name, app, version_key = stack.pop()
        keys = app[VERSION_KEYS]
        # (version_name, field, value, ...); a dependency's key is most often the only one
        spec = app[SPECS][0 if keys[0] is version_key else keys.index(version_key)]
        deps = app[DEPENDENCIES]
        if len(spec) > 1:
            # Only field names are compared: a value may be the string "dependencies".
            for i in range(1, len(spec), 2):
                if spec[i] == "dependencies":
                    deps = spec[i + 1]
                    break
        edges[name] = deps
        for dep in deps:
            if dep not in selected:
                dep_app = checked.get(dep)
                if dep_app is None:
                    raise DanglingDependencyError(
                        f"{name!r} depends on {dep!r}, which is not in the catalog"
                    )
                dep_key = selected[dep] = max(dep_app[VERSION_KEYS])
                stack.append((dep, dep_app, dep_key))
    return selected, edges


def _components(succ, nodes) -> list:
    """Strongly connected components of the subgraph induced by `nodes`.

    `succ[node]` lists a node's successors; those outside `nodes` are
    ignored.  Tarjan's algorithm with an explicit stack of successor
    iterators in place of recursion.  A node's index is its position on the
    component stack, which orders the nodes on it as discovery numbers would,
    so a component is one slice off the top.  The index turns infinite once
    the component is out, so that it lowers no other node's link.
    """
    index = {}  # node -> its position on `stack` when it was pushed
    stack = []
    components = []
    for root in nodes:
        if root in index:
            continue
        # A node's link is needed only while it is on the DFS path, so it
        # rides on `work` with the node instead of living in a dict.
        node, successors, low = root, iter(succ[root]), len(stack)
        index[root] = low
        stack.append(root)
        work = []  # (node, successors, link) of node's DFS ancestors
        while True:
            for nxt in successors:
                if nxt in index:
                    if index[nxt] < low:
                        low = index[nxt]
                elif nxt in nodes:
                    work.append((node, successors, low))
                    node, successors = nxt, iter(succ[nxt])
                    index[nxt] = low = len(stack)
                    stack.append(nxt)
                    break
            else:
                if low == index[node]:
                    component = stack[low:]
                    del stack[low:]
                    for member in component:
                        index[member] = math.inf
                    components.append(component)
                if not work:
                    break
                child_low = low
                node, successors, low = work.pop()
                if child_low < low:
                    low = child_low
    return components


def _cyclic_components(succ, nodes) -> list:
    """The components of `nodes` that hold a cycle: two or more nodes, or
    one node that depends on itself.  Nodes that no remaining node depends
    on are peeled first (Kahn, CACM 5(11), 1962): no cycle passes them."""
    indegree = dict.fromkeys(nodes, 0)
    for node in nodes:
        for nxt in succ[node]:
            if nxt in indegree:
                indegree[nxt] += 1
    peel = list(compress(indegree, map(not_, indegree.values())))
    while peel:
        for nxt in succ[peel.pop()]:
            # None for a node outside `nodes`; a counted node reads at least
            # 1 up to its last incoming edge.
            deg = indegree.get(nxt)
            if deg:
                indegree[nxt] = deg - 1
                if deg == 1:
                    peel.append(nxt)
    # Dicts iterate in insertion order, not hash order, so passes stay local.
    rest = dict.fromkeys(compress(indegree, indegree.values()))
    return [
        c for c in _components(succ, rest) if len(c) > 1 or c[0] in succ[c[0]]
    ]


def _circuits(succ, anchor, members):
    """Yield every elementary circuit through `anchor` inside `members` as a
    closed path, in depth-first order over each node's successors in the
    order `succ` lists them.

    Johnson's search (SIAM J. Comput. 4(1), 1975) with explicit stacks: a
    node stays blocked while it cannot reach the anchor off the current
    path, so branches that close no circuit are not walked again.
    """
    blocked = {anchor}
    blocked_by = defaultdict(set)  # node -> blocked nodes waiting on it
    path = [anchor]
    closed = [False]  # per path node: did a circuit close below it?
    work = [iter(succ[anchor])]
    while work:
        for nxt in work[-1]:
            if nxt == anchor:
                yield path + [anchor]
                closed[-1] = True
            elif nxt in members and nxt not in blocked:
                path.append(nxt)
                closed.append(False)
                blocked.add(nxt)
                work.append(iter(succ[nxt]))
                break
        else:
            work.pop()
            node = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                if node in blocked_by:
                    release = [node]
                    while release:
                        freed = release.pop()
                        if freed in blocked:
                            blocked.discard(freed)
                            release.extend(blocked_by.pop(freed, ()))
                else:  # nothing waits on it
                    blocked.discard(node)
            else:
                for nxt in succ[node]:
                    if nxt in members:
                        blocked_by[nxt].add(node)


def _install_order(edges) -> list:
    """Kahn's pass over `edges` (name -> its dependencies): dependencies
    first and, among ready names, the smallest first.  Names on a cycle, or
    depending on one, are left out."""
    indegree = {}
    dependents = {}  # only names something depends on
    ready = []
    for name, deps in edges.items():
        indegree[name] = len(deps)
        if not deps:
            ready.append(name)
        for dep in deps:
            if dep in dependents:
                dependents[dep].append(name)
            else:
                dependents[dep] = [name]
    heapify(ready)
    order = []
    while ready:
        name = heappop(ready)
        order.append(name)
        for dependent in dependents.get(name, ()):
            deg = indegree[dependent] - 1
            indegree[dependent] = deg
            if not deg:
                heappush(ready, dependent)
    return order


@collector_paused
def resolve(catalog: Catalog, request: dict) -> InstallPlan:
    """Compute a deterministic install order for the requested applications.

    The plan contains the transitive dependency closure of the request,
    each application once, dependencies before dependents.  Among ready
    applications the one with the smallest name goes first, which makes
    the result independent of request key order.  On a cycle, CycleError
    carries the first cycle through the smallest node on any cycle that
    depth-first search finds, starting and ending at that node.
    """
    selected, edges = _select_versions(catalog, request)
    order = _install_order(edges)
    if len(order) != len(edges):
        # Every cycle lies among the unplaced apps.  Kahn's lists are gone
        # by now, so the traceback of the CycleError does not hold them.
        placed = set(order)
        remaining = {name: None for name in edges if name not in placed}
        anchor, members = min(
            (min(c), c) for c in _cyclic_components(edges, remaining)
        )
        raise CycleError(next(_circuits(edges, anchor, set(members))))
    # Records are built only now, for an order that is returned.
    return InstallPlan(tuple(effective_version(catalog, name, selected[name]) for name in order))


@collector_paused
def check_cycles(catalog: Catalog) -> list:
    """Return every elementary dependency cycle in the catalog.

    An application's edges are its dependencies under any of its versions,
    so every cycle some request can make `resolve` raise is listed.
    Cycles are reported as closed paths ([a, b, a]), each elementary
    cycle once, starting at its lexicographically smallest node.
    Anchors ascend; under one anchor, cycles come in depth-first order
    over sorted dependencies.  Empty list iff the catalog's dependency
    graph is acyclic; as nodes no cycle can pass through are peeled
    before Tarjan, an acyclic graph costs one Kahn pass and no SCC pass,
    and sorts nothing.
    """
    checked = catalog.checked()
    # Dependencies outside the catalog are skipped where they are met.
    succ = dict(zip(checked, map(itemgetter(EDGES), checked.values())))
    components = _cyclic_components(succ, succ)
    # Which nodes the peel and Tarjan keep does not depend on successor
    # order, and both tolerate repeats; only Johnson's search follows that
    # order, so only the members of a cyclic component get sorted lists.
    for component in components:
        for node in component:
            deps = succ[node]
            if len(deps) > 1:
                succ[node] = sorted(set(deps))
    # Cycles anchored at a component's smallest node lie inside that
    # component; the rest lie in the components of what is left without it.
    # Components are disjoint, so popping smallest anchors first keeps the
    # anchors in ascending order.
    heap = [(min(c), c) for c in components]
    heapify(heap)
    cycles = []
    while heap:
        anchor, component = heappop(heap)
        members = dict.fromkeys(component)
        cycles.extend(_circuits(succ, anchor, members))
        del members[anchor]
        for sub in _cyclic_components(succ, members):
            heappush(heap, (min(sub), sub))
    return cycles
