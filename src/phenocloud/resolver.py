"""Install-order resolution: dependencies first, no duplicates, no cycles.

Both cycle searches stand on one iterative strongly-connected-component
routine (Tarjan, SIAM J. Comput. 1(2), 1972), run only on what Kahn's peel
leaves: an acyclic catalog costs one Kahn pass and no SCC pass.  Nothing
here recurses, so dependency chains of any depth are handled.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, namedtuple

from phenocloud.catalog import Catalog, effective_version
from phenocloud.errors import CycleError, DanglingDependencyError, NotFoundError


# steps: ResolvedApp, dependencies always before dependents
class InstallPlan(namedtuple("InstallPlan", "steps")):
    __slots__ = ()

    def names(self):
        return [s.name for s in self.steps]


def _default_version(catalog: Catalog, name: str) -> str:
    # Dependencies carry no version; pick the greatest version key as "latest".
    return max(catalog.version_keys(name))


def _select_versions(catalog: Catalog, request: dict) -> dict:
    """Map every app in the transitive closure of the request to its
    ResolvedApp, resolving each one once.

    Explicitly requested versions win over the default-version rule.
    """
    selected = {}
    for name, version_key in request.items():
        if name not in catalog:
            raise NotFoundError(f"requested application {name!r} not in catalog")
        if version_key not in catalog.version_keys(name):
            raise NotFoundError(
                f"requested version {version_key!r} of {name!r} does not exist"
            )
        selected[name] = version_key

    resolved = {}
    stack = list(selected)
    while stack:
        name = stack.pop()
        resolved[name] = app = effective_version(catalog, name, selected[name])
        for dep in app.dependencies:
            if dep not in catalog:
                raise DanglingDependencyError(
                    f"{name!r} depends on {dep!r}, which is not in the catalog"
                )
            if dep not in selected:
                selected[dep] = _default_version(catalog, dep)
                stack.append(dep)
    return resolved


def _components(succ, nodes) -> list:
    """Strongly connected components of the subgraph induced by `nodes`.

    `succ[node]` lists a node's successors; those outside `nodes` are
    ignored.  Tarjan's algorithm with an explicit stack of successor
    iterators in place of recursion.  A node's index turns infinite once its
    component is out, so that it lowers no other node's link.
    """
    index = {}  # node -> DFS discovery number
    low = {}
    stack = []
    components = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, successors = work[-1]
            for nxt in successors:
                if nxt not in nodes:
                    continue
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
                if index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        index[member] = math.inf
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
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
    peel = [node for node, deg in indegree.items() if deg == 0]
    while peel:
        for nxt in succ[peel.pop()]:
            if nxt in indegree:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    peel.append(nxt)
    # Dicts iterate in insertion order, not hash order, so passes stay local.
    rest = {node: None for node, deg in indegree.items() if deg}
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
                release = [node]
                while release:
                    freed = release.pop()
                    if freed in blocked:
                        blocked.discard(freed)
                        release.extend(blocked_by.pop(freed, ()))
            else:
                for nxt in succ[node]:
                    if nxt in members:
                        blocked_by[nxt].add(node)


def resolve(catalog: Catalog, request: dict) -> InstallPlan:
    """Compute a deterministic install order for the requested applications.

    The plan contains the transitive dependency closure of the request,
    each application once, dependencies before dependents.  Among ready
    applications the one with the smallest name goes first, which makes
    the result independent of request key order.  On a cycle, CycleError
    carries the first cycle through the smallest node on any cycle that
    depth-first search finds, starting and ending at that node.
    """
    resolved = _select_versions(catalog, request)
    edges = {name: app.dependencies for name, app in resolved.items()}

    indegree = {name: len(deps) for name, deps in edges.items()}
    dependents = {name: [] for name in edges}
    for name, deps in edges.items():
        for dep in deps:
            dependents[dep].append(name)

    ready = [name for name, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    steps = []
    while ready:
        name = heapq.heappop(ready)
        steps.append(resolved[name])
        for dependent in dependents[name]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                heapq.heappush(ready, dependent)

    if len(steps) != len(edges):
        # Every cycle lies among the unplaced apps.
        remaining = {name for name, deg in indegree.items() if deg > 0}
        anchor, members = min(
            (min(c), c) for c in _cyclic_components(edges, remaining)
        )
        raise CycleError(next(_circuits(edges, anchor, set(members))))
    return InstallPlan(steps=tuple(steps))


def check_cycles(catalog: Catalog) -> list:
    """Return every elementary dependency cycle in the catalog.

    An application's edges are its dependencies under any of its versions,
    so every cycle some request can make `resolve` raise is listed.
    Cycles are reported as closed paths ([a, b, a]), each elementary
    cycle once, starting at its lexicographically smallest node.
    Anchors ascend; under one anchor, cycles come in depth-first order
    over sorted dependencies.  Empty list iff the catalog's dependency
    graph is acyclic; as nodes no cycle can pass through are peeled
    before Tarjan, an acyclic graph costs one Kahn pass and no SCC pass.
    """
    succ = {}
    for name in catalog:
        deps = catalog.edges(name)
        # Dependencies outside the catalog are skipped where they are met.
        succ[name] = sorted(set(deps)) if len(deps) > 1 else deps
    # Cycles anchored at a component's smallest node lie inside that
    # component; the rest lie in the components of what is left without it.
    # Components are disjoint, so popping smallest anchors first keeps the
    # anchors in ascending order.
    heap = [(min(c), c) for c in _cyclic_components(succ, succ)]
    heapq.heapify(heap)
    cycles = []
    while heap:
        anchor, component = heapq.heappop(heap)
        members = dict.fromkeys(component)
        cycles.extend(_circuits(succ, anchor, members))
        del members[anchor]
        for sub in _cyclic_components(succ, members):
            heapq.heappush(heap, (min(sub), sub))
    return cycles
