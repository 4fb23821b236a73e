"""Exhaustive minor testing for labelled graphs and finite-graph checks.

Minors arise from edge deletions, vertex deletions, and contractions of
non-loop edges (contraction switches the label to zero first).  The
labelled search is a memoised DFS over isomorphism classes, feasible only
for small hosts; it is the correctness oracle for the polynomial
deciders, which never call it.

Patterns come in two flavours.  *Exact* patterns match up to isomorphism
against a fixed labelled graph.  *Family* patterns match a structural
shape for every simple labelling: two vertices joined by a parallel pair,
or three vertices with one single and two doubled pairs.  Families are
matched by shape predicates because they are closed under isomorphism.

Finite-graph checks (for the underlying simple graph) use a cycle test
for a K3 minor, series-parallel reduction for K4, and a branch-set search
for K5 and K222.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import BoundExceededError, RealdimError
from .graphs import GainGraph, SimpleGraph

K2_BULLET = "k2-bullet"
K3_BULLETBULLET = "k3-bulletbullet"

DEFAULT_VERTEX_BOUND = 8
DEFAULT_EDGE_BOUND = 16


@lru_cache(maxsize=262144)
def _canonical(g: GainGraph, bound: int = DEFAULT_VERTEX_BOUND):
    # Graphs hash by content, so successor states that recur across
    # searches canonicalise once.
    return g.canonical_form(max_vertices=bound)


@dataclass(frozen=True)
class MinorPattern:
    """Either an exact labelled graph or a labelling-free family."""

    kind: str  # "exact" | K2_BULLET | K3_BULLETBULLET
    graph: GainGraph | None = None

    @classmethod
    def exact(cls, graph: GainGraph) -> "MinorPattern":
        return cls("exact", graph)

    @classmethod
    def family(cls, name: str) -> "MinorPattern":
        if name not in (K2_BULLET, K3_BULLETBULLET):
            raise RealdimError(f"unknown pattern family {name!r}")
        return cls(name)

    def min_vertices(self) -> int:
        if self.kind == K2_BULLET:
            return 2
        if self.kind == K3_BULLETBULLET:
            return 3
        return self.graph.n

    def min_edges(self) -> int:
        if self.kind == K2_BULLET:
            return 2
        if self.kind == K3_BULLETBULLET:
            return 5
        return self.graph.m

    def matches(self, g: GainGraph) -> bool:
        if self.kind == K2_BULLET:
            return (
                g.n == 2
                and g.m == 2
                and not any(e.is_loop for e in g.edges)
            )
        if self.kind == K3_BULLETBULLET:
            if g.n != 3 or g.m != 5 or any(e.is_loop for e in g.edges):
                return False
            mults = sorted(
                g.multiplicity(a, b) for a, b in itertools.combinations(g.vertices, 2)
            )
            return mults == [1, 2, 2]
        if g.n != self.graph.n or g.m != self.graph.m:
            return False
        return _canonical(g) == _canonical(self.graph)

    def describe(self) -> str:
        if self.kind == "exact":
            return f"exact({self.graph!r})"
        return self.kind


def balanced_complete_pattern(n: int) -> MinorPattern:
    return MinorPattern.exact(
        GainGraph.of(n, [(a, b, 0) for a, b in itertools.combinations(range(1, n + 1), 2)])
    )


@dataclass(frozen=True)
class MinorOp:
    """One minor operation, addressed by stable ids."""

    kind: str  # "delete_edge" | "delete_vertex" | "contract_edge"
    target: int
    survivor: int | None = None


@dataclass(frozen=True)
class MinorWitness:
    """A reduction from a host to a forbidden pattern, replayed op by op."""

    pattern: MinorPattern
    ops: tuple = ()

    def replay(self, host: GainGraph) -> GainGraph:
        """Apply the ops in order, each run of deletions of one kind in one
        rebuild; an unknown or repeated target raises ``RealdimError``."""
        g = host
        for kind, run in itertools.groupby(self.ops, key=lambda op: op.kind):
            run = list(run)
            if kind == "contract_edge":
                for op in run:
                    g = g.contract_edge(op.target, survivor=op.survivor)
                continue
            targets = [op.target for op in run]
            if kind not in ("delete_edge", "delete_vertex"):
                raise RealdimError(f"unknown minor operation {kind!r}")
            if len(set(targets)) != len(targets):
                raise RealdimError(f"{kind} repeats a target in {targets}")
            g = g.delete_edges(targets) if kind == "delete_edge" else g.delete_vertices(targets)
        return g

    def verify(self, host: GainGraph) -> bool:
        try:
            final = self.replay(host)
        except RealdimError:
            return False
        return self.pattern.matches(final)


def _successors(g: GainGraph):
    """Minor-one-step successors with the op that produced them.

    Vertex deletions are restricted to isolated vertices; deleting a
    vertex with edges is the same as deleting its edges first, so the
    restriction loses nothing and shrinks the branching.
    """
    for e in g.edges:
        yield MinorOp("delete_edge", e.id), g.delete_edge(e.id)
    touched = set()
    for e in g.edges:
        touched.add(e.tail)
        touched.add(e.head)
    for v in g.vertices:
        if v not in touched:
            yield MinorOp("delete_vertex", v), g.delete_vertex(v)
    for e in g.edges:
        if not e.is_loop:
            yield MinorOp("contract_edge", e.id, min(e.tail, e.head)), g.contract_edge(e.id)


def has_minor(
    host: GainGraph,
    pattern: MinorPattern,
    max_vertices: int = DEFAULT_VERTEX_BOUND,
    max_edges: int = DEFAULT_EDGE_BOUND,
) -> MinorWitness | None:
    """Complete search for a pattern minor; returns a witness that replays.

    Memoised on canonical forms, so each isomorphism class of minors is
    expanded once.  Deletions are tried before contractions, which keeps
    witnesses deterministic.
    """
    if host.n > max_vertices or host.m > max_edges:
        raise BoundExceededError(
            f"minor search bound is {max_vertices} vertices / {max_edges} edges; "
            f"host has {host.n} / {host.m}"
        )
    need_v, need_e = pattern.min_vertices(), pattern.min_edges()
    seen = set()

    def search(g: GainGraph, ops: list) -> list | None:
        if g.n < need_v or g.m < need_e:
            return None
        key = _canonical(g, max_vertices)
        if key in seen:
            return None
        seen.add(key)
        if pattern.matches(g):
            return ops
        for op, h in _successors(g):
            found = search(h, ops + [op])
            if found is not None:
                return found
        return None

    ops = search(host, [])
    if ops is None:
        return None
    return MinorWitness(pattern, tuple(ops))


# Shared verdict cache for answer-only queries: canonical form of the host
# plus the pattern-set name.  Minors of random corpora repeat heavily, so
# this is worth a module-level table.
_VERDICT_CACHE: dict = {}

FORBIDDEN_D1 = (MinorPattern.family(K2_BULLET), balanced_complete_pattern(3))
FORBIDDEN_D2 = (MinorPattern.family(K3_BULLETBULLET), balanced_complete_pattern(4))


def contains_forbidden(host: GainGraph, dimension: int,
                       max_vertices: int = DEFAULT_VERTEX_BOUND,
                       max_edges: int = DEFAULT_EDGE_BOUND) -> bool:
    """True iff the host has a minor forbidden for the given dimension.

    Answer-only variant of :func:`has_minor` over the whole forbidden set,
    with a cross-call cache; use this as the oracle in bulk tests.
    """
    if dimension == 1:
        patterns = FORBIDDEN_D1
    elif dimension == 2:
        patterns = FORBIDDEN_D2
    else:
        raise RealdimError("forbidden sets are known for dimensions 1 and 2 only")
    if host.n > max_vertices or host.m > max_edges:
        raise BoundExceededError("oracle bound exceeded")
    need_v = min(p.min_vertices() for p in patterns)
    need_e = min(p.min_edges() for p in patterns)

    def search(g: GainGraph) -> bool:
        if g.n < need_v or g.m < need_e:
            return False
        key = (_canonical(g, max_vertices), dimension)
        cached = _VERDICT_CACHE.get(key)
        if cached is not None:
            return cached
        _VERDICT_CACHE[key] = False  # cycle guard; overwritten below
        result = any(p.matches(g) for p in patterns) or any(
            search(h) for _, h in _successors(g)
        )
        _VERDICT_CACHE[key] = result
        return result

    return search(host)


# -- finite simple-graph checks ---------------------------------------------------

FINITE_PATTERNS = ("K3", "K4", "K5", "K222")


def _complete_graph(n: int) -> SimpleGraph:
    vs = range(1, n + 1)
    return SimpleGraph(vs, itertools.combinations(vs, 2))


def _k222() -> SimpleGraph:
    # Octahedron: complete tripartite with parts {1,2}, {3,4}, {5,6}.
    vs = range(1, 7)
    non_edges = {frozenset((1, 2)), frozenset((3, 4)), frozenset((5, 6))}
    edges = [e for e in itertools.combinations(vs, 2) if frozenset(e) not in non_edges]
    return SimpleGraph(vs, edges)


def _has_k4_minor(g: SimpleGraph) -> bool:
    """Series-parallel reduction: K4-minor-free iff it reduces to nothing."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    queue = set(adj)
    while queue:
        v = queue.pop()
        if v not in adj:
            continue
        deg = len(adj[v])
        if deg <= 1:
            for u in adj[v]:
                adj[u].discard(v)
                queue.add(u)
            del adj[v]
        elif deg == 2:
            a, b = sorted(adj[v])
            adj[a].discard(v)
            adj[b].discard(v)
            adj[a].add(b)
            adj[b].add(a)
            del adj[v]
            queue.add(a)
            queue.add(b)
    return bool(adj)


def _has_simple_minor_branch_sets(host: SimpleGraph, pattern: str) -> bool:
    """Branch-set search for K5 / K222 minors.

    Vertices are assigned to pattern classes (or left unused) with classes
    introduced in first-use order; a final check asks each class to be
    connected and the class-adjacency graph to contain the pattern.  K5
    needs a complete class graph, K222 needs the non-adjacent class pairs
    to form a matching.
    """
    k = 5 if pattern == "K5" else 6
    verts = sorted(host.vertices)
    n = len(verts)
    if n < k:
        return False

    def class_graph_ok(class_adj, used):
        missing = [
            (i, j)
            for i in range(used)
            for j in range(i + 1, used)
            if j not in class_adj[i]
        ]
        if pattern == "K5":
            return not missing
        deg = [0] * used
        for i, j in missing:
            deg[i] += 1
            deg[j] += 1
        return all(d <= 1 for d in deg)

    def classes_connected(assign, used):
        for c in range(used):
            members = [v for v, a in assign.items() if a == c]
            seen = {members[0]}
            stack = [members[0]]
            while stack:
                u = stack.pop()
                for w in host.neighbors(u):
                    if assign.get(w) == c and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != len(members):
                return False
        return True

    def extend(idx, assign, used, class_adj):
        remaining = n - idx
        if used + remaining < k:
            return False
        if idx == n:
            if used != k:
                return False
            return class_graph_ok(class_adj, used) and classes_connected(assign, used)
        v = verts[idx]
        nbr_classes = {assign[w] for w in host.neighbors(v) if w in assign}
        choices = list(range(used)) + ([used] if used < k else [])
        for c in choices:
            assign[v] = c
            if c == used:
                class_adj.append(set())
                new_used = used + 1
            else:
                new_used = used
            added = [(c, d) for d in nbr_classes if d != c and d not in class_adj[c]]
            for c1, c2 in added:
                class_adj[c1].add(c2)
                class_adj[c2].add(c1)
            if extend(idx + 1, assign, new_used, class_adj):
                return True
            for c1, c2 in added:
                class_adj[c1].discard(c2)
                class_adj[c2].discard(c1)
            if c == used:
                class_adj.pop()
            del assign[v]
        # v unused
        return extend(idx + 1, assign, used, class_adj)

    return extend(0, {}, 0, [])


def finite_has_minor(host: SimpleGraph, pattern: str,
                     brute_force_bound: int = 10) -> bool:
    """Minor test against one of K3, K4, K5, K222.

    K3 and K4 run at any size (cycle test, series-parallel reduction);
    K5 and K222 brute-force branch sets and are size-bounded.
    """
    if pattern == "K3":
        return host.find_cycle() is not None
    if pattern == "K4":
        return _has_k4_minor(host)
    if pattern in ("K5", "K222"):
        if host.n > brute_force_bound:
            raise BoundExceededError(
                f"brute-force minor bound is {brute_force_bound} vertices"
            )
        return _has_simple_minor_branch_sets(host, pattern)
    raise RealdimError(f"unknown finite pattern {pattern!r}")


def finite_rd_upper3(host: SimpleGraph, brute_force_bound: int = 10):
    """Realizable dimension of a finite simple graph when it is at most 3.

    Returns 0..3, or the string ">=4" when a K5 or K222 minor is present.
    The forbidden lists are {K3} for dimension 1, {K4} for 2, and
    {K5, K222} for 3.
    """
    if host.m == 0:
        return 0
    if not finite_has_minor(host, "K3"):
        return 1
    if not finite_has_minor(host, "K4"):
        return 2
    if not finite_has_minor(host, "K5", brute_force_bound) and not finite_has_minor(
        host, "K222", brute_force_bound
    ):
        return 3
    return ">=4"
