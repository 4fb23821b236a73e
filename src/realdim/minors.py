"""Exhaustive minor testing for labelled graphs and finite-graph checks.

Minors arise from edge deletions, vertex deletions, and contractions of
non-loop edges, which :meth:`GainGraph.minor` applies in one pass.  The
labelled search is the correctness oracle for the polynomial deciders,
which never call it; it is feasible only for small hosts.

It searches states ``(n, orbit keys)`` on vertices 1..n, as
:meth:`GainGraph.orbit_state` gives them, and makes successors on the
tuples: delete a key, delete an isolated vertex, or contract a non-loop,
which shifts the gains at the merged vertex, drops zero loops and merges
equal orbits.  Successors below the patterns' vertex or edge minimum are
dropped; the rest are canonicalized (:func:`graphs.canonical_state`,
the least encoding over BFS vertex orderings that branch only where a
vertex invariant ties), each distinct sorted state once, and whether
the patterns are reachable from each class is kept too.  Both tables
are LRU caches that every query shares, trimmed to a fixed size after
each query so that one query expands a class once.  When no pattern has
a selfloop or an isolated vertex, each state loses its own, as the
successor is made: a contraction never turns a loop into a non-loop and
an isolated vertex stays isolated, so such a pattern is a minor of G iff
it is a minor of G without them.  Other exact patterns are searched
unstripped.  Matching a whole graph against an exact pattern, as a
witness check does, goes through the size-bounded
:meth:`GainGraph.canonical_form`.

A :func:`has_minor` witness is read off the verdicts: from the host, the
first successor (deletions before contractions) whose class reaches the
pattern, until the pattern matches.  A depth-first search with a visited
set finds this same path, since every class it had visited had failed.

Patterns come in two flavours.  *Exact* patterns match up to isomorphism
against a fixed labelled graph.  *Family* patterns match a structural
shape for every simple labelling: two vertices joined by a parallel pair,
or three vertices with one single and two doubled pairs.  Families are
matched by shape predicates because they are closed under isomorphism.

Finite-graph checks read a neighbour map, a loopless ``{vertex:
neighbours}`` mapping: a cycle test for a K3 minor, series-parallel
reduction (:func:`graphs.has_k4_minor`) for K4, and branch sets for K5, K222.
"""

from __future__ import annotations

import itertools
from collections import Counter, OrderedDict
from functools import cached_property
from typing import Mapping, NamedTuple

from .errors import BoundExceededError, RealdimError
from .graphs import GainGraph, canonical_state, find_cycle, has_k4_minor

K2_BULLET = "k2-bullet"
K3_BULLETBULLET = "k3-bulletbullet"

DEFAULT_VERTEX_BOUND = 8
DEFAULT_EDGE_BOUND = 16
# Largest simple host whose K5 and K222 minors are searched by brute force.
FINITE_MINOR_BOUND = 10


class _Pattern(NamedTuple):
    kind: str  # "exact" | K2_BULLET | K3_BULLETBULLET
    graph: GainGraph | None = None


class MinorPattern(_Pattern):
    """Either an exact labelled graph or a labelling-free family: the tuple
    ``(kind, graph)``.  A subclass of the NamedTuple, so that an instance
    has a dict to cache its canonical forms in."""

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

    @cached_property
    def _canonical(self):
        return self.graph.canonical_form()

    @cached_property
    def _key(self) -> tuple:
        return self.kind, self.graph and self.graph.orbit_state()

    @cached_property
    def _strips(self) -> bool:
        """Whether the pattern has no selfloop and no isolated vertex."""
        if self.graph is None:
            return True
        n, triples = self._key[1]
        return _strip(n, triples)[0] == n and all(a != b for a, b, _ in triples)

    def _matches(self, state) -> bool:
        """Whether a canonical state is this pattern (of exactly its minimum size)."""
        n, triples = state
        if n != self.min_vertices() or len(triples) != self.min_edges():
            return False
        if self.kind == "exact":
            return state == self._canonical
        pairs = Counter((a, b) for a, b, _ in triples)
        return all(a != b for a, b in pairs) and (
            self.kind == K2_BULLET or sorted(pairs.values()) == [1, 2, 2])

    def matches(self, g: GainGraph) -> bool:
        if g.n != self.min_vertices() or g.m != self.min_edges():
            return False
        # Bounded, since a certificate brings its own pattern and host.
        return self._matches(g.canonical_form() if self.kind == "exact" else g.orbit_state())

    def describe(self) -> str:
        if self.kind == "exact":
            return f"exact({self.graph!r})"
        return self.kind


def balanced_complete_pattern(n: int) -> MinorPattern:
    return MinorPattern.exact(
        GainGraph.of(n, [(a, b, 0) for a, b in itertools.combinations(range(1, n + 1), 2)])
    )


class MinorOp(NamedTuple):
    """One minor operation, addressed by stable ids, as GainGraph.minor reads it."""

    kind: str  # one of graphs.OP_KINDS
    target: int
    survivor: int | None = None


class MinorWitness(NamedTuple):
    """A reduction from a host to a forbidden pattern."""

    pattern: MinorPattern
    ops: tuple = ()

    def replay(self, host: GainGraph) -> GainGraph:
        """One :meth:`GainGraph.minor` pass: time linear in the ops and the degrees they touch."""
        return host.minor(self.ops)

    def verify(self, host: GainGraph) -> bool:
        try:
            final = self.replay(host)
        except RealdimError:
            return False
        return self.pattern.matches(final)


def _steps(n: int, triples, strip: bool = False):
    """``(op kind, index, state)`` for each state one step below ``(n,
    triples)``: delete each key, delete each isolated vertex (deleting any
    other vertex is deleting its edges first), contract each non-loop.
    Contracting (a, b, z) merges b into a: gains read from b shift by z,
    zero loops go, equal orbits merge, and the vertices above b move down
    by one.  With ``strip`` each state also loses its selfloops and then
    its isolated vertices; from a state that has none, those are read off
    the degrees instead of by a pass over each successor."""
    ends = [0] * (n + 1)  # keys at each vertex, a loop counted twice
    for a, b, _ in triples:
        ends[a] += 1
        ends[b] += 1
    if strip and (0 in ends[1:] or any(a == b for a, b, _ in triples)):
        for kind, k, (n1, rest) in _steps(n, triples):
            yield kind, k, _strip(n1, rest)
        return
    for k, (a, b, _) in enumerate(triples):
        m, rest = n, triples[:k] + triples[k + 1:]
        if strip:
            for x in (b, a):
                if ends[x] == 1:
                    m, rest = m - 1, _drop(rest, x)
        yield "delete_edge", k, (m, rest)
    for x in range(1, n + 1):
        if not ends[x]:
            yield "delete_vertex", x, (n - 1, _drop(triples, x))
    for k, (a, b, z) in enumerate(triples):
        if a == b:
            continue
        merged = set()
        for j, (u, v, w) in enumerate(triples):
            if u == v:
                u = v = a if u == b else u
            else:
                if u == b:
                    u, w = a, w + z
                elif v == b:
                    v, w = a, w - z
                if u > v:
                    u, v, w = v, u, -w
                elif u == v:
                    w = 0 if strip else abs(w)
            if j != k and (u != v or w):
                merged.add((u - (u > b), v - (v > b), w))
        if strip and not any(a in t[:2] for t in merged):
            yield "contract_edge", k, (n - 2, _drop(merged, a))
        else:
            yield "contract_edge", k, (n - 1, list(merged))


def _drop(triples, x: int) -> list:
    """The keys of a state without its isolated vertex x, renumbered."""
    return [(a - (a > x), b - (b > x), z) for a, b, z in triples]


def _strip(n: int, triples):
    """Delete the selfloops, then the isolated vertices, renumbering 1..k."""
    triples = [t for t in triples if t[0] != t[1]]
    new = {v: k for k, v in enumerate(sorted({v for t in triples for v in t[:2]}), start=1)}
    return len(new), [(new[a], new[b], z) for a, b, z in triples]


# Verdicts keyed by (patterns, canonical state).  Minors of random corpora
# repeat heavily across queries, hence one shared table.  A query fills it
# freely, so it expands each class once; after the query the least recently
# used entries go until it holds _CACHE_SIZE.
_CACHE_SIZE = 1 << 15
_CACHE: OrderedDict = OrderedDict()
# Canonical states keyed by the sorted state as a search step made it, so
# that each distinct state is canonicalized once whatever the patterns;
# shared and trimmed in the same way.
_CANON_SIZE = 1 << 15
_CANON: OrderedDict = OrderedDict()


def _trim() -> None:
    for table, size in ((_CACHE, _CACHE_SIZE), (_CANON, _CANON_SIZE)):
        while len(table) > size:
            table.popitem(last=False)


def _search(host: GainGraph, patterns, max_vertices: int, max_edges: int):
    """``(reaches, strip, verdict)``: the memoized test of whether one of
    the patterns is a minor of a state (stripped when ``strip``, as
    :func:`_steps` makes them), and its verdict on the host."""
    if host.n > max_vertices or host.m > max_edges:
        raise BoundExceededError(
            f"minor search bound is {max_vertices} vertices / {max_edges} edges; "
            f"host has {host.n} / {host.m}"
        )
    need_v = min(p.min_vertices() for p in patterns)
    need_e = min(p.min_edges() for p in patterns)
    strip = all(p._strips for p in patterns)
    patterns_key = tuple(p._key for p in patterns)

    def reaches(n: int, triples) -> bool:
        if n < need_v or len(triples) < need_e:
            return False
        raw = n, tuple(sorted(triples))
        state = _CANON.get(raw)
        if state is None:
            state = _CANON[raw] = canonical_state(*raw)
        else:
            _CANON.move_to_end(raw)
        key = (patterns_key, state)
        if key in _CACHE:
            _CACHE.move_to_end(key)
            return _CACHE[key]
        verdict = any(p._matches(state) for p in patterns) or any(
            reaches(*s) for _, _, s in _steps(*state, strip))
        _CACHE[key] = verdict
        return verdict

    root = host.orbit_state()
    return reaches, strip, reaches(*(_strip(*root) if strip else root))


def has_minor(host: GainGraph, pattern: MinorPattern,
              max_vertices: int = DEFAULT_VERTEX_BOUND,
              max_edges: int = DEFAULT_EDGE_BOUND) -> MinorWitness | None:
    """Complete search for a pattern minor; returns a witness that replays.

    The witness is the greedy path described in the module docstring.  A
    step's index names an edge, since ``orbit_state`` keeps edge order."""
    try:
        reaches, strip, found = _search(host, (pattern,), max_vertices, max_edges)
        if not found:
            return None
        ops, g = [], host
        while not pattern.matches(g):
            kind, k, _ = next(step for step in _steps(*g.orbit_state(), strip)
                              if reaches(*step[2]))
            if kind == "delete_vertex":
                op = MinorOp(kind, g.vertices[k - 1])
            else:
                e = g.edges[k]
                op = MinorOp(kind, e.id, min(e.tail, e.head) if kind == "contract_edge" else None)
            ops.append(op)
            g = g.minor([op])
        return MinorWitness(pattern, tuple(ops))
    finally:
        _trim()


FORBIDDEN_D1 = (MinorPattern.family(K2_BULLET), balanced_complete_pattern(3))
FORBIDDEN_D2 = (MinorPattern.family(K3_BULLETBULLET), balanced_complete_pattern(4))


def contains_forbidden(host: GainGraph, dimension: int,
                       max_vertices: int = DEFAULT_VERTEX_BOUND,
                       max_edges: int = DEFAULT_EDGE_BOUND) -> bool:
    """True iff the host has a minor forbidden for the given dimension.

    Answer-only variant of :func:`has_minor` over the whole forbidden set;
    use this as the oracle in bulk tests.
    """
    if dimension == 1:
        patterns = FORBIDDEN_D1
    elif dimension == 2:
        patterns = FORBIDDEN_D2
    else:
        raise RealdimError("forbidden sets are known for dimensions 1 and 2 only")
    try:
        return _search(host, patterns, max_vertices, max_edges)[2]
    finally:
        _trim()


# -- finite simple-graph checks ---------------------------------------------------

def _has_simple_minor_branch_sets(adj: Mapping, pattern: str) -> bool:
    """Branch-set search for K5 / K222 minors of a neighbour map.

    Vertices are assigned to pattern classes (or left unused) with classes
    introduced in first-use order; a final check asks each class to be
    connected and the class-adjacency graph to contain the pattern.  K5
    needs a complete class graph, K222 needs the non-adjacent class pairs
    to form a matching.
    """
    k = 5 if pattern == "K5" else 6
    verts = sorted(adj)
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
                for w in adj[u]:
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
        nbr_classes = {assign[w] for w in adj[v] if w in assign}
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


def finite_has_minor(adj: Mapping, pattern: str) -> bool:
    """Minor test of a neighbour map against one of K3, K4, K5, K222.

    K3 and K4 run at any size (cycle test, series-parallel reduction);
    K5 and K222 brute-force branch sets, on at most ``FINITE_MINOR_BOUND``
    vertices.
    """
    if pattern == "K3":
        return find_cycle(adj) is not None
    if pattern == "K4":
        return has_k4_minor(adj)
    if pattern in ("K5", "K222"):
        if len(adj) > FINITE_MINOR_BOUND:
            raise BoundExceededError(
                f"brute-force minor bound is {FINITE_MINOR_BOUND} vertices"
            )
        return _has_simple_minor_branch_sets(adj, pattern)
    raise RealdimError(f"unknown finite pattern {pattern!r}")


def finite_rd_upper3(adj: Mapping):
    """Realizable dimension of a neighbour map when it is at most 3.

    Returns 0..3, or the string ">=4" when a K5 or K222 minor is present.
    The forbidden lists are {K3} for dimension 1, {K4} for 2, and
    {K5, K222} for 3.
    """
    if not any(adj.values()):
        return 0
    if not finite_has_minor(adj, "K3"):
        return 1
    if not finite_has_minor(adj, "K4"):
        return 2
    if not finite_has_minor(adj, "K5") and not finite_has_minor(adj, "K222"):
        return 3
    return ">=4"
