"""Integer-labelled directed multigraphs and their elementary operations.

A gain graph here is the quotient description of a graph with a free
Z-symmetry and finitely many vertex orbits: finitely many vertices, and
directed edges carrying an integer shift label.  Reversing an edge's
orientation while negating its label describes the same edge orbit, so
edges are orientation-ambivalent objects with a stored convention.

A labelling is *simple* when selfloops carry nonzero labels and no two
parallel edges describe the same orbit (same direction with the same
label, or opposite directions with opposite labels).  Every operation in
this module keeps graphs simple; a contraction makes no zero-label loop,
since an edge parallel to the contracted one lies in another orbit.

Switching a vertex by an integer re-selects the representative of that
vertex orbit; it adds the integer to outgoing labels and subtracts it
from incoming ones, leaving selfloops alone.  Switching, edge inversion
and vertex renaming generate the isomorphism notion implemented by
:meth:`GainGraph.canonical_form`.

The deciders hold a graph as one multigraph, ``{u: {w: {orbit key:
edge}}}`` with selfloops left out, built by :func:`multigraph`.  The
balance test :func:`balance` and the complete-type pass :func:`pair_profile`
read it.  The block split :func:`blocks`, the cycle search
:func:`find_cycle` and the series-parallel reducer :func:`has_k4_minor`
read any loopless ``{vertex: neighbours}`` mapping: that multigraph,
whose neighbour values are edge dicts, or plain neighbour sets.  So do
the finite-graph minor checks of :mod:`realdim.minors`.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, NamedTuple

from .errors import BoundExceededError, RealdimError, SimplicityError

# Largest lift window built, counted as (quotient vertices + edges) x shifts;
# at the bound `realdim lift` runs for about 1.5 s in about 130 MB.
LIFT_WINDOW_BOUND = 100_000
# Most vertices GainGraph.canonical_form takes; its BFS orderings are
# factorial in the worst case.
CANONICAL_FORM_BOUND = 8

# Minor operations, applied by GainGraph.minor.
OP_KINDS = ("delete_edge", "delete_vertex", "contract_edge")


class GainEdge(NamedTuple):
    """A directed edge with an integer label, the tuple ``(id, tail, head, label)``."""

    id: int
    tail: int
    head: int
    label: int

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head

    def inverted(self) -> "GainEdge":
        return GainEdge(self.id, self.head, self.tail, -self.label)

    def other(self, v: int) -> int:
        if v == self.tail:
            return self.head
        if v == self.head:
            return self.tail
        raise KeyError(f"vertex {v} is not an endpoint of edge {self.id}")

    def gain_from(self, v: int) -> int:
        """Label read with tail at v.  Not meaningful for loops."""
        if v == self.tail:
            return self.label
        if v == self.head:
            return -self.label
        raise KeyError(f"vertex {v} is not an endpoint of edge {self.id}")

    def orbit_key(self) -> tuple:
        return orbit_key(self.tail, self.head, self.label)


def orbit_key(tail: int, head: int, label: int) -> tuple:
    """Equal for exactly the edges that describe the same orbit.

    Inverting an edge while negating its label gives the same orbit, so a
    non-loop is keyed (a, b, gain read from a) with a < b, and a selfloop
    at v is keyed (v, v, |label|).  Ids are ignored.
    """
    if tail < head:
        return (tail, head, label)
    if tail > head:
        return (head, tail, -label)
    return (tail, tail, abs(label))


class Violation(NamedTuple):
    """One simplicity violation: a bad loop or a duplicate parallel pair."""

    kind: str  # "zero-loop" | "duplicate-parallel" | "duplicate-loop"
    edge_ids: tuple
    message: str


def _simplicity_violations(edges) -> list:
    """Zero-loops in edge order, then duplicate parallel edges, then
    duplicate selfloops, each group in orbit-key order."""
    violations = [
        Violation("zero-loop", (eid,), f"selfloop {eid} at {tail} has label 0")
        for eid, tail, head, label in edges
        if label == 0 and tail == head
    ]
    groups: dict = {}
    for eid, tail, head, label in edges:
        groups.setdefault(orbit_key(tail, head, label), []).append(eid)
    duplicates = sorted((key, sorted(ids)) for key, ids in groups.items() if len(ids) > 1)
    for (a, b, _), ids in duplicates:
        if a != b:
            violations.append(Violation(
                "duplicate-parallel", tuple(ids),
                f"edges {ids} between {a} and {b} describe the same orbit",
            ))
    for (v, w, _), ids in duplicates:
        if v == w:
            violations.append(Violation(
                "duplicate-loop", tuple(ids), f"selfloops {ids} at {v} describe the same orbit"
            ))
    return violations


class SimpleGraph:
    """Loopless undirected graph without multiplicities: the type of a
    lift window (:meth:`GainGraph.lift_window`).

    Vertex ids may be any hashable values (lift windows use pairs).
    Treated as immutable.
    """

    def __init__(self, vertices: Iterable, edges: Iterable = ()):
        self.vertices = frozenset(vertices)
        es = set()
        for e in edges:
            pair = frozenset(e)
            if len(pair) != 2:
                raise RealdimError(f"not a 2-element edge: {sorted(e)}")
            if not pair <= self.vertices:
                raise RealdimError(f"edge {sorted(pair)} uses unknown vertices")
            es.add(pair)
        self.edges = frozenset(es)

    @property
    def m(self) -> int:
        return len(self.edges)

    def blocks(self) -> list:
        """Biconnected components as (vertex frozenset, edge frozenset); see
        :func:`blocks`."""
        adj: dict = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return [(frozenset(vs), frozenset(map(frozenset, pairs)))
                for _, _, vs, pairs in blocks(adj)]


def find_cycle(adj: Mapping):
    """Return some cycle of a loopless ``{vertex: neighbours}`` graph as a
    vertex list, or None.  DFS based."""
    parent: dict = {}
    for start in sorted(adj):
        if start in parent:
            continue
        parent[start] = None
        stack = [start]
        order = {start: 0}
        while stack:
            u = stack.pop()
            for w in sorted(adj[u]):
                if w not in parent:
                    parent[w] = u
                    order[w] = order[u] + 1
                    stack.append(w)
                elif w != parent[u]:
                    # The first non-tree edge met is met at its deeper end
                    # u: climb u to w's depth, then both to their meeting
                    # point.  A cycle of the search tree and one edge has
                    # at least three vertices.
                    pu, pw = [u], [w]
                    a, b = u, w
                    while order[a] > order[b]:
                        a = parent[a]
                        pu.append(a)
                    while a != b:
                        a = parent[a]
                        b = parent[b]
                        pu.append(a)
                        pw.append(b)
                    return pu + pw[-2::-1]
    return None


def blocks(adj: Mapping) -> list:
    """Biconnected components of a loopless ``{vertex: neighbours}`` graph
    as (root, cut, sorted vertex tuple, list of vertex pairs).

    The root is the DFS start of the block's component, its least vertex,
    and the cut the parent of the block's DFS subtree.  Bridges are blocks
    of one pair; isolated vertices yield no block.  A component's blocks
    come together, and read backwards its first block holds the root and
    each later one shares only its cut vertex with the blocks before it.
    Iterative Hopcroft-Tarjan with an edge stack; each DFS frame keeps the
    stack position of the tree edge into its vertex, where a block hanging
    off that edge starts.
    """
    found = []
    discovery: dict = {}
    low: dict = {}
    for start in sorted(adj):
        if start in discovery:
            continue
        low[start] = discovery[start] = len(discovery)
        edge_stack = []
        stack = [(start, start, iter(sorted(adj[start])), 0)]
        while stack:
            grandparent, parent, children, ind = stack[-1]
            child = next(children, None)
            if child is not None:
                if grandparent == child:
                    continue
                if child in discovery:
                    if discovery[child] <= discovery[parent]:
                        low[parent] = min(low[parent], discovery[child])
                        edge_stack.append((parent, child))
                else:
                    low[child] = discovery[child] = len(discovery)
                    stack.append((parent, child, iter(sorted(adj[child])), len(edge_stack)))
                    edge_stack.append((parent, child))
            else:
                stack.pop()
                if stack:
                    if low[parent] >= discovery[grandparent]:
                        pairs = edge_stack[ind:]
                        del edge_stack[ind:]
                        vs = pairs[0] if len(pairs) == 1 else {v for p in pairs for v in p}
                        found.append((start, grandparent, tuple(sorted(vs)), pairs))
                    low[grandparent] = min(low[parent], low[grandparent])
    return found


def multigraph_add(adj: dict, e: GainEdge) -> None:
    """Put the non-loop e into a multigraph held as ``{u: {w: {orbit key:
    edge}}}``.

    Both ends of a pair share one edge dict.  An edge landing on an orbit
    already present keeps the smaller id, as ``GainGraph.contract_edge``
    does.
    """
    eid, tail, head, label = e  # one unpacking: NamedTuple field reads are slow
    by_orbit = adj[tail].get(head)
    if by_orbit is None:
        by_orbit = adj[tail][head] = adj[head][tail] = {}
    key = orbit_key(tail, head, label)
    old = by_orbit.get(key)
    if old is None or eid < old.id:
        by_orbit[key] = e


def multigraph(vertices, edges) -> dict:
    """The multigraph of a vertex and an edge list, selfloops left out."""
    adj: dict = {v: {} for v in vertices}
    for e in edges:
        if e.tail != e.head:
            multigraph_add(adj, e)
    return adj


def multigraph_edges(adj: dict):
    """The edges of a multigraph, each once."""
    return (e for a in adj for b, es in adj[a].items() if a < b for e in es.values())


def pair_profile(adj: dict) -> tuple:
    """(adjacent pairs, largest multiplicity, whether the pairs of
    multiplicity at least two form a forest, whether they connect every
    vertex) of a multigraph, in linear time with one union-find.  A simple
    labelling gives a pair one orbit key per edge, so its multiplicity is
    the size of its edge dict."""
    root = {v: v for v in adj}

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    sizes = {(a, b): len(es) for a in adj for b, es in adj[a].items() if a < b}
    doubled = [pair for pair, k in sizes.items() if k >= 2]
    for a, b in doubled:
        root[find(a)] = find(b)
    parts = sum(root[v] == v for v in root)  # one root per component
    forest = len(doubled) == len(adj) - parts
    return len(sizes), max(sizes.values(), default=0), forest, parts <= 1


def has_k4_minor(adj: Mapping) -> bool:
    """Whether a loopless ``{vertex: neighbours}`` graph has a K4 minor.

    Series-parallel reduction of a copy: a graph is K4-minor-free iff
    removing vertices of degree at most one and suppressing vertices of
    degree two empties it (Duffin 1965).
    """
    adj = {v: set(ns) for v, ns in adj.items()}
    queue = set(adj)
    while queue:
        v = queue.pop()  # only live vertices are ever queued
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


class WalkWitness(NamedTuple):
    """A closed walk with nonzero gain, certifying unbalancedness.

    ``sequence`` alternates vertices and edges, starting and ending at the
    same vertex: (v0, e1, v1, ..., ek, v0).  A selfloop step is direction-
    ambiguous (the sequence cannot say which way it was traversed), so its
    label counts with either sign.
    """

    sequence: tuple
    gain: int


class BalanceResult(NamedTuple):
    """Outcome of the balance test.

    ``potentials`` is the switching computed from a spanning forest; for a
    balanced graph, switching by it makes every label zero.
    """

    balanced: bool
    witness: WalkWitness | None
    potentials: dict


def balance(adj: dict, edges) -> BalanceResult:
    """Decide the balance of a graph given as its multigraph ``adj`` (see
    :func:`multigraph`) and its edges, selfloops included; on failure
    return an unbalanced closed walk.

    Potentials come from zeroing a breadth-first spanning forest of adj:
    roots and neighbours in increasing order, and the smallest-id edge of
    each pair as its tree edge, which keeps the forest independent of the
    labelling.  The graph is balanced iff afterwards every edge has label
    zero; ``edges`` are checked in the order given, and the first that is
    not (a selfloop always) closes the witness.
    """
    parent_edge: dict = {}
    phi: dict = {}
    for root in sorted(adj):
        if root in phi:
            continue
        parent_edge[root] = None
        phi[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(adj[u]):
                if w not in phi:
                    e = parent_edge[w] = min(adj[u][w].values(), key=lambda f: f.id)
                    # Switching by phi sends label z to z + phi(tail) - phi(head);
                    # the tree edge (u, w) becomes 0 when phi(w) = phi(u) + gain.
                    phi[w] = phi[u] + e.gain_from(u)
                    queue.append(w)

    for e in edges:
        if e.is_loop:
            return BalanceResult(False, WalkWitness((e.tail, e, e.tail), e.label), phi)
        residual = e.label + phi[e.tail] - phi[e.head]
        if residual != 0:
            # Tree edges have residual 0 by construction, so e is not one.
            return BalanceResult(False, _cycle_through(e, parent_edge, residual), phi)
    return BalanceResult(True, None, phi)


def _cycle_through(e: GainEdge, parent_edge: dict, gain: int) -> WalkWitness:
    """Close the non-tree edge e with the tree path from its head to its tail."""
    def path_to_root(v):
        seq = [v]
        while parent_edge[seq[-1]] is not None:
            seq.append(parent_edge[seq[-1]].other(seq[-1]))
        return seq

    up_t = path_to_root(e.tail)
    up_h = path_to_root(e.head)
    while len(up_t) > 1 and len(up_h) > 1 and up_t[-2] == up_h[-2]:
        up_t.pop()
        up_h.pop()
    # up_h joined to reversed up_t meets at the common ancestor.
    walk = [e.tail, e, e.head]
    for v in up_h[1:]:
        walk.append(parent_edge[walk[-1]])
        walk.append(v)
    for v in reversed(up_t[:-1]):
        walk.append(parent_edge[v])
        walk.append(v)
    return WalkWitness(tuple(walk), gain)


class GainGraph:
    """A finite directed multigraph with a simple integer edge labelling.

    Vertices are distinct integers kept as a sorted tuple; matrix-building
    code indexes vertices by their position in that tuple.  Minor
    operations keep surviving ids stable rather than re-indexing, so
    certificates can refer to vertices and edges across operations.

    Instances are treated as immutable: every operation returns a new
    graph.  Deletions and contractions all go through one pass, :meth:`minor`.
    """

    def __init__(self, vertices: Iterable[int], edges: Iterable[GainEdge] = ()):
        self.vertices = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        # Each edge is unpacked, not read field by field: a NamedTuple's
        # field reads are the slow part of a pass over many edges.
        edges = tuple(sorted(edges))  # by id, the first field
        self._by_id = {e.id: e for e in edges}
        if len(self._by_id) != len(edges):
            raise RealdimError("duplicate edge ids")
        for eid, tail, head, _ in edges:
            if tail not in vset or head not in vset:
                raise RealdimError(f"edge {eid} uses unknown vertices")
        self.edges = edges
        violations = _simplicity_violations(edges)
        if violations:
            raise SimplicityError(violations)
        self._vset = vset

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, n: int, triples: Iterable[tuple]) -> "GainGraph":
        """Build a graph on vertices 1..n from (tail, head, label) triples."""
        edges = [GainEdge(i, t, h, z) for i, (t, h, z) in enumerate(triples, start=1)]
        return cls(range(1, n + 1), edges)

    def fresh_edge_id(self) -> int:
        return max((e.id for e in self.edges), default=0) + 1

    # -- basic accessors -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, eid: int) -> GainEdge:
        try:
            return self._by_id[eid]
        except KeyError:
            raise RealdimError(f"unknown edge id {eid}") from None

    def loops_at(self, v: int) -> list:
        return [e for e in self.edges if e.is_loop and e.tail == v]

    def edges_between(self, a: int, b: int) -> list:
        """Edges joining a and b in either orientation (loops if a == b)."""
        if a == b:
            return self.loops_at(a)
        want = {a, b}
        return [e for e in self.edges if not e.is_loop and {e.tail, e.head} == want]

    def __eq__(self, other):
        if not isinstance(other, GainGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        es = ", ".join(f"({e.tail},{e.head};{e.label:+d})" for e in self.edges)
        return f"GainGraph(V={list(self.vertices)}, E=[{es}])"

    # -- elementary operations -------------------------------------------------

    def switch(self, v: int, gamma: int) -> "GainGraph":
        """Add gamma to labels leaving v, subtract at labels entering v."""
        return self.switch_many({v: gamma})

    def switch_many(self, potentials: Mapping[int, int]) -> "GainGraph":
        """Apply a whole switching potential at once."""
        for v in potentials:
            if v not in self._vset:
                raise RealdimError(f"unknown vertex {v}")
        out = []
        for e in self.edges:
            if e.is_loop:
                out.append(e)
            else:
                z = e.label + potentials.get(e.tail, 0) - potentials.get(e.head, 0)
                out.append(GainEdge(e.id, e.tail, e.head, z))
        return GainGraph(self.vertices, out)

    def invert_edge(self, eid: int) -> "GainGraph":
        self.edge(eid)
        return GainGraph(self.vertices, [f.inverted() if f.id == eid else f for f in self.edges])

    def contract_edge(self, eid: int) -> "GainGraph":
        """Contract a non-loop: switch its head by its label, merge the larger
        end into the smaller, and keep the smallest id of each orbit
        (deterministic; any choice gives an isomorphic graph).  No edge
        becomes a zero-label loop: one parallel to the contracted edge lies
        in another orbit, so keeps a nonzero gain."""
        return self.minor([("contract_edge", eid, None)])

    def minor(self, ops) -> "GainGraph":
        """Apply ``(kind, target, survivor)`` ops, kinds from ``OP_KINDS``,
        in one pass over the live edges by id and, per vertex, its edge ids
        (some perhaps deleted since); build one graph at the end.  Deleting
        an edge costs O(1) and a vertex its list; a contraction touches the
        edges of its two ends only.  A failing op raises ``RealdimError``
        naming it, as in ``op 3 (contract_edge 17): unknown edge id 17``."""
        edges = dict(self._by_id)
        inc: dict = {v: [] for v in self.vertices}
        for eid, tail, head, _ in self.edges:
            inc[tail].append(eid)
            if head != tail:
                inc[head].append(eid)
        for i, (kind, target, survivor) in enumerate(ops):
            try:
                if kind == "delete_edge":
                    if edges.pop(target, None) is None:
                        raise RealdimError("not in the graph")
                elif kind == "delete_vertex":
                    if target not in inc:
                        raise RealdimError("not in the graph")
                    for eid in inc.pop(target):
                        edges.pop(eid, None)
                elif kind == "contract_edge":
                    _contract(edges, inc, target, survivor)
                else:
                    raise RealdimError(f"unknown minor operation {kind!r}")
            except RealdimError as exc:
                raise RealdimError(f"op {i} ({kind} {target}): {exc}") from None
        return GainGraph(inc, edges.values())

    # -- derived graphs ----------------------------------------------------------

    def lift_window(self, shift_min: int, shift_max: int) -> SimpleGraph:
        """Finite induced slice of the periodic lift over a shift range.

        Lift vertices are pairs (vertex, shift); a quotient edge (i, j; z)
        contributes {(i, s), (j, s + z)} for every shift s such that both
        endpoints fall in the window.  A window that could hold more than
        ``LIFT_WINDOW_BOUND`` vertices and edges raises ``BoundExceededError``
        before anything is built.
        """
        if shift_min > shift_max:
            raise RealdimError("empty shift window")
        width = shift_max - shift_min + 1
        if (self.n + self.m) * width > LIFT_WINDOW_BOUND:
            raise BoundExceededError(
                f"lift window of {width} shifts over {self.n} vertices and {self.m} edges "
                f"exceeds the bound of {LIFT_WINDOW_BOUND} lift vertices and edges"
            )
        shifts = range(shift_min, shift_max + 1)
        vertices = [(v, s) for v in self.vertices for s in shifts]
        edges = []
        for e in self.edges:
            for s in shifts:
                t = s + e.label
                if shift_min <= t <= shift_max:
                    a, b = (e.tail, s), (e.head, t)
                    if a != b:
                        edges.append((a, b))
        return SimpleGraph(vertices, edges)

    # -- balance ----------------------------------------------------------------

    def balance(self) -> BalanceResult:
        """Decide balance; on failure return an unbalanced closed walk.  See
        :func:`balance`."""
        return balance(multigraph(self.vertices, self.edges), self.edges)

    def is_balanced(self) -> bool:
        return self.balance().balanced

    # -- canonical form -----------------------------------------------------------

    def orbit_state(self) -> tuple:
        """``(n, orbit keys in edge order)``, vertices renamed 1..n by position."""
        pos = {v: k for k, v in enumerate(self.vertices, start=1)}
        return self.n, tuple((pos[a], pos[b], z) for a, b, z in map(GainEdge.orbit_key, self.edges))

    def canonical_form(self):
        """Hashable encoding equal for two graphs iff they are isomorphic:
        :func:`canonical_state` of :meth:`orbit_state`.  It tries every BFS
        vertex ordering, branching where a vertex invariant ties, which is
        factorial for symmetric graphs, hence ``CANONICAL_FORM_BOUND``;
        parallel edges need no bound, since no choice of tree edge is
        enumerated."""
        if self.n > CANONICAL_FORM_BOUND:
            raise BoundExceededError(
                f"canonical_form bound is {CANONICAL_FORM_BOUND} vertices, graph has {self.n}"
            )
        return canonical_state(*self.orbit_state())


def _contract(edges: dict, inc: dict, eid: int, survivor) -> None:
    """One contraction of :meth:`GainGraph.minor`, in place."""
    e = edges.pop(eid, None)  # an error drops the whole pass
    if e is None:
        raise RealdimError(f"unknown edge id {eid}")
    _, tail, head, label = e
    if tail == head:
        raise RealdimError(f"cannot contract selfloop {eid}")
    if survivor is None:
        survivor = min(tail, head)
    elif survivor not in (tail, head):
        raise RealdimError("survivor must be an endpoint of the contracted edge")
    gone = head if survivor == tail else tail
    kept: dict = {}  # orbit key -> edge with the smallest id
    for fid in inc[survivor] + inc.pop(gone):
        f = edges.pop(fid, None)
        if f is None:
            continue
        _, t, h, z = f
        if t != h:  # switch the head, which leaves loops alone
            z += label if t == head else -label if h == head else 0
        t, h = survivor if t == gone else t, survivor if h == gone else h
        if (fid, t, h, z) != f:
            f = GainEdge(fid, t, h, z)
        key = orbit_key(t, h, z)
        if key not in kept or fid < kept[key].id:
            kept[key] = f
    edges.update((f.id, f) for f in kept.values())
    inc[survivor] = [f.id for f in kept.values()]


def canonical_state(n: int, triples) -> tuple:
    """Canonical ``(n, sorted orbit keys)`` of the graph on vertices 1..n
    with the given edge orbit keys: equal iff the graphs are isomorphic
    (equal after switchings, edge inversions and a vertex bijection).

    It tries the BFS orderings only: the next vertex is an unvisited
    neighbour, of least degree/multiplicity/loop invariant, of the earliest
    vertex that still has one; when a component is used up, an unvisited
    vertex of least invariant starts the next.  Only ties branch.  Each
    vertex joins switched so that the smallest gain read from its parent
    is 0, and each root with potential 0; switching shifts every gain of a
    pair by one constant, so that edge does not depend on the labelling.
    Vertices are renumbered in the order they join.  The result is the
    least encoding over the orderings.
    """
    loops: list = [[] for _ in range(n + 1)]
    nbr: list = [{} for _ in range(n + 1)]  # nbr[u][w]: the gains read from u
    for a, b, z in triples:
        if a == b:
            loops[a].append(z)
        else:
            nbr[a].setdefault(b, []).append(z)
            nbr[b].setdefault(a, []).append(-z)
    inv = [(len(d), sorted(map(len, d.values())), sorted(lp)) for d, lp in zip(nbr, loops)]
    best = None

    def grow(order: list, phi: list, head: int) -> None:
        nonlocal best
        while len(order) < n:
            while head < len(order):
                u = order[head]
                ties = [w for w in nbr[u] if phi[w] is None]
                if ties:
                    break
                head += 1
            else:
                u = None
                ties = [w for w in range(1, n + 1) if phi[w] is None]
            if len(ties) > 1:
                low = min(inv[w] for w in ties)
                # Isolated roots of one invariant are interchangeable.
                ties = [w for w in ties if inv[w] == low][:None if low[0] else 1]
            for w in ties[1:]:
                more = phi[:]
                more[w] = 0 if u is None else phi[u] + min(nbr[u][w])
                grow(order + [w], more, head)
            w = ties[0]
            phi[w] = 0 if u is None else phi[u] + min(nbr[u][w])
            order.append(w)
        pos = [0] * (n + 1)
        for k, v in enumerate(order, start=1):
            pos[v] = k
        cand = sorted((pos[a], pos[b], z + phi[a] - phi[b]) if pos[a] <= pos[b]
                      else (pos[b], pos[a], phi[b] - phi[a] - z) for a, b, z in triples)
        if best is None or cand < best:
            best = cand

    grow([], [None] * (n + 1), 0)
    return n, tuple(best)
