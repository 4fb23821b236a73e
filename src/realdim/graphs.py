"""Integer-labelled directed multigraphs and their elementary operations.

A gain graph here is the quotient description of a graph with a free
Z-symmetry and finitely many vertex orbits: finitely many vertices, and
directed edges carrying an integer shift label.  Reversing an edge's
orientation while negating its label describes the same edge orbit, so
edges are orientation-ambivalent objects with a stored convention.

A labelling is *simple* when selfloops carry nonzero labels and no two
parallel edges describe the same orbit (same direction with the same
label, or opposite directions with opposite labels).  Every operation in
this module keeps graphs simple.

Switching a vertex by an integer re-selects the representative of that
vertex orbit; it adds the integer to outgoing labels and subtracts it
from incoming ones, leaving selfloops alone.  Switching, edge inversion
and vertex renaming generate the isomorphism notion implemented by
:meth:`GainGraph.canonical_form`.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import BoundExceededError, RealdimError, SimplicityError


@dataclass(frozen=True)
class GainEdge:
    """A directed edge with an integer label."""

    id: int
    tail: int
    head: int
    label: int

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head

    def inverted(self) -> "GainEdge":
        return GainEdge(self.id, self.head, self.tail, -self.label)

    def pair(self) -> frozenset:
        return frozenset((self.tail, self.head))

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

    def same_content(self, other: "GainEdge") -> bool:
        """Equal as labelled edges up to inversion (ids ignored)."""
        return (self.tail, self.head, self.label) in (
            (other.tail, other.head, other.label),
            (other.head, other.tail, -other.label),
        )


@dataclass(frozen=True)
class Violation:
    """One simplicity violation: a bad loop or a duplicate parallel pair."""

    kind: str  # "zero-loop" | "duplicate-parallel" | "duplicate-loop"
    edge_ids: tuple
    message: str


def _simplicity_violations(edges) -> list:
    violations = []
    nonloop_groups: dict = {}
    loop_groups: dict = {}
    for e in edges:
        if e.is_loop:
            if e.label == 0:
                violations.append(
                    Violation("zero-loop", (e.id,), f"selfloop {e.id} at {e.tail} has label 0")
                )
            loop_groups.setdefault((e.tail, abs(e.label)), []).append(e.id)
        else:
            a, b = min(e.tail, e.head), max(e.tail, e.head)
            gain = e.label if e.tail == a else -e.label
            nonloop_groups.setdefault((a, b, gain), []).append(e.id)
    for (a, b, gain), ids in sorted(nonloop_groups.items()):
        if len(ids) > 1:
            violations.append(
                Violation(
                    "duplicate-parallel",
                    tuple(sorted(ids)),
                    f"edges {sorted(ids)} between {a} and {b} describe the same orbit",
                )
            )
    for (v, a), ids in sorted(loop_groups.items()):
        if len(ids) > 1:
            violations.append(
                Violation(
                    "duplicate-loop",
                    tuple(sorted(ids)),
                    f"selfloops {sorted(ids)} at {v} describe the same orbit",
                )
            )
    return violations


class SimpleGraph:
    """Loopless undirected graph without multiplicities.

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
        self._adj: dict = {v: set() for v in self.vertices}
        for pair in self.edges:
            a, b = tuple(pair)
            self._adj[a].add(b)
            self._adj[b].add(a)

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"SimpleGraph({sorted(self.vertices)}, {sorted(map(sorted, self.edges))})"

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v) -> set:
        return set(self._adj[v])

    def degree(self, v) -> int:
        return len(self._adj[v])

    def adjacent(self, a, b) -> bool:
        return b in self._adj.get(a, ())

    def components(self) -> list:
        """Connected components as frozensets, deterministically ordered."""
        seen = set()
        comps = []
        for start in sorted(self.vertices):
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_spanning_connected(self, vertices) -> bool:
        """Connected and touching every vertex of the given set."""
        vs = frozenset(vertices)
        if not vs <= self.vertices:
            return False
        if self.vertices != vs:
            return False
        return self.is_connected()

    def is_forest(self) -> bool:
        return all(
            sum(1 for e in self.edges if e <= comp) == len(comp) - 1
            for comp in self.components()
        )

    def find_cycle(self):
        """Return some cycle as a vertex list, or None.  DFS based."""
        parent: dict = {}
        for start in sorted(self.vertices):
            if start in parent:
                continue
            parent[start] = None
            stack = [start]
            order = {start: 0}
            while stack:
                u = stack.pop()
                for w in sorted(self._adj[u]):
                    if w not in parent:
                        parent[w] = u
                        order[w] = order[u] + 1
                        stack.append(w)
                    elif w != parent[u] and order.get(w) is not None:
                        # back or cross edge in the DFS forest: walk both
                        # endpoints up to their meeting point.
                        pu = [u]
                        pw = [w]
                        a, b = u, w
                        while order[a] > order[b]:
                            a = parent[a]
                            pu.append(a)
                        while order[b] > order[a]:
                            b = parent[b]
                            pw.append(b)
                        while a != b:
                            a = parent[a]
                            b = parent[b]
                            pu.append(a)
                            pw.append(b)
                        cycle = pu + pw[-2::-1]
                        if len(cycle) >= 3:
                            return cycle
        return None

    def articulation_points(self) -> set:
        return {v for v, _ in self._biconnected(components=False)}

    def blocks(self) -> list:
        """Biconnected components as (vertex frozenset, edge frozenset).

        Bridges are blocks of one edge.  Isolated vertices yield no block.
        """
        out = []
        for _, edges in self._biconnected(components=True):
            vs = frozenset(itertools.chain.from_iterable(edges))
            out.append((vs, frozenset(edges)))
        return out

    def _biconnected(self, components: bool):
        # Iterative Hopcroft-Tarjan with an edge stack.
        visited = set()
        for start in sorted(self.vertices):
            if start in visited:
                continue
            discovery = {start: 0}
            low = {start: 0}
            root_children = 0
            visited.add(start)
            edge_stack = []
            stack = [(start, start, iter(sorted(self._adj[start])))]
            while stack:
                grandparent, parent, children = stack[-1]
                child = next(children, None)
                if child is not None:
                    if grandparent == child:
                        continue
                    if child in visited:
                        if discovery[child] <= discovery[parent]:
                            low[parent] = min(low[parent], discovery[child])
                            if components:
                                edge_stack.append(frozenset((parent, child)))
                    else:
                        low[child] = discovery[child] = len(discovery)
                        visited.add(child)
                        stack.append((parent, child, iter(sorted(self._adj[child]))))
                        if components:
                            edge_stack.append(frozenset((parent, child)))
                else:
                    stack.pop()
                    if len(stack) > 1:
                        if low[parent] >= discovery[grandparent]:
                            if components:
                                ind = edge_stack.index(frozenset((grandparent, parent)))
                                yield grandparent, tuple(edge_stack[ind:])
                                del edge_stack[ind:]
                            else:
                                yield grandparent, ()
                        low[grandparent] = min(low[parent], low[grandparent])
                    elif stack:
                        root_children += 1
                        if components:
                            ind = edge_stack.index(frozenset((grandparent, parent)))
                            yield None, tuple(edge_stack[ind:])
                            del edge_stack[ind:]
            if not components and root_children > 1:
                yield start, ()

    def is_complete(self) -> bool:
        n = self.n
        return self.m == n * (n - 1) // 2


@dataclass(frozen=True)
class WalkWitness:
    """A closed walk with nonzero gain, certifying unbalancedness.

    ``sequence`` alternates vertices and edges, starting and ending at the
    same vertex: (v0, e1, v1, ..., ek, v0).  A selfloop step is direction-
    ambiguous (the sequence cannot say which way it was traversed), so its
    contribution is accepted with either sign.
    """

    sequence: tuple
    gain: int

    def verify(self, graph: "GainGraph") -> bool:
        seq = self.sequence
        if len(seq) < 3 or len(seq) % 2 == 0 or seq[0] != seq[-1]:
            return False
        totals = {0}
        for k in range(1, len(seq), 2):
            u, e, w = seq[k - 1], seq[k], seq[k + 1]
            edge = graph.edge(e.id if isinstance(e, GainEdge) else e)
            if edge.is_loop:
                if not (u == w == edge.tail):
                    return False
                totals = {t + edge.label for t in totals} | {
                    t - edge.label for t in totals
                }
            elif edge.tail == u and edge.head == w:
                totals = {t + edge.label for t in totals}
            elif edge.head == u and edge.tail == w:
                totals = {t - edge.label for t in totals}
            else:
                return False
        return self.gain != 0 and self.gain in totals


@dataclass(frozen=True)
class BalanceResult:
    """Outcome of the balance test.

    ``potentials`` is the switching computed from a spanning forest; for a
    balanced graph, switching by it makes every label zero.
    """

    balanced: bool
    witness: WalkWitness | None
    potentials: dict


class GainGraph:
    """A finite directed multigraph with a simple integer edge labelling.

    Vertices are distinct integers kept as a sorted tuple; matrix-building
    code indexes vertices by their position in that tuple.  Minor
    operations keep surviving ids stable rather than re-indexing, so
    certificates can refer to vertices and edges across operations.

    Instances are treated as immutable: every operation returns a new
    graph.
    """

    def __init__(self, vertices: Iterable[int], edges: Iterable[GainEdge] = (),
                 check_simple: bool = True):
        self.vertices = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        edges = tuple(sorted(edges, key=lambda e: e.id))
        ids = [e.id for e in edges]
        if len(set(ids)) != len(ids):
            raise RealdimError("duplicate edge ids")
        for e in edges:
            if e.tail not in vset or e.head not in vset:
                raise RealdimError(f"edge {e.id} uses unknown vertices")
        self.edges = edges
        if check_simple:
            violations = _simplicity_violations(edges)
            if violations:
                raise SimplicityError(violations)
        self._by_id = {e.id: e for e in edges}
        self._vset = vset

    # -- construction helpers -------------------------------------------------

    @classmethod
    def of(cls, n: int, triples: Iterable[tuple], check_simple: bool = True) -> "GainGraph":
        """Build a graph on vertices 1..n from (tail, head, label) triples."""
        edges = [GainEdge(i, t, h, z) for i, (t, h, z) in enumerate(triples, start=1)]
        return cls(range(1, n + 1), edges, check_simple=check_simple)

    def replace_edges(self, edges, check_simple=True) -> "GainGraph":
        return GainGraph(self.vertices, edges, check_simple=check_simple)

    def with_edge(self, tail: int, head: int, label: int, id: int | None = None) -> "GainGraph":
        eid = self.fresh_edge_id() if id is None else id
        return self.replace_edges(self.edges + (GainEdge(eid, tail, head, label),))

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

    def has_vertex(self, v: int) -> bool:
        return v in self._vset

    def loops_at(self, v: int) -> list:
        return [e for e in self.edges if e.is_loop and e.tail == v]

    def edges_between(self, a: int, b: int) -> list:
        """Edges joining a and b in either orientation (loops if a == b)."""
        if a == b:
            return self.loops_at(a)
        want = {a, b}
        return [e for e in self.edges if not e.is_loop and {e.tail, e.head} == want]

    def multiplicity(self, a: int, b: int) -> int:
        return len(self.edges_between(a, b)) if a != b else 0

    def all_zero(self) -> bool:
        return all(e.label == 0 for e in self.edges)

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
        if v not in self._vset:
            raise RealdimError(f"unknown vertex {v}")
        out = []
        for e in self.edges:
            if e.is_loop:
                out.append(e)
            elif e.tail == v:
                out.append(GainEdge(e.id, e.tail, e.head, e.label + gamma))
            elif e.head == v:
                out.append(GainEdge(e.id, e.tail, e.head, e.label - gamma))
            else:
                out.append(e)
        return self.replace_edges(out)

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
        return self.replace_edges(out)

    def invert_edge(self, eid: int) -> "GainGraph":
        e = self.edge(eid)
        out = [f.inverted() if f.id == eid else f for f in self.edges]
        return self.replace_edges(out)

    def delete_edge(self, eid: int) -> "GainGraph":
        self.edge(eid)
        return self.replace_edges([e for e in self.edges if e.id != eid])

    def delete_edges(self, eids) -> "GainGraph":
        drop = set(eids)
        for eid in drop:
            self.edge(eid)
        return self.replace_edges([e for e in self.edges if e.id not in drop])

    def delete_vertex(self, v: int) -> "GainGraph":
        if v not in self._vset:
            raise RealdimError(f"unknown vertex {v}")
        keep = [e for e in self.edges if v not in (e.tail, e.head)]
        return GainGraph((u for u in self.vertices if u != v), keep)

    def induced(self, vertices) -> "GainGraph":
        vs = set(vertices)
        if not vs <= self._vset:
            raise RealdimError("induced set contains unknown vertices")
        keep = [e for e in self.edges if e.tail in vs and e.head in vs]
        return GainGraph(vs, keep)

    def contract_edge(self, eid: int, survivor: int | None = None) -> "GainGraph":
        """Contract a non-loop edge, switching its label to zero first.

        The endpoints merge into ``survivor`` (the smaller endpoint by
        default).  Zero-label selfloops created by the merge are dropped,
        and among parallel edges that now describe the same orbit the one
        with the smallest id is kept.  All retention choices give
        isomorphic results; this one is deterministic.
        """
        e = self.edge(eid)
        if e.is_loop:
            raise RealdimError(f"cannot contract selfloop {eid}")
        g = self if e.label == 0 else self.switch(e.head, e.label)
        e = g.edge(eid)
        if survivor is None:
            survivor = min(e.tail, e.head)
        elif survivor not in (e.tail, e.head):
            raise RealdimError("survivor must be an endpoint of the contracted edge")
        gone = e.head if survivor == e.tail else e.tail

        def move(v):
            return survivor if v == gone else v

        merged = []
        for f in g.edges:
            if f.id == eid:
                continue
            t, h = move(f.tail), move(f.head)
            if t == h and f.label == 0:
                continue
            merged.append(GainEdge(f.id, t, h, f.label))

        kept: dict = {}
        for f in merged:
            if f.is_loop:
                key = ("loop", f.tail, abs(f.label))
            else:
                a, b = min(f.tail, f.head), max(f.tail, f.head)
                key = ("pair", a, b, f.gain_from(a))
            if key not in kept or f.id < kept[key].id:
                kept[key] = f
        return GainGraph((u for u in self.vertices if u != gone), kept.values())

    # -- derived graphs ----------------------------------------------------------

    def underlying_simple_graph(self) -> SimpleGraph:
        """Forget loops, orientation, labels, and multiplicity."""
        pairs = {e.pair() for e in self.edges if not e.is_loop}
        return SimpleGraph(self.vertices, pairs)

    def multiplicity_graph(self) -> SimpleGraph:
        """Vertices joined by at least two parallel edges become adjacent."""
        pairs = set()
        count: dict = {}
        for e in self.edges:
            if e.is_loop:
                continue
            count[e.pair()] = count.get(e.pair(), 0) + 1
        for pair, c in count.items():
            if c >= 2:
                pairs.add(pair)
        return SimpleGraph(self.vertices, pairs)

    def lift_window(self, shift_min: int, shift_max: int) -> SimpleGraph:
        """Finite induced slice of the periodic lift over a shift range.

        Lift vertices are pairs (vertex, shift); a quotient edge (i, j; z)
        contributes {(i, s), (j, s + z)} for every shift s such that both
        endpoints fall in the window.
        """
        if shift_min > shift_max:
            raise RealdimError("empty shift window")
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

    def _spanning_forest(self):
        """BFS forest over the underlying simple graph.

        Returns (parent edge per vertex, BFS order).  Tree edges are the
        smallest-id edge of each parent/child pair, which keeps the forest
        independent of the labelling.
        """
        parent_edge: dict = {}
        order = []
        seen = set()
        adj: dict = {v: {} for v in self.vertices}
        for e in self.edges:
            if e.is_loop:
                continue
            for a, b in ((e.tail, e.head), (e.head, e.tail)):
                cur = adj[a].get(b)
                if cur is None or e.id < cur.id:
                    adj[a][b] = e
        for root in self.vertices:
            if root in seen:
                continue
            seen.add(root)
            parent_edge[root] = None
            order.append(root)
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for w in sorted(adj[u]):
                    if w not in seen:
                        seen.add(w)
                        parent_edge[w] = adj[u][w]
                        order.append(w)
                        queue.append(w)
        return parent_edge, order

    def balance(self) -> BalanceResult:
        """Decide balance; on failure return an unbalanced closed walk.

        Potentials come from zeroing a spanning forest: a graph is balanced
        iff afterwards every remaining edge (and every selfloop) has label
        zero.
        """
        parent_edge, order = self._spanning_forest()
        phi: dict = {}
        for v in order:
            e = parent_edge[v]
            if e is None:
                phi[v] = 0
            else:
                u = e.other(v)
                # Switching by phi sends label z to z + phi(tail) - phi(head);
                # the tree edge (u, v) becomes 0 when phi(v) = phi(u) + gain.
                phi[v] = phi[u] + e.gain_from(u)

        for e in self.edges:
            if e.is_loop:
                witness = WalkWitness((e.tail, e, e.tail), e.label)
                return BalanceResult(False, witness, phi)
            residual = e.label + phi[e.tail] - phi[e.head]
            if residual != 0:
                # Tree edges have residual 0 by construction, so e is not one.
                witness = self._cycle_through(e, parent_edge, residual)
                return BalanceResult(False, witness, phi)
        return BalanceResult(True, None, phi)

    def _cycle_through(self, e: GainEdge, parent_edge: dict, gain: int) -> WalkWitness:
        # Close the non-tree edge e with the tree path head -> tail.
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

    def is_balanced(self) -> bool:
        return self.balance().balanced

    # -- canonical form -----------------------------------------------------------

    def canonical_form(self, max_vertices: int = 8):
        """Hashable encoding equal for two graphs iff they are isomorphic.

        Isomorphism means: equal after some sequence of switchings, edge
        inversions, and a vertex bijection.  The encoding enumerates vertex
        orderings (restricted to invariant-respecting ones), normalises the
        labelling over each spanning forest, orients edges small-to-large,
        and takes the lexicographic minimum.  Exhaustive, hence the size
        bound.
        """
        if self.n > max_vertices:
            raise BoundExceededError(
                f"canonical_form bound is {max_vertices} vertices, graph has {self.n}"
            )

        loops: dict = {v: [] for v in self.vertices}
        pair_edges: dict = {}
        si_adj: dict = {v: set() for v in self.vertices}
        for e in self.edges:
            if e.is_loop:
                loops[e.tail].append(abs(e.label))
            else:
                pair_edges.setdefault(e.pair(), []).append(e)
                si_adj[e.tail].add(e.head)
                si_adj[e.head].add(e.tail)
        for v in loops:
            loops[v].sort()

        def invariant(v):
            mults = sorted(len(pair_edges[frozenset((v, w))]) for w in si_adj[v])
            return (len(si_adj[v]), tuple(mults), tuple(loops[v]))

        groups: dict = {}
        for v in self.vertices:
            groups.setdefault(invariant(v), []).append(v)
        group_keys = sorted(groups)

        best = None
        for perm_parts in itertools.product(
            *(itertools.permutations(groups[k]) for k in group_keys)
        ):
            ordering = tuple(itertools.chain.from_iterable(perm_parts))
            pos = {v: k for k, v in enumerate(ordering, start=1)}
            cand = self._encode_under(pos, si_adj, pair_edges, loops)
            if best is None or cand < best:
                best = cand
        return (self.n, best)

    def _encode_under(self, pos, si_adj, pair_edges, loops):
        # BFS forest in relabelled order; label-independent by construction.
        by_pos = sorted(pos, key=pos.get)
        seen: set = set()
        tree: list = []  # (parent, child) pairs in original names
        for root in by_pos:
            if root in seen:
                continue
            seen.add(root)
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for w in sorted(si_adj[u], key=pos.get):
                    if w not in seen:
                        seen.add(w)
                        tree.append((u, w))
                        queue.append(w)

        loop_triples = tuple(
            sorted((pos[v], pos[v], a) for v in loops for a in loops[v])
        )

        candidates = [pair_edges[frozenset(t)] for t in tree]
        combos = 1
        for c in candidates:
            combos *= len(c)
        if combos > 200000:
            raise BoundExceededError(
                "too many parallel-edge normalizations to canonicalize"
            )
        best = None
        for choice in itertools.product(*candidates):
            phi = {v: 0 for v in pos}
            for (u, w), e in zip(tree, choice):
                phi[w] = phi[u] + e.gain_from(u)
            triples = list(loop_triples)
            for es in pair_edges.values():
                for e in es:
                    z = e.label + phi[e.tail] - phi[e.head]
                    a, b = pos[e.tail], pos[e.head]
                    if a > b:
                        a, b, z = b, a, -z
                    triples.append((a, b, z))
            cand = tuple(sorted(triples))
            if best is None or cand < best:
                best = cand
        return best


# -- checks and composition -----------------------------------------------------


def validate_simple(g: GainGraph) -> list:
    """Return all simplicity violations (empty list means simple)."""
    return _simplicity_violations(g.edges)


def _check_shared_ids(g1: GainGraph, g2: GainGraph):
    shared = set(e.id for e in g1.edges) & set(e.id for e in g2.edges)
    for eid in sorted(shared):
        if not g1.edge(eid).same_content(g2.edge(eid)):
            raise RealdimError(
                f"edge {eid} has conflicting endpoints or label in the two graphs"
            )
    return shared


def union(g1: GainGraph, g2: GainGraph) -> GainGraph:
    """Edgewise and vertexwise union over a shared id universe."""
    shared = _check_shared_ids(g1, g2)
    edges = list(g1.edges) + [e for e in g2.edges if e.id not in shared]
    return GainGraph(set(g1.vertices) | set(g2.vertices), edges)


def intersection(g1: GainGraph, g2: GainGraph) -> GainGraph:
    shared = _check_shared_ids(g1, g2)
    vs = set(g1.vertices) & set(g2.vertices)
    return GainGraph(vs, [e for e in g1.edges if e.id in shared])


@dataclass(frozen=True)
class KSumRecord:
    """Decomposition record attached to a balanced k-sum."""

    k: int
    shared_vertices: tuple
    shared_edge_ids: tuple


def balanced_k_sum(g1: GainGraph, g2: GainGraph) -> tuple:
    """Glue an all-zero-labelled graph to another along a balanced clique.

    Requires every label of ``g1`` to be zero and the intersection to be a
    complete all-zero graph on the shared vertices.  Returns the union and
    the decomposition record.
    """
    if not g1.all_zero():
        raise RealdimError("first summand must have all labels zero")
    inter = intersection(g1, g2)
    shared = inter.vertices
    k = len(shared)
    if any(e.is_loop or e.label != 0 for e in inter.edges):
        raise RealdimError("intersection is not an all-zero complete graph")
    for a, b in itertools.combinations(shared, 2):
        if not inter.edges_between(a, b):
            raise RealdimError(
                f"intersection misses the edge between shared vertices {a} and {b}"
            )
    record = KSumRecord(k, shared, tuple(sorted(e.id for e in inter.edges)))
    return union(g1, g2), record
