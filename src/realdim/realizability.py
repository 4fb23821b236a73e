"""Polynomial-time realizability deciders with certificates.

``is_1_realizable`` answers whether the periodic lift of a labelled
quotient graph always admits equivalent line realizations; the criterion
is the absence of any cycle other than selfloops.  ``is_2_realizable``
strips selfloops, splits the graph into blocks once, and runs one loop
of series reductions per block on one mutable multigraph, removing a
degree-two vertex by contracting one of its edges (both multiplicities
one) or by deleting it after a balance check (one doubled side).  Labels
stay in the input's frame: a contraction writes the gain of the path it
replaces onto the surviving edge, so no step switches or rebuilds the
graph, nothing recurses, and the work is near-linear.

Every *yes* comes with a decomposition tree whose leaves are single
edges/vertices (dimension one) or balanced triangles and two-vertex
graphs (dimension two), written as a table of rows in post-order: a
block appends one triangle two-sum per reduction, and one-sum layers are
glued as chains in the order they are found.  Every *no*, at any size,
comes with a minor witness whose replay reaches a forbidden shape: a
parallel pair or balanced triangle for dimension one; the
doubled-double-pair triangle or the balanced complete graph on four
vertices for dimension two.  Where the simplified graph has a K4 minor,
the witness contracts a K4 subdivision.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass

from .certificates import DISJOINT_UNION, LEAF, DecompositionTree, RealizabilityVerdict, Row
from .errors import RealdimError
from .graphs import GainEdge, GainGraph, SimpleGraph
from .minors import (
    K3_BULLETBULLET,
    MinorOp,
    MinorPattern,
    MinorWitness,
    balanced_complete_pattern,
    finite_has_minor,
    finite_rd_upper3,
)

K2_BULLET_PATTERN = MinorPattern.family("k2-bullet")
K3BB_PATTERN = MinorPattern.family(K3_BULLETBULLET)
K3_ZERO_PATTERN = balanced_complete_pattern(3)
K4_ZERO_PATTERN = balanced_complete_pattern(4)


def _require_nonempty(g: GainGraph):
    if g.n == 0:
        raise RealdimError("realizability is undefined for the empty graph")


def _prefix(witness: MinorWitness, ops) -> MinorWitness:
    """Put ops before a minor witness."""
    return MinorWitness(witness.pattern, tuple(ops) + witness.ops)


# ---------------------------------------------------------------------------
# dimension 1
# ---------------------------------------------------------------------------


def is_1_realizable(g: GainGraph) -> RealizabilityVerdict:
    """Line realizability: no parallel pair and a forest after ignoring loops."""
    _require_nonempty(g)
    pair = _smallest_parallel_pair(g)
    if pair is not None:
        return RealizabilityVerdict(1, False, _witness_parallel_pair(g, *pair))
    cycle = g.underlying_simple_graph().find_cycle()
    if cycle is not None:
        return RealizabilityVerdict(1, False, _witness_simple_cycle(g, cycle))
    return RealizabilityVerdict(1, True, _forest_tree(g))


def _smallest_parallel_pair(g: GainGraph):
    count: dict = {}
    for e in g.edges:
        if not e.is_loop:
            pair = (min(e.tail, e.head), max(e.tail, e.head))
            count[pair] = count.get(pair, 0) + 1
    return min((pair for pair, c in count.items() if c >= 2), default=None)


def _keep_only(g: GainGraph, keep_vertices, keep_edge_ids) -> list:
    """Deletion ops trimming g to a vertex/edge subset; edges first."""
    return ([MinorOp("delete_edge", e.id) for e in g.edges if e.id not in keep_edge_ids]
            + [MinorOp("delete_vertex", v) for v in g.vertices if v not in keep_vertices])


def _smallest_ids(g: GainGraph, a: int, b: int, k: int) -> set:
    """The k smallest ids among the edges joining a and b."""
    return set(sorted(e.id for e in g.edges_between(a, b))[:k])


def _witness_parallel_pair(g: GainGraph, a: int, b: int) -> MinorWitness:
    ops = _keep_only(g, {a, b}, _smallest_ids(g, a, b, 2))
    return MinorWitness(K2_BULLET_PATTERN, tuple(ops))


def _path_edges(g: GainGraph, path: list) -> list:
    """The smallest-id edge joining each consecutive pair of a vertex path."""
    smallest: dict = {}
    for e in g.edges:
        if not e.is_loop and (e.pair() not in smallest or e.id < smallest[e.pair()].id):
            smallest[e.pair()] = e
    return [smallest[frozenset(pair)] for pair in zip(path, path[1:])]


def _witness_simple_cycle(g: GainGraph, cycle: list) -> MinorWitness:
    """Contract a cycle to a balanced triangle or an unbalanced pair."""
    edges = _path_edges(g, cycle + cycle[:1])
    gain = sum(e.gain_from(cycle[i]) for i, e in enumerate(edges))
    ops = _keep_only(g, set(cycle), {e.id for e in edges})
    k = len(cycle)
    target = 3 if gain == 0 else 2
    # merge cycle[1], ..., cycle[k-target] into cycle[0]
    for i in range(k - target):
        ops.append(MinorOp("contract_edge", edges[i].id, cycle[0]))
    pattern = K3_ZERO_PATTERN if gain == 0 else K2_BULLET_PATTERN
    return MinorWitness(pattern, tuple(ops))


def _forest_tree(g: GainGraph) -> DecompositionTree:
    pieces = [((e.tail, e.head), [Row.leaf((e.tail, e.head), (e,))])
              for e in g.edges if not e.is_loop]
    return _glue(g.vertices, pieces + _loop_pieces(g.edges))


# -- one-sum layers --------------------------------------------------------------


def _loop_pieces(edges) -> list:
    """One leaf per vertex holding all of its selfloops."""
    by_vertex: dict = {}
    for e in edges:
        if e.is_loop:
            by_vertex.setdefault(e.tail, []).append(e)
    return [((v,), [Row.leaf((v,), by_vertex[v])]) for v in sorted(by_vertex)]


def _glue(vertices, pieces) -> DecompositionTree:
    """Glue pieces into one table: one-sums within each component, then one
    disjoint union of the components.

    ``pieces`` are (vertices, rows) pairs that pairwise share at most one
    vertex and whose block-cut graph is a forest.  A component is walked
    breadth-first from its first piece, and each piece reached is
    one-summed onto the rows before it at the vertex that reached it: it
    shares no other vertex with them, since the block-cut graph has no
    cycle.  A vertex in no piece becomes a one-vertex leaf.  Components
    come in order of their least vertex.
    """
    at: dict = {}
    for i, (vs, _) in enumerate(pieces):
        for v in vs:
            at.setdefault(v, []).append(i)
    rows: list = []
    components = 0
    reached: set = set()
    taken: set = set()
    for v in sorted(vertices):
        if v in reached:
            continue
        components += 1
        if v not in at:
            rows.append(Row(LEAF, (v,)))
            continue
        taken.add(at[v][0])
        queue = [(at[v][0], None)]
        for i, via in queue:
            vs, piece_rows = pieces[i]
            rows += piece_rows
            if via is not None:
                rows.append(Row.one_sum(via))
            for u in vs:
                if u not in reached:
                    reached.add(u)
                    for j in at[u]:
                        if j not in taken:
                            taken.add(j)
                            queue.append((j, u))
    if components > 1:
        rows.append(Row(DISJOINT_UNION, children=components))
    return DecompositionTree(tuple(rows))


# ---------------------------------------------------------------------------
# dimension 2
# ---------------------------------------------------------------------------


def is_2_realizable(g: GainGraph) -> RealizabilityVerdict:
    """Plane realizability, decided by series reductions in each block."""
    _require_nonempty(g)
    alloc = itertools.count(g.fresh_edge_id())
    loops = [e for e in g.edges if e.is_loop]
    core = g.delete_edges([e.id for e in loops]) if loops else g
    res = _decide2_split(core, alloc, loops)
    if isinstance(res, DecompositionTree):
        return RealizabilityVerdict(2, True, res)
    witness = _prefix(res, [MinorOp("delete_edge", e.id) for e in loops])
    return RealizabilityVerdict(2, False, witness)


def _decide2_split(h: GainGraph, alloc, loops):
    """Decide every block, then glue blocks and selfloop leaves by one-sums."""
    si = h.underlying_simple_graph()
    comps = si.components()
    blocks = si.blocks()
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    blocks_in = [0] * len(comps)
    for vset, _ in blocks:
        blocks_in[comp_of[min(vset)]] += 1
    by_pair: dict = {}
    for e in h.edges:
        by_pair.setdefault(e.pair(), []).append(e)

    pieces = []
    for vset, eset in blocks:
        res = _decide2_block(vset, [e for pair in eset for e in by_pair[pair]], alloc)
        if isinstance(res, MinorWitness):
            # Trim to the component, then to the block within it.
            ci = comp_of[min(vset)]
            comp = comps[ci]
            ops = []
            if len(comps) > 1:
                ops += [MinorOp("delete_vertex", u) for u in h.vertices if u not in comp]
            if blocks_in[ci] > 1:
                ops += [
                    MinorOp("delete_edge", e.id)
                    for e in h.edges
                    if e.tail in comp and e.pair() not in eset
                ]
                ops += [MinorOp("delete_vertex", u) for u in sorted(comp) if u not in vset]
            return _prefix(res, ops)
        pieces.append((vset, res))
    return _glue(h.vertices, pieces + _loop_pieces(loops))


def _add(adj: dict, e: GainEdge):
    """Put e into a multigraph held as {u: {w: {orbit key: edge}}}.

    Both ends of a pair share one edge dict.  An edge landing on an orbit
    already present keeps the smaller id, as ``GainGraph.contract_edge``
    does.
    """
    by_orbit = adj[e.tail].get(e.head)
    if by_orbit is None:
        by_orbit = adj[e.tail][e.head] = adj[e.head][e.tail] = {}
    old = by_orbit.get(e.orbit_key())
    if old is None or e.id < old.id:
        by_orbit[e.orbit_key()] = e


def _edges(adj: dict):
    return (e for a in adj for b, es in adj[a].items() if a < b for e in es.values())


def _graph(adj: dict) -> GainGraph:
    return GainGraph(adj, _edges(adj))


def _series_edge(ea: GainEdge, eb: GainEdge, w: int, a: int) -> GainEdge:
    """The edge eb (w-b) after contracting ea (w-a) into a.

    It keeps its id and orientation, and carries the gain of the path
    a-w-b, so its label stays in the input frame.
    """
    gain = eb.gain_from(w) - ea.gain_from(w)
    if eb.tail == w:
        return GainEdge(eb.id, a, eb.head, gain)
    return GainEdge(eb.id, eb.tail, a, -gain)


def _triangle_sum(alloc, w: int, a: int, b: int, ga: int, gb: int) -> list:
    """Rows that two-sum a balanced triangle on {w, a, b} along a-b onto the
    rows before them.

    The triangle reads gain ga towards a and gb towards b from w; its
    edges get fresh ids, since a real id may sit on other endpoints
    elsewhere in the tree.
    """
    i, j, k = next(alloc), next(alloc), next(alloc)
    triangle = ((i, w, a, ga), (j, w, b, gb), (k, a, b, gb - ga))
    return [Row(LEAF, tuple(sorted((w, a, b))), triangle), Row.two_sum((a, b), zero_child=1)]


def _decide2_block(vertices, edges, alloc):
    """Decide one two-connected block by series reductions, without recursion.

    Each step removes the smallest degree-two vertex v, with neighbours
    x < y: it is contracted into x when single towards both, and deleted
    after a balance check when doubled towards one (adding x-y if missing;
    the piece on {v, x, y} becomes a summand of its own).  Reductions keep
    the block two-connected, so it ends at a triangle; after a deletion
    step the graph is balanced and only contractions follow.  The rows are
    written from the final triangle back through the list of steps, each
    step gluing its triangle (and piece) onto the rows before it.
    """
    if len(vertices) <= 2:
        return [Row.leaf(vertices, edges)]
    adj: dict = {v: {} for v in vertices}
    for e in edges:
        _add(adj, e)
    # A reduction never raises a degree, so a degree-two vertex stays on the
    # heap until it is removed.
    degree_two = sorted(v for v in adj if len(adj[v]) == 2)
    # (w, a, b, gain w->a, gain w->b, None) for a contraction of w into a,
    # (y, x, v, gain y->x, gain y->v, piece leaf row) for a deletion of v.
    steps = []
    ops = []  # minor ops that replay the steps taken
    k4_host = None  # the graph and ops at a deletion step that added x-y

    def contract(w, a, b):
        (ea,), (eb,) = adj[w][a].values(), adj[w][b].values()
        steps.append((w, a, b, ea.gain_from(w), eb.gain_from(w), None))
        ops.append(MinorOp("contract_edge", ea.id, a))
        for u in adj.pop(w):
            del adj[u][w]
        _add(adj, _series_edge(ea, eb, w, a))

    while len(adj) > 3:
        while degree_two and degree_two[0] not in adj:
            heapq.heappop(degree_two)
        if not degree_two:
            # By Dirac (1952) the simplified graph has a K4 subdivision.  A
            # graph after a deletion step that added x-y is balanced, so it
            # can fail only here; rerouting x-y through the deleted vertex
            # gives a K4 subdivision of the graph at that step.
            h, pre = k4_host or (_graph(adj), ops)
            return _prefix(_witness_k4(h, h.underlying_simple_graph()), pre)
        v = heapq.heappop(degree_two)
        x, y = sorted(adj[v])
        vx, vy = list(adj[v][x].values()), list(adj[v][y].values())
        if len(vx) >= 2 and len(vy) >= 2:
            return _prefix(_witness_both_doubled(_graph(adj), v, x, y), ops)
        if len(vx) == 1 and len(vy) == 1:
            contract(v, x, y)
        else:
            if len(vy) >= 2:
                x, y, vx, vy = y, x, vy, vx
            h = _graph(adj)
            bal = h.delete_vertex(v).balance()
            if not bal.balanced:
                return _prefix(_witness_unbalanced_rest(h, v, x, y, bal.witness), ops)
            if y in adj[x]:  # a single edge, the rest being balanced
                (ea,) = adj[x][y].values()
                ops.append(MinorOp("delete_vertex", v))
            else:
                ea = GainEdge(next(alloc), x, y, bal.potentials[y] - bal.potentials[x])
                k4_host = (h, list(ops))
                _add(adj, ea)
            piece: dict = {x: {}, v: {}}
            for e in vx + [_series_edge(ea, vy[0], y, x)]:
                _add(piece, e)
            steps.append((y, x, v, ea.gain_from(y), vy[0].gain_from(y),
                          Row.leaf(piece, _edges(piece))))
            for u in adj.pop(v):
                del adj[u][v]
        for u in (x, y):
            if len(adj[u]) == 2:
                heapq.heappush(degree_two, u)

    if sum(len(es) >= 2 for a in adj for b, es in adj[a].items() if a < b) >= 2:
        return _prefix(_witness_trim_to_double_double(_graph(adj)), ops)
    w = min(u for u in adj if all(len(es) == 1 for es in adj[u].values()))
    a, b = sorted(adj[w])
    contract(w, a, b)

    rows = [Row.leaf(adj, _edges(adj))]
    for w, a, b, ga, gb, piece in reversed(steps):
        if piece is None:
            rows += _triangle_sum(alloc, w, a, b, ga, gb)
        else:  # the balanced rest, then the piece with its triangle
            rows += [piece, *_triangle_sum(alloc, w, a, b, ga, gb),
                     Row.two_sum((w, a), zero_child=0)]
    return rows


# -- no-witness constructions ---------------------------------------------------


def _witness_k4(h: GainGraph, si: SimpleGraph) -> MinorWitness:
    """A forbidden minor of h, whose simplified graph si has a K4 minor.

    Deleting the edges of si one at a time, each kept only where the K4
    minor needs it, leaves a K4 subdivision; its six branch paths contract
    to a K4 on the four branch vertices.  With every triangle balanced
    that is the balanced K4.  Otherwise two triangles are unbalanced (the
    four triangle gains are dependent, so one alone cannot be nonzero);
    they share a branch, and contracting it leaves a triangle with two
    doubled pairs.
    """
    kept = set(si.edges)
    for pair in sorted(si.edges, key=sorted):
        kept.discard(pair)
        if not finite_has_minor(SimpleGraph(si.vertices, kept), "K4"):
            kept.add(pair)
    sub = SimpleGraph(si.vertices, kept)
    branch = sorted(v for v in sub.vertices if sub.degree(v) == 3)
    paths = {}  # (a, b) with a < b -> branch path from a to b
    for a in branch:
        for u in sorted(sub.neighbors(a)):
            path = [a, u]
            while sub.degree(path[-1]) == 2:
                path.append(min(sub.neighbors(path[-1]) - {path[-2]}))
            if a < path[-1]:
                paths[a, path[-1]] = path
    edges = {ab: _path_edges(h, path) for ab, path in paths.items()}
    gain = {
        ab: sum(e.gain_from(u) for u, e in zip(paths[ab], edges[ab])) for ab in paths
    }

    keep_vertices = {u for path in paths.values() for u in path}
    ops = _keep_only(h, keep_vertices, {e.id for es in edges.values() for e in es})
    for (a, _), es in edges.items():
        ops += [MinorOp("contract_edge", e.id, a) for e in es[:-1]]
    unbalanced = [
        (a, b, c)
        for a, b, c in itertools.combinations(branch, 3)
        if gain[a, b] + gain[b, c] - gain[a, c]
    ]
    if not unbalanced:
        return MinorWitness(K4_ZERO_PATTERN, tuple(ops))
    a, b = sorted(set(itertools.combinations(unbalanced[0], 2))
                  & set(itertools.combinations(unbalanced[1], 2)))[0]
    ops.append(MinorOp("contract_edge", edges[a, b][-1].id, a))
    return MinorWitness(K3BB_PATTERN, tuple(ops))


def _witness_trim_to_double_double(h: GainGraph) -> MinorWitness:
    """Three vertices with spanning multiplicity graph: delete surplus edges."""
    pairs = [(a, b) for i, a in enumerate(h.vertices) for b in h.vertices[i + 1 :]]
    doubled = [p for p in pairs if h.multiplicity(*p) >= 2]
    single = next((p for p in pairs if p not in doubled), None)
    if single is None:
        single = min(doubled)
        doubled = [p for p in doubled if p != single]
    keep = _smallest_ids(h, *single, 1)
    for p in doubled[:2]:
        keep |= _smallest_ids(h, *p, 2)
    ops = _keep_only(h, set(h.vertices), keep)
    return MinorWitness(K3BB_PATTERN, tuple(ops))


def _witness_both_doubled(h: GainGraph, v: int, x: int, y: int) -> MinorWitness:
    """Doubled towards both neighbors: contract an x-y path avoiding v."""
    path = _shortest_path_avoiding(h.underlying_simple_graph(), x, y, v)
    path_edges = _path_edges(h, path)
    keep = {e.id for e in path_edges} | _smallest_ids(h, v, x, 2) | _smallest_ids(h, v, y, 2)
    ops = _keep_only(h, {v} | set(path), keep)
    ops += [MinorOp("contract_edge", e.id, x) for e in path_edges[:-1]]
    return MinorWitness(K3BB_PATTERN, tuple(ops))


def _shortest_path_avoiding(si: SimpleGraph, x: int, y: int, avoid: int) -> list:
    prev = {x: None}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        if u == y:
            break
        for w in sorted(si.neighbors(u)):
            if w != avoid and w not in prev:
                prev[w] = u
                queue.append(w)
    if y not in prev:
        raise RealdimError("expected an x-y path avoiding the degree-two vertex")
    path = [y]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def _witness_unbalanced_rest(
    h: GainGraph, v: int, x: int, y: int, walk
) -> MinorWitness:
    """Unbalanced cycle beyond v: route x and y to it disjointly and contract.

    The final shape keeps v, the doubled pair towards x, the single edge
    towards y, and turns the unbalanced cycle into a parallel pair between
    the two path endpoints.
    """
    cyc_vertices = list(walk.sequence[0:-1:2])
    cyc_edges = list(walk.sequence[1::2])
    si_rest = h.delete_vertex(v).underlying_simple_graph()
    p1, p2 = _two_disjoint_paths(si_rest, x, y, set(cyc_vertices))
    u1, u2 = p1[-1], p2[-1]

    path_edges_1, path_edges_2 = _path_edges(h, p1), _path_edges(h, p2)
    keep = {e.id for e in path_edges_1 + path_edges_2 + cyc_edges}
    keep |= _smallest_ids(h, v, x, 2) | _smallest_ids(h, v, y, 1)
    ops = _keep_only(h, {v} | set(p1) | set(p2) | set(cyc_vertices), keep)
    ops += [MinorOp("contract_edge", e.id, x) for e in path_edges_1]
    ops += [MinorOp("contract_edge", e.id, y) for e in path_edges_2]

    # The cycle now passes through x (= u1 merged) and y (= u2 merged);
    # contract each arc between them down to a single edge.
    i1, i2 = cyc_vertices.index(u1), cyc_vertices.index(u2)
    k = len(cyc_vertices)
    arc1 = [cyc_edges[i % k] for i in range(i1, i1 + (i2 - i1) % k)]
    arc2 = [cyc_edges[i % k] for i in range(i2, i2 + (i1 - i2) % k)]
    for arc in (arc1, arc2):
        for e in arc[:-1]:
            ops.append(MinorOp("contract_edge", e.id, x if arc is arc1 else y))
    return MinorWitness(K3BB_PATTERN, tuple(ops))


def _two_disjoint_paths(si: SimpleGraph, x: int, y: int, targets: set):
    """Vertex-disjoint paths from x and from y to distinct target vertices.

    Unit-capacity flow with split vertices; paths stop at first target
    contact.  Existence is guaranteed by two-connectedness of the graph
    the callers work in.
    """
    arcs: dict = {}

    def add(u, w):
        arcs.setdefault(u, {})[w] = arcs.get(u, {}).get(w, 0) + 1

    for vtx in si.vertices:
        if vtx in targets:
            add(("in", vtx), "T")
        else:
            add(("in", vtx), ("out", vtx))
    for pair in si.edges:
        a, b = tuple(pair)
        for s, t in ((a, b), (b, a)):
            if s not in targets:
                add(("out", s), ("in", t))
    add("S", ("in", x))
    add("S", ("in", y))

    flow: dict = {}

    def residual(u, w):
        return arcs.get(u, {}).get(w, 0) - flow.get((u, w), 0) + flow.get((w, u), 0)

    pushed = 0
    for _ in range(2):
        prev = {"S": None}
        queue = deque(["S"])
        while queue:
            u = queue.popleft()
            if u == "T":
                break
            neighbors = set(arcs.get(u, {})) | {
                a for (a, b2) in flow if b2 == u and flow[(a, b2)] > 0
            }
            for w in sorted(neighbors, key=str):
                if w not in prev and residual(u, w) > 0:
                    prev[w] = u
                    queue.append(w)
        if "T" not in prev:
            break
        node = "T"
        while prev[node] is not None:
            u = prev[node]
            if flow.get((node, u), 0) > 0:
                flow[(node, u)] -= 1
            else:
                flow[(u, node)] = flow.get((u, node), 0) + 1
            node = u
        pushed += 1
    if pushed < 2:
        raise RealdimError("expected two disjoint paths to the unbalanced cycle")

    def walk(start):
        path = [start]
        node = ("in", start)
        for _ in range(4 * (si.n + 2)):
            nxt = next(w for w in arcs.get(node, {}) if flow.get((node, w), 0) > 0)
            if nxt == "T":
                return path
            if isinstance(nxt, tuple) and nxt[0] == "in":
                path.append(nxt[1])
            node = nxt
        raise RealdimError("flow decomposition did not terminate")

    return walk(x), walk(y)


# ---------------------------------------------------------------------------
# exact values and bounds
# ---------------------------------------------------------------------------


def realizable_dimension_complete_case(g: GainGraph) -> int:
    """Exact realizable dimension when the simplified graph is complete.

    Equals the vertex count when the multiplicity graph is connected and
    spanning (every periodic realization is then universally rigid), and
    one less otherwise.
    """
    _require_nonempty(g)
    if not g.underlying_simple_graph().is_complete():
        raise RealdimError("underlying simple graph must be complete")
    mg = g.multiplicity_graph()
    return g.n if mg.is_spanning_connected(g.vertices) else g.n - 1


@dataclass(frozen=True)
class RdBounds:
    lower: int
    upper: int

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def as_tuple(self) -> tuple:
        return (self.lower, self.upper)


def realizable_dimension_bounds(
    g: GainGraph,
    brute_force_bound: int = 10,
    *,
    d1: RealizabilityVerdict | None = None,
    d2: RealizabilityVerdict | None = None,
) -> RdBounds:
    """Sound interval for the realizable dimension.

    The lower bound combines the finite-graph dimension of the simplified
    graph, the complete-case value, and the deciders' refusals; the upper
    bound is the vertex count, tightened when a decider answers yes.  The
    interval collapses to a point for every decided case.  ``d1`` and
    ``d2`` are verdicts of ``is_1_realizable`` and ``is_2_realizable`` on
    ``g`` already at hand; a decider whose verdict is given is not run.
    """
    _require_nonempty(g)
    for dim, verdict in ((1, d1), (2, d2)):
        if verdict is not None and verdict.dimension_bound != dim:
            raise RealdimError(f"d{dim} must be a dimension-{dim} verdict")
    n = g.n
    lower = 1
    si = g.underlying_simple_graph()
    if si.is_complete():
        complete_value = realizable_dimension_complete_case(g)
        if complete_value == n:
            return RdBounds(n, n)
        lower = max(lower, n - 1)
    elif finite_has_minor(si, "K4"):
        if si.n <= brute_force_bound:
            f = finite_rd_upper3(si, brute_force_bound)
            lower = max(lower, 4 if f == ">=4" else f)
        else:
            lower = max(lower, 3)
    if (d1 if d1 is not None else is_1_realizable(g)).answer:
        return RdBounds(1, 1)
    lower = max(lower, 2)
    if (d2 if d2 is not None else is_2_realizable(g)).answer:
        return RdBounds(2, 2)
    lower = max(lower, 3)
    return RdBounds(lower, n)
