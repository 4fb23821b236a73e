"""Polynomial-time realizability deciders with certificates.

Each decider holds its input as one multigraph, ``{u: {w: {orbit key:
edge}}}`` with selfloops left out, built once per call by
``graphs.multigraph``; ``graphs.blocks``, ``graphs.find_cycle``,
``graphs.balance`` and ``graphs.has_k4_minor`` read it, and neither
decider builds a ``GainGraph``.
``is_1_realizable`` answers whether the periodic lift of a labelled
quotient graph always admits equivalent line realizations; the criterion
is the absence of any cycle other than selfloops, read off the
multigraph as a parallel pair or a cycle of ``graphs.find_cycle``, and a
forest's blocks, all bridges, come from ``graphs.blocks``.
``is_2_realizable`` splits the multigraph into blocks once, with
``graphs.blocks``, and runs one loop of series reductions per block on
the block's multigraph, which shares its pair dicts, removing a
degree-two vertex by contracting one of its edges (both multiplicities
one) or by deleting it after a balance check of the rest (one doubled
side).  Labels stay in the input's frame: a contraction writes the gain
of the path it replaces onto the surviving edge, so no step switches or
rebuilds the graph, nothing recurses, and the work is near-linear.

Every *yes* comes with a decomposition tree whose leaves are single
edges/vertices (dimension one) or two-vertex graphs and balanced
triangles (dimension two), written as a table of rows in post-order: a
block appends one series row per reduction, which stands for a balanced
triangle and its two-sum, and one-sum layers are glued as chains in the
order of the block split read backwards, with one pendant row for each
bridge and selfloop but a component's first piece, so a forest's table
is the same for both dimensions.  Every *no*, at any size, comes with a minor
witness whose replay reaches a forbidden shape: a parallel pair or
balanced triangle for dimension one; the doubled-double-pair triangle or
the balanced complete graph on four vertices for dimension two.  A
witness deletes a vertex with its edges, and by id only the edges it
drops between vertices it keeps: O(n + chords among the kept vertices)
ops.  A dimension-two witness is built on the block's own multigraph,
where the reduction loop stopped; its paths come from one router,
``_disjoint_paths``.  Where the simplified graph has a K4 minor, the
witness contracts a K4 subdivision, found on neighbour sets with
``graphs.has_k4_minor``.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from operator import attrgetter

from .certificates import DISJOINT_UNION, LEAF, DecompositionTree, RealizabilityVerdict, Row
from .errors import RealdimError
from .graphs import (
    GainEdge,
    GainGraph,
    balance,
    blocks,
    find_cycle,
    has_k4_minor,
    multigraph,
    multigraph_add,
    multigraph_edges,
    pair_profile,
)
from .minors import (
    FINITE_MINOR_BOUND,
    K3_BULLETBULLET,
    MinorOp,
    MinorPattern,
    MinorWitness,
    balanced_complete_pattern,
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
    adj = multigraph(g.vertices, g.edges)
    pair = min(((a, b) for a in adj for b, es in adj[a].items() if a < b and len(es) >= 2),
               default=None)
    if pair is not None:
        return RealizabilityVerdict(1, False, _witness_parallel_pair(g, *pair))
    # A forest has fewer pairs than vertices, and every block a single pair.
    pairs = sum(map(len, adj.values())) // 2
    found = blocks(adj) if pairs < len(adj) else []
    if len(found) < pairs:
        return RealizabilityVerdict(1, False, _witness_simple_cycle(g, adj, find_cycle(adj)))
    bridges = [next(iter(adj[a][b].values())) for _, _, (a, b), _ in found]
    return RealizabilityVerdict(1, True, _glue(adj, g.edges, found, bridges))


def _keep_only(vertices, edges, keep_vertices, keep_edge_ids) -> list:
    """Deletion ops trimming a graph to a vertex/edge subset, edges first;
    a vertex takes its edges, so only those between kept vertices go by id."""
    return ([MinorOp("delete_edge", i) for i in sorted(
                e.id for e in edges if e.tail in keep_vertices and e.head in keep_vertices)
             if i not in keep_edge_ids]
            + [MinorOp("delete_vertex", v) for v in sorted(vertices) if v not in keep_vertices])


def _smallest_ids(edges, k: int) -> set:
    """The k smallest ids among the edges."""
    return set(sorted(e.id for e in edges)[:k])


def _witness_parallel_pair(g: GainGraph, a: int, b: int) -> MinorWitness:
    ops = _keep_only(g.vertices, g.edges, {a, b}, _smallest_ids(g.edges_between(a, b), 2))
    return MinorWitness(K2_BULLET_PATTERN, tuple(ops))


def _path_edges(adj: dict, path: list) -> list:
    """The smallest-id edge joining each consecutive pair of a vertex path."""
    return [min(adj[a][b].values(), key=attrgetter("id")) for a, b in zip(path, path[1:])]


def _witness_simple_cycle(g: GainGraph, adj: dict, cycle: list) -> MinorWitness:
    """Contract a cycle of g, whose multigraph is adj, to a balanced triangle
    or an unbalanced pair."""
    edges = _path_edges(adj, cycle + cycle[:1])
    gain = sum(e.gain_from(cycle[i]) for i, e in enumerate(edges))
    ops = _keep_only(g.vertices, g.edges, set(cycle), {e.id for e in edges})
    k = len(cycle)
    target = 3 if gain == 0 else 2
    # merge cycle[1], ..., cycle[k-target] into cycle[0]
    for i in range(k - target):
        ops.append(MinorOp("contract_edge", edges[i].id, cycle[0]))
    pattern = K3_ZERO_PATTERN if gain == 0 else K2_BULLET_PATTERN
    return MinorWitness(pattern, tuple(ops))


# -- one-sum layers --------------------------------------------------------------


def _glue(adj: dict, edges, found: list, pieces: list) -> DecompositionTree:
    """Glue the blocks of ``found``, the block split of the multigraph adj,
    and the selfloops among ``edges`` into one table: one-sums within each
    component, then one disjoint union of the components.

    ``pieces`` holds each block's rows, or a bridge's edge.  Read backwards,
    the first block of a component is its leaf or rows, and each later one
    shares only its cut vertex with the blocks before it: its rows and a
    one-sum at the cut, or a pendant row for a bridge.  The selfloops at the
    vertices a block brings in follow it as pendant rows.  A vertex of no
    block is a one-vertex leaf, followed by its selfloops, after the
    components of blocks.
    """
    loops: dict = {}
    for e in edges:
        if e.is_loop:
            loops.setdefault(e.tail, []).append(e)
    rows: list = []
    components = 0
    last = None
    for (root, cut, vs, _), piece in zip(reversed(found), reversed(pieces)):
        first = root != last
        last = root
        components += first
        if isinstance(piece, GainEdge):
            rows.append(Row.leaf(vs, (piece,)) if first else Row.pendant(piece))
        else:
            rows += piece
            if not first:
                rows.append(Row.one_sum(cut))
        for v in vs:
            if v in loops and (first or v != cut):
                rows += map(Row.pendant, loops[v])
    for v in adj:
        if not adj[v]:
            components += 1
            rows.append(Row(LEAF, (v,)))
            rows += map(Row.pendant, loops.get(v, ()))
    if components > 1:
        rows.append(Row(DISJOINT_UNION, children=components))
    return DecompositionTree(tuple(rows))


# ---------------------------------------------------------------------------
# dimension 2
# ---------------------------------------------------------------------------


def is_2_realizable(g: GainGraph) -> RealizabilityVerdict:
    """Plane realizability, decided by series reductions in each block."""
    _require_nonempty(g)
    res = _decide2_split(g, itertools.count(g.fresh_edge_id()))
    if isinstance(res, DecompositionTree):
        return RealizabilityVerdict(2, True, res)
    dropped = {op.target for op in res.ops if op.kind == "delete_vertex"}
    loops = [MinorOp("delete_edge", e.id) for e in g.edges if e.is_loop and e.tail not in dropped]
    return RealizabilityVerdict(2, False, _prefix(res, loops))


def _decide2_split(g: GainGraph, alloc):
    """Decide every block, then glue blocks, bridges and selfloops by one-sums.

    A bridge needs no block multigraph.  Selfloops belong to no block; a
    witness starts by deleting those at the vertices it keeps.  Each
    block's multigraph shares its pair dicts with the multigraph of g, and
    its loop adds edges to them.  An edge with both ends in a block is one
    of its edges, so a loop touches no pair of a later block, and the
    multigraph of g is read only for the pairs of blocks not yet decided.
    A trim deletes the vertices outside the block, which take their edges.
    """
    adj = multigraph(g.vertices, g.edges)
    found = blocks(adj)
    pieces = []
    for root, _, vs, pairs in found:
        if len(pairs) == 1 and len(adj[vs[0]][vs[1]]) == 1:
            pieces += adj[vs[0]][vs[1]].values()
            continue
        block: dict = {v: {} for v in vs}
        for a, b in pairs:
            block[a][b] = block[b][a] = adj[a][b]
        res = _decide2_block(block, alloc)
        if isinstance(res, MinorWitness):
            # Trim to the component, then to the block within it.
            comp = {u for r, _, us, _ in found if r == root for u in us}
            trim = [u for u in g.vertices if u not in comp] + sorted(comp.difference(vs))
            return _prefix(res, [MinorOp("delete_vertex", u) for u in trim])
        pieces.append(res)
    return _glue(adj, g.edges, found, pieces)


def _series_edge(ea: GainEdge, eb: GainEdge, w: int, a: int) -> GainEdge:
    """The edge eb (w-b) after contracting ea (w-a) into a.

    It keeps its id and orientation, and carries the gain of the path
    a-w-b, so its label stays in the input frame.
    """
    gain = eb.gain_from(w) - ea.gain_from(w)
    if eb.tail == w:
        return GainEdge(eb.id, a, eb.head, gain)
    return GainEdge(eb.id, eb.tail, a, -gain)


def _decide2_block(adj: dict, alloc):
    """Decide one two-connected block, held as the multigraph adj, by series
    reductions, without recursion.

    Each step takes the smallest degree-two vertex v, with neighbours
    x < y, out of the graph: it is contracted into x when single towards
    both, and deleted after a balance check of the rest when doubled
    towards one (adding x-y if missing; the piece on {v, x, y} becomes a
    summand of its own).  Reductions keep the block two-connected, so it
    ends at a pair; on a triangle every vertex has degree two, and a
    triangle with two doubled pairs fails at its first step.  After a
    deletion step the graph is balanced and only contractions follow.  The
    rows are written from the final pair back through the steps, each a
    series row gluing its triangle onto the rows before it, after its
    piece for a deletion step; ``alloc`` numbers the x-y edges added.  A
    "no" is read off this same multigraph, v's edges and the ops replaying
    the steps taken.
    """
    if len(adj) <= 2:
        return [Row.leaf(adj, multigraph_edges(adj))]
    # A reduction never raises a degree, so a degree-two vertex stays on the
    # heap until it is removed.
    degree_two = sorted(v for v in adj if len(adj[v]) == 2)
    steps = []  # the rows of each step
    ops = []  # minor ops that replay the steps taken
    k4_host = None  # the vertices, edges and ops at a deletion step that added x-y

    while len(adj) > 2:
        while degree_two and degree_two[0] not in adj:
            heapq.heappop(degree_two)
        if not degree_two:
            # By Dirac (1952) the simplified graph has a K4 subdivision.  A
            # graph after a deletion step that added x-y is balanced, so it
            # can fail only here; rerouting x-y through the deleted vertex
            # gives a K4 subdivision of the graph at that step.
            if k4_host is None:
                return _prefix(_witness_k4(adj), ops)
            vs, es, pre = k4_host
            return _prefix(_witness_k4(multigraph(vs, es)), pre)
        v = heapq.heappop(degree_two)
        x, y = sorted(adj[v])
        vx, vy = list(adj[v][x].values()), list(adj[v][y].values())
        for u in adj.pop(v):
            del adj[u][v]
        if len(vx) == 1 and len(vy) == 1:
            steps.append((Row.series(v, x, y, vx[0].gain_from(v), vy[0].gain_from(v)),))
            ops.append(MinorOp("contract_edge", vx[0].id, x))
            multigraph_add(adj, _series_edge(vx[0], vy[0], v, x))
        elif len(vx) >= 2 and len(vy) >= 2:
            return _prefix(_witness_both_doubled(adj, v, vx, vy), ops)
        else:
            if len(vy) >= 2:
                x, y, vx, vy = y, x, vy, vx
            bal = balance(adj, sorted(multigraph_edges(adj), key=attrgetter("id")))
            if not bal.balanced:
                return _prefix(_witness_unbalanced_rest(adj, v, vx, vy, bal.witness), ops)
            if y in adj[x]:  # a single edge, the rest being balanced
                (ea,) = adj[x][y].values()
                ops.append(MinorOp("delete_vertex", v))
            else:
                ea = GainEdge(next(alloc), x, y, bal.potentials[y] - bal.potentials[x])
                k4_host = ([v, *adj], [*vx, *vy, *multigraph_edges(adj)], list(ops))
                multigraph_add(adj, ea)
            piece = multigraph((x, v), vx + [_series_edge(ea, vy[0], y, x)])
            steps.append((Row.leaf(piece, multigraph_edges(piece)),
                          Row.series(y, x, v, ea.gain_from(y), vy[0].gain_from(y)),
                          Row.two_sum((y, x), zero_child=0)))
        for u in (x, y):
            if len(adj[u]) == 2:
                heapq.heappush(degree_two, u)

    return [Row.leaf(adj, multigraph_edges(adj)), *itertools.chain.from_iterable(reversed(steps))]


# -- no-witness constructions ---------------------------------------------------
# Each reads the block multigraph adj; where a degree-two vertex v has been
# taken out of it, the host also holds v and its edges vx and vy.


def _witness_k4(adj: dict) -> MinorWitness:
    """A forbidden minor of adj, whose simplified graph has a K4 minor.

    Deleting the simplified graph's edges (adjacent pairs) one at a time,
    from one set of neighbours edited in place, each kept only where the
    K4 minor needs it, leaves a K4 subdivision; its six branch paths
    contract to a K4 on the four branch vertices.  With every triangle
    balanced that is the balanced K4.  Otherwise two triangles are
    unbalanced (the four triangle gains are dependent, so one alone cannot
    be nonzero); they share a branch, and contracting it leaves a triangle
    with two doubled pairs.
    """
    sub = {v: set(adj[v]) for v in adj}
    for a, b in sorted((a, b) for a in adj for b in adj[a] if a < b):
        sub[a].discard(b)
        sub[b].discard(a)
        if not has_k4_minor(sub):
            sub[a].add(b)
            sub[b].add(a)
    branch = sorted(v for v in sub if len(sub[v]) == 3)
    paths = {}  # (a, b) with a < b -> branch path from a to b
    for a in branch:
        for u in sorted(sub[a]):
            path = [a, u]
            while len(sub[path[-1]]) == 2:
                path.append(min(sub[path[-1]] - {path[-2]}))
            if a < path[-1]:
                paths[a, path[-1]] = path
    edges = {ab: _path_edges(adj, path) for ab, path in paths.items()}
    gain = {
        ab: sum(e.gain_from(u) for u, e in zip(paths[ab], edges[ab])) for ab in paths
    }

    keep_vertices = {u for path in paths.values() for u in path}
    ops = _keep_only(adj, multigraph_edges(adj), keep_vertices,
                     {e.id for es in edges.values() for e in es})
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


def _witness_both_doubled(adj: dict, v: int, vx: list, vy: list) -> MinorWitness:
    """Doubled towards both neighbors: contract an x-y path avoiding v."""
    x, y = vx[0].other(v), vy[0].other(v)
    (path,) = _disjoint_paths(adj, (x,), {y})
    path_edges = _path_edges(adj, path)
    keep = {e.id for e in path_edges} | _smallest_ids(vx, 2) | _smallest_ids(vy, 2)
    ops = _keep_only([v, *adj], [*vx, *vy, *multigraph_edges(adj)], {v, *path}, keep)
    ops += [MinorOp("contract_edge", e.id, x) for e in path_edges[:-1]]
    return MinorWitness(K3BB_PATTERN, tuple(ops))


def _witness_unbalanced_rest(adj: dict, v: int, vx: list, vy: list, walk) -> MinorWitness:
    """Unbalanced cycle beyond v: route x and y to it disjointly and contract.

    The final shape keeps v, the doubled pair towards x, the single edge
    towards y, and turns the unbalanced cycle into a parallel pair between
    the two path endpoints.
    """
    x, y = vx[0].other(v), vy[0].other(v)
    cyc_vertices = list(walk.sequence[0:-1:2])
    cyc_edges = list(walk.sequence[1::2])
    p1, p2 = _disjoint_paths(adj, (x, y), set(cyc_vertices))
    u1, u2 = p1[-1], p2[-1]

    path_edges_1, path_edges_2 = _path_edges(adj, p1), _path_edges(adj, p2)
    keep = {e.id for e in path_edges_1 + path_edges_2 + cyc_edges}
    keep |= _smallest_ids(vx, 2) | _smallest_ids(vy, 1)
    ops = _keep_only([v, *adj], [*vx, *vy, *multigraph_edges(adj)],
                     {v, *p1, *p2, *cyc_vertices}, keep)
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


def _disjoint_paths(adj: dict, sources, targets: set) -> list:
    """Vertex-disjoint paths in adj from each source to a target, one target
    each; a path stops at the first target it meets.

    Menger's theorem by augmenting paths: each round is one breadth-first
    search over the split network, in which vertex w is an arc of capacity
    one from node (w, 0) to node (w, 1), an edge u-w is an arc from (u, 1)
    to (w, 0), and a target's node (w, 0) leads out.  The flow is the map
    ``into``: a path enters w from ``into[w]`` (None at a source).  Sources
    start each search in increasing order and neighbours are visited in
    increasing order, so the paths do not depend on the order of ``adj``.
    The callers route inside a two-connected block, so the paths exist.
    """
    into: dict = {}
    for _ in sources:
        prev = {(s, 0): None for s in sorted(sources) if s not in into}
        queue = deque(prev)
        while queue:
            node = w, out = queue.popleft()
            if out:  # along an unused edge, or back into w along its path
                step = [(u, 0) for u in sorted(adj[w]) if into.get(u) != w]
                if w in into:
                    step.append((w, 0))
            elif w not in into:
                if w in targets:
                    break
                step = [(w, 1)]
            else:  # back along the edge its path enters w by
                step = [] if into[w] is None else [(into[w], 1)]
            for nxt in step:
                if nxt not in prev:
                    prev[nxt] = node
                    queue.append(nxt)
        else:
            raise RealdimError("expected disjoint paths from the sources to the targets")
        while prev[node] is not None:
            (u, u_out), (w, _) = prev[node], node
            if u != w and u_out:  # along the edge u-w
                into[w] = u
            elif u != w:  # back along the edge w-u
                del into[u]
            node = prev[node]
        into[node[0]] = None
    succ = {u: w for w, u in into.items() if u is not None}
    paths = []
    for s in sources:
        path = [s]
        while path[-1] not in targets:
            path.append(succ[path[-1]])
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# exact values and bounds
# ---------------------------------------------------------------------------


def realizable_dimension_complete_case(g: GainGraph) -> int:
    """Exact realizable dimension when the simplified graph is complete.

    Equals the vertex count when the doubled pairs connect every vertex
    (every periodic realization is then universally rigid), and one less
    otherwise; ``graphs.pair_profile`` reads both facts in one pass.
    """
    _require_nonempty(g)
    n = g.n
    pairs, _, _, connected = pair_profile(multigraph(g.vertices, g.edges))
    if pairs < n * (n - 1) // 2:
        raise RealdimError("underlying simple graph must be complete")
    return n if connected else n - 1


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
    *,
    d1: RealizabilityVerdict | None = None,
    d2: RealizabilityVerdict | None = None,
) -> RdBounds:
    """Sound interval for the realizable dimension.

    The lower bound combines the finite-graph dimension of the simplified
    graph, the complete-case value, and the deciders' refusals; the upper
    bound is the vertex count, tightened when a decider answers yes.  The
    interval collapses to a point for every decided case.  The finite
    graph's dimension is computed only when both deciders refuse, since
    otherwise the interval is already a point.  ``d1`` and
    ``d2`` are verdicts of ``is_1_realizable`` and ``is_2_realizable`` on
    ``g`` already at hand; a decider whose verdict is given is not run.
    """
    _require_nonempty(g)
    for dim, verdict in ((1, d1), (2, d2)):
        if verdict is not None and verdict.dimension_bound != dim:
            raise RealdimError(f"d{dim} must be a dimension-{dim} verdict")
    n = g.n
    try:  # fewer edges than pairs leave the simplified graph incomplete
        complete_rd = realizable_dimension_complete_case(g) if g.m >= n * (n - 1) // 2 else None
    except RealdimError:  # so do missing pairs
        complete_rd = None
    if complete_rd == n:
        return RdBounds(n, n)
    if (d1 if d1 is not None else is_1_realizable(g)).answer:
        return RdBounds(1, 1)
    if (d2 if d2 is not None else is_2_realizable(g)).answer:
        return RdBounds(2, 2)
    lower = 3
    if complete_rd is not None:
        lower = max(lower, complete_rd)
    elif n <= FINITE_MINOR_BOUND:
        f = finite_rd_upper3(multigraph(g.vertices, g.edges))
        lower = max(lower, 4 if f == ">=4" else f)
    return RdBounds(lower, n)
