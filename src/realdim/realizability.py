"""Polynomial-time realizability deciders with certificates.

``is_1_realizable`` answers whether the periodic lift of a labelled
quotient graph always admits equivalent line realizations; the criterion
is the absence of any cycle other than selfloops.  ``is_2_realizable``
implements the planar-case recursion: strip selfloops, split at cut
vertices, and repeatedly remove a degree-two vertex of the simplified
graph, either by contracting one of its edges (both multiplicities one)
or by deleting it after a balance check (one doubled side).

Every *yes* comes with a decomposition tree whose leaves are single
edges/vertices (dimension one) or balanced triangles and two-vertex
graphs (dimension two).  Its one-sum layers are glued at centroids of
the block-cut tree, so they add only logarithmic depth.  Every *no*
comes with a replayable minor witness reaching a forbidden shape: a
parallel pair or balanced triangle for dimension one; the
doubled-double-pair triangle or the balanced complete graph on four
vertices for dimension two.  Witness construction for the
minimum-degree-three case falls back to the exhaustive engine, so for
graphs beyond its bound a non-replayable reason trace is attached
instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .certificates import DecompositionTree, RealizabilityVerdict
from .errors import RealdimError
from .graphs import GainEdge, GainGraph, SimpleGraph
from .minors import (
    DEFAULT_EDGE_BOUND,
    DEFAULT_VERTEX_BOUND,
    K3_BULLETBULLET,
    MinorOp,
    MinorPattern,
    MinorWitness,
    ReasonTrace,
    balanced_complete_pattern,
    finite_has_minor,
    finite_rd_upper3,
    has_minor,
)

K2_BULLET_PATTERN = MinorPattern.family("k2-bullet")
K3BB_PATTERN = MinorPattern.family(K3_BULLETBULLET)
K3_ZERO_PATTERN = balanced_complete_pattern(3)
K4_ZERO_PATTERN = balanced_complete_pattern(4)


def _require_nonempty(g: GainGraph):
    if g.n == 0:
        raise RealdimError("realizability is undefined for the empty graph")


class _IdAlloc:
    def __init__(self, start: int):
        self._next = start

    def take(self) -> int:
        self._next += 1
        return self._next - 1


@dataclass
class _Yes:
    tree: DecompositionTree


@dataclass
class _No:
    witness: object  # MinorWitness | ReasonTrace


def _prefix(no: _No, ops) -> _No:
    if isinstance(no.witness, MinorWitness):
        return _No(MinorWitness(no.witness.pattern, tuple(ops) + no.witness.ops))
    return no


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
    ops = [
        MinorOp("delete_edge", e.id) for e in g.edges if e.id not in keep_edge_ids
    ]
    ops += [
        MinorOp("delete_vertex", v) for v in g.vertices if v not in keep_vertices
    ]
    return ops


def _witness_parallel_pair(g: GainGraph, a: int, b: int) -> MinorWitness:
    keep = sorted(e.id for e in g.edges_between(a, b))[:2]
    ops = _keep_only(g, {a, b}, set(keep))
    w = MinorWitness(K2_BULLET_PATTERN, tuple(ops))
    return w


def _cycle_edges(g: GainGraph, cycle: list) -> list:
    edges = []
    for i in range(len(cycle)):
        a, b = cycle[i], cycle[(i + 1) % len(cycle)]
        edges.append(min(g.edges_between(a, b), key=lambda e: e.id))
    return edges


def _witness_simple_cycle(g: GainGraph, cycle: list) -> MinorWitness:
    """Contract a cycle to a balanced triangle or an unbalanced pair."""
    edges = _cycle_edges(g, cycle)
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
    pieces = [
        ((e.tail, e.head), DecompositionTree.leaf(GainGraph((e.tail, e.head), (e,))))
        for e in g.edges
        if not e.is_loop
    ]
    return _glue(g.vertices, pieces + _loop_pieces(g.edges))


# -- one-sum layers --------------------------------------------------------------


def _loop_pieces(edges) -> list:
    """One leaf per vertex holding all of its selfloops."""
    by_vertex: dict = {}
    for e in edges:
        if e.is_loop:
            by_vertex.setdefault(e.tail, []).append(e)
    return [
        ((v,), DecompositionTree.leaf(GainGraph((v,), by_vertex[v])))
        for v in sorted(by_vertex)
    ]


def _glue(vertices, pieces) -> DecompositionTree:
    """Glue pieces by one-sums within each component, then by disjoint union.

    ``pieces`` are (vertices, tree) pairs that pairwise share at most one
    vertex and whose block-cut graph is a forest.  A vertex in no piece
    becomes a one-vertex leaf.  Components come in order of their least
    vertex.
    """
    at: dict = {}
    for i, (vs, _) in enumerate(pieces):
        for v in vs:
            at.setdefault(v, []).append(i)
    seen: set = set()
    trees = []
    for v in sorted(vertices):
        if v in seen:
            continue
        if v not in at:
            trees.append(DecompositionTree.leaf(GainGraph((v,), ())))
            continue
        ids = []
        taken = {at[v][0]}
        stack = [at[v][0]]
        while stack:
            i = stack.pop()
            ids.append(i)
            for u in pieces[i][0]:
                seen.add(u)
                for j in at[u]:
                    if j not in taken:
                        taken.add(j)
                        stack.append(j)
        trees.append(_fold(pieces, sorted(ids)))
    return DecompositionTree.disjoint_union(trees)


_PIECE, _CUT = 0, 1  # node kinds of the block-cut tree


def _fold(pieces, ids) -> DecompositionTree:
    """One-sum a connected set of pieces, splitting at a centroid.

    The centroid is taken in the block-cut tree whose nodes are the pieces
    and the vertices shared by several of them, each piece weighing one.
    At a shared vertex every branch weighs at most half, and the branches
    are glued there in a weight-balanced binary tree.  At a piece, each
    part hanging off one of its shared vertices weighs at most half, and
    the parts are glued onto the piece one after the other, lightest
    first.  The depth is thus logarithmic in the number of pieces, plus
    the number of shared vertices on one piece.
    """
    if len(ids) == 1:
        return pieces[ids[0]][1]
    at: dict = {}
    for i in ids:
        for v in pieces[i][0]:
            at.setdefault(v, []).append(i)
    cuts = {v: js for v, js in at.items() if len(js) > 1}

    def neighbours(node):
        kind, x = node
        if kind == _PIECE:
            return [(_CUT, v) for v in pieces[x][0] if v in cuts]
        return [(_PIECE, j) for j in cuts[x]]

    # Root the block-cut tree at a piece; in depth-first preorder every
    # subtree is a contiguous run of ``order``.
    root = (_PIECE, ids[0])
    parent = {root: None}
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for nb in neighbours(node):
            if nb != parent[node]:
                parent[nb] = node
                stack.append(nb)
    pos = {node: k for k, node in enumerate(order)}
    size = dict.fromkeys(order, 1)
    weight = {node: int(node[0] == _PIECE) for node in order}
    heaviest_child = dict.fromkeys(order, 0)
    for node in reversed(order[1:]):
        up = parent[node]
        size[up] += size[node]
        weight[up] += weight[node]
        heaviest_child[up] = max(heaviest_child[up], weight[node])
    total = len(ids)
    centre = min(
        order,
        key=lambda node: (
            max(total - weight[node], heaviest_child[node]),
            node[0] == _PIECE,
        ),
    )

    def pieces_in(nodes):
        return sorted(x for kind, x in nodes if kind == _PIECE)

    # The branches at the centre: one per child, and the rest of the tree
    # through its parent.
    branches = [
        (nb, pieces_in(order[pos[nb] : pos[nb] + size[nb]]))
        for nb in neighbours(centre)
        if nb != parent[centre]
    ]
    if parent[centre] is not None:
        lo, hi = pos[centre], pos[centre] + size[centre]
        branches.append((parent[centre], pieces_in(order[:lo] + order[hi:])))

    if centre[0] == _CUT:
        parts = sorted(p for _, p in branches)
        return _one_sum_balanced([(len(p), _fold(pieces, p)) for p in parts], centre[1])
    tree = pieces[centre[1]][1]
    for _, v, p in sorted((len(p), v, p) for (_, v), p in branches):
        tree = DecompositionTree.one_sum(tree, _fold(pieces, p), v)
    return tree


def _one_sum_balanced(parts, v: int) -> DecompositionTree:
    """One-sum (weight, tree) parts that share only ``v``, halving by weight."""
    if len(parts) == 1:
        return parts[0][1]
    half = sum(w for w, _ in parts) / 2
    acc = 0
    for k, (w, _) in enumerate(parts[:-1], start=1):
        acc += w
        if acc >= half:
            break
    return DecompositionTree.one_sum(
        _one_sum_balanced(parts[:k], v), _one_sum_balanced(parts[k:], v), v
    )


# ---------------------------------------------------------------------------
# dimension 2
# ---------------------------------------------------------------------------


def is_2_realizable(g: GainGraph) -> RealizabilityVerdict:
    """Plane realizability, decided by the degree-two recursion."""
    _require_nonempty(g)
    alloc = _IdAlloc(g.fresh_edge_id())
    loops = [e for e in g.edges if e.is_loop]
    core = g.delete_edges([e.id for e in loops]) if loops else g
    res = _decide2_split(core, core.underlying_simple_graph(), alloc, {}, loops)
    if isinstance(res, _No):
        res = _prefix(res, [MinorOp("delete_edge", e.id) for e in loops])
        return RealizabilityVerdict(2, False, res.witness)
    return RealizabilityVerdict(2, True, res.tree)


# The recursion switches its graphs as it goes, but every tree it returns
# is in the labelling frame of the input.  ``phi`` is the switching that
# takes the input's labels to those of the graph at hand (input labels
# plus phi[tail] - phi[head]); a step that switches by psi adds psi to
# phi for its child and takes it off again when the child returns.


def _shift(phi: dict, psi, sign: int):
    for v, s in psi.items():
        phi[v] = phi.get(v, 0) + sign * s


def _in_input_frame(g: GainGraph, phi: dict) -> GainGraph:
    undo = {v: -phi[v] for v in g.vertices if phi.get(v)}
    return g.switch_many(undo) if undo else g


def _decide2(h: GainGraph, alloc: _IdAlloc, phi: dict):
    """Core recursion on a loopless graph in frame ``phi``."""
    if h.n <= 2:
        return _Yes(DecompositionTree.leaf(_in_input_frame(h, phi)))
    si = h.underlying_simple_graph()
    if len(si.components()) > 1 or si.articulation_points():
        return _decide2_split(h, si, alloc, phi)

    if h.n == 3:
        return _decide2_triangle(h, alloc, phi)

    degree = {v: si.degree(v) for v in h.vertices}
    if min(degree.values()) >= 3:
        return _No(
            _fallback_witness(
                h,
                "every vertex of the simplified graph has degree at least three "
                "in a two-connected piece, forcing a forbidden minor",
            )
        )

    v = min(u for u in h.vertices if degree[u] == 2)
    x, y = sorted(si.neighbors(v))
    mvx, mvy = h.multiplicity(v, x), h.multiplicity(v, y)
    if mvx >= 2 and mvy >= 2:
        return _No(_witness_both_doubled(h, v, x, y))
    if mvx == 1 and mvy == 1:
        return _contract_step(h, v, x, y, alloc, phi)
    if mvy >= 2:
        x, y = y, x
    return _deletion_step(h, v, x, y, alloc, phi)


def _decide2_split(h: GainGraph, si: SimpleGraph, alloc: _IdAlloc, phi: dict, loops=()):
    """Decide every block, then glue blocks and selfloop leaves by one-sums."""
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
        sub = GainGraph(vset, [e for pair in eset for e in by_pair[pair]])
        res = _decide2(sub, alloc, phi)
        if isinstance(res, _No):
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
        pieces.append((vset, res.tree))
    return _Yes(_glue(h.vertices, pieces + _loop_pieces(loops)))


def _decide2_triangle(h: GainGraph, alloc: _IdAlloc, phi: dict):
    """Three vertices, two-connected (complete) simplified graph."""
    if h.multiplicity_graph().is_spanning_connected(h.vertices):
        return _No(_witness_trim_to_double_double(h))
    others = {
        v: [u for u in h.vertices if u != v] for v in h.vertices
    }
    w = min(
        v
        for v in h.vertices
        if all(h.multiplicity(v, u) == 1 for u in others[v])
    )
    a, b = sorted(others[w])
    return _contract_step(h, w, a, b, alloc, phi)


def _contract_step(h: GainGraph, w: int, a: int, b: int, alloc: _IdAlloc, phi: dict):
    """Both multiplicities at w are one: contract the w-a edge.

    On yes, the answer glues a balanced triangle on {w, a, b} to the
    contracted graph's tree along the a-b edge created by the merge.
    """
    ea = h.edges_between(w, a)[0]
    eb = h.edges_between(w, b)[0]
    psi = {a: ea.gain_from(w), b: eb.gain_from(w)}
    child = h.switch_many(psi).contract_edge(ea.id, survivor=a)
    _shift(phi, psi, 1)
    try:
        res = _decide2(child, alloc, phi)
        if isinstance(res, _No):
            return _prefix(res, [MinorOp("contract_edge", ea.id, a)])
        # Fresh ids throughout: reusing real ids here can collide with the
        # same id drifting to other endpoints inside the sibling subtree.
        # The triangle is balanced with label 0 in the child's frame.
        triangle = GainGraph(
            (w, a, b),
            [
                GainEdge(alloc.take(), t, u, phi.get(u, 0) - phi.get(t, 0))
                for t, u in ((w, a), (w, b), (a, b))
            ],
        )
    finally:
        _shift(phi, psi, -1)
    return _Yes(
        DecompositionTree.balanced_two_sum(
            DecompositionTree.leaf(triangle), res.tree, (a, b), zero_child=0
        )
    )


def _deletion_step(h: GainGraph, v: int, x: int, y: int, alloc: _IdAlloc, phi: dict):
    """Multiplicity two towards x, one towards y: delete v after a balance check."""
    rest = h.delete_vertex(v)
    bal = rest.balance()
    if not bal.balanced:
        return _No(_witness_unbalanced_rest(h, v, x, y, bal.witness))
    psi = bal.potentials
    h2 = h.switch_many(psi)
    rest2 = h2.delete_vertex(v)
    existing = rest2.edges_between(x, y)
    if existing:
        child = rest2
        shared_id = existing[0].id
        added = False
    else:
        shared_id = alloc.take()
        child = rest2.with_edge(x, y, 0, id=shared_id)
        added = True
    _shift(phi, psi, 1)
    try:
        res = _decide2(child, alloc, phi)
        if isinstance(res, _No):
            if not added and isinstance(res.witness, MinorWitness):
                return _prefix(res, [MinorOp("delete_vertex", v)])
            return _No(
                _fallback_witness(
                    h,
                    "deleting the degree-two vertex leaves a balanced graph whose "
                    "completion is not two-realizable",
                )
            )
        piece = h2.induced({v, x, y})
        if added:
            piece = piece.with_edge(x, y, 0, id=shared_id)
        piece_res = _contract_step(piece, y, x, v, alloc, phi)
    finally:
        _shift(phi, psi, -1)
    if isinstance(piece_res, _No):
        raise RealdimError("internal: three-vertex piece with non-spanning "
                           "multiplicity graph must be two-realizable")
    return _Yes(
        DecompositionTree.balanced_two_sum(piece_res.tree, res.tree, (x, y), zero_child=1)
    )


# -- no-witness constructions ---------------------------------------------------


def _fallback_witness(h: GainGraph, context: str):
    if h.n <= DEFAULT_VERTEX_BOUND and h.m <= DEFAULT_EDGE_BOUND:
        w = has_minor(h, K3BB_PATTERN)
        if w is None:
            w = has_minor(h, K4_ZERO_PATTERN)
        if w is None:
            raise RealdimError(
                "internal: decider answered no but the exhaustive search found "
                "no forbidden minor"
            )
        return w
    return ReasonTrace(
        context
        + f"; witness search skipped beyond {DEFAULT_VERTEX_BOUND} vertices / "
        f"{DEFAULT_EDGE_BOUND} edges"
    )


def _witness_trim_to_double_double(h: GainGraph) -> MinorWitness:
    """Three vertices with spanning multiplicity graph: delete surplus edges."""
    pairs = [(a, b) for i, a in enumerate(h.vertices) for b in h.vertices[i + 1 :]]
    doubled = [p for p in pairs if h.multiplicity(*p) >= 2]
    single = next((p for p in pairs if p not in doubled), None)
    if single is None:
        single = min(doubled)
        doubled = [p for p in doubled if p != single]
    doubled = doubled[:2]
    keep = set()
    for p in doubled:
        keep.update(sorted(e.id for e in h.edges_between(*p))[:2])
    keep.update(sorted(e.id for e in h.edges_between(*single))[:1])
    ops = _keep_only(h, set(h.vertices), keep)
    return MinorWitness(K3BB_PATTERN, tuple(ops))


def _witness_both_doubled(h: GainGraph, v: int, x: int, y: int) -> MinorWitness:
    """Doubled towards both neighbors: contract an x-y path avoiding v."""
    si = h.underlying_simple_graph()
    path = _shortest_path_avoiding(si, x, y, v)
    keep_vertices = {v} | set(path)
    keep = set()
    keep.update(sorted(e.id for e in h.edges_between(v, x))[:2])
    keep.update(sorted(e.id for e in h.edges_between(v, y))[:2])
    path_edges = [
        min(h.edges_between(path[i], path[i + 1]), key=lambda e: e.id)
        for i in range(len(path) - 1)
    ]
    keep.update(e.id for e in path_edges)
    ops = _keep_only(h, keep_vertices, keep)
    for e in path_edges[:-1]:
        ops.append(MinorOp("contract_edge", e.id, x))
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

    keep_vertices = {v} | set(p1) | set(p2) | set(cyc_vertices)
    keep = set()
    keep.update(sorted(e.id for e in h.edges_between(v, x))[:2])
    keep.update(sorted(e.id for e in h.edges_between(v, y))[:1])
    path_edges_1 = [
        min(h.edges_between(p1[i], p1[i + 1]), key=lambda e: e.id)
        for i in range(len(p1) - 1)
    ]
    path_edges_2 = [
        min(h.edges_between(p2[i], p2[i + 1]), key=lambda e: e.id)
        for i in range(len(p2) - 1)
    ]
    keep.update(e.id for e in path_edges_1)
    keep.update(e.id for e in path_edges_2)
    keep.update(e.id for e in cyc_edges)
    ops = _keep_only(h, keep_vertices, keep)

    for e in path_edges_1:
        ops.append(MinorOp("contract_edge", e.id, x))
    for e in path_edges_2:
        ops.append(MinorOp("contract_edge", e.id, y))

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
