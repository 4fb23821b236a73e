import itertools
import random
import time

import pytest

from realdim.certificates import LEAF, CertificateError, DecompositionTree, Row
from realdim.errors import BoundExceededError, RealdimError, SimplicityError
from realdim.graphs import (
    LIFT_WINDOW_BOUND,
    GainEdge,
    GainGraph,
    SimpleGraph,
    blocks,
    find_cycle,
    multigraph,
    pair_profile,
)
from realdim.minors import MinorOp
from realdim.randgen import random_isomorphic_copy, random_simple_gain_graph


def is_complete(g):
    """Whether every pair of g's vertices is adjacent, from its pair profile."""
    return pair_profile(multigraph(g.vertices, g.edges))[0] == g.n * (g.n - 1) // 2


def components(vertices, pairs):
    """Connected components as frozensets, by BFS."""
    adj = {v: set() for v in vertices}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    comps, seen = [], set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp, queue = {start}, [start]
        for u in queue:
            for w in adj[u] - comp:
                comp.add(w)
                queue.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def doubled_pairs(g):
    """How many pairs of g carry at least two edges, and g's pair profile."""
    adj = multigraph(g.vertices, g.edges)
    doubled = sum(len(es) >= 2 for a in adj for b, es in adj[a].items() if a < b)
    return doubled, pair_profile(adj)


def k2_zero():
    return GainGraph.of(2, [(1, 2, 0)])


def k3_zero():
    return GainGraph.of(3, [(1, 2, 0), (1, 3, 0), (2, 3, 0)])


def k4_zero():
    return GainGraph.of(4, [(a, b, 0) for a, b in itertools.combinations(range(1, 5), 2)])


def k2_bullet(z1=0, z2=1):
    return GainGraph.of(2, [(1, 2, z1), (1, 2, z2)])


def k3_bullets(za=(0, 1), zb=(0, 1), z12=0):
    """Single 1-2 edge, doubled pairs {1,3} and {2,3}."""
    return GainGraph.of(
        3,
        [(1, 2, z12), (3, 1, za[0]), (3, 1, za[1]), (3, 2, zb[0]), (3, 2, zb[1])],
    )


def ladder_graph():
    """The worked three-orbit quotient: (1,2;0), (3,1;0), (3,1;1), (3,2;0), (3,2;1)."""
    return GainGraph.of(3, [(1, 2, 0), (3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1)])


# -- simplicity -------------------------------------------------------------


def violations(n, triples):
    """The simplicity report of a labelling, read off the constructor's error."""
    try:
        GainGraph.of(n, triples)
    except SimplicityError as exc:
        return exc.violations
    return []


def test_validate_simple_same_direction_same_label():
    report = violations(2, [(1, 2, 0), (1, 2, 0)])
    assert len(report) == 1
    assert report[0].kind == "duplicate-parallel"
    assert report[0].edge_ids == (1, 2)


def test_validate_simple_inverse_direction_inverse_label():
    report = violations(2, [(1, 2, 0), (2, 1, 0)])
    assert len(report) == 1
    assert report[0].kind == "duplicate-parallel"

    assert violations(2, [(1, 2, 3), (2, 1, -3)])


def test_validate_simple_zero_loop_and_loop_pairs():
    assert violations(1, [(1, 1, 0)])[0].kind == "zero-loop"
    assert violations(1, [(1, 1, 2), (1, 1, -2)])[0].kind == "duplicate-loop"
    assert violations(1, [(1, 1, 1), (1, 1, 2)]) == []


def test_simplicity_report_order_and_messages():
    report = violations(
        3,
        [(3, 3, 1), (2, 3, 4), (1, 1, 0), (3, 2, -4), (2, 2, 0), (3, 3, -1),
         (2, 1, 1), (1, 2, -1), (1, 2, -1)],
    )
    assert [(v.kind, v.edge_ids, v.message) for v in report] == [
        ("zero-loop", (3,), "selfloop 3 at 1 has label 0"),
        ("zero-loop", (5,), "selfloop 5 at 2 has label 0"),
        ("duplicate-parallel", (7, 8, 9), "edges [7, 8, 9] between 1 and 2 describe the same orbit"),
        ("duplicate-parallel", (2, 4), "edges [2, 4] between 2 and 3 describe the same orbit"),
        ("duplicate-loop", (1, 6), "selfloops [1, 6] at 3 describe the same orbit"),
    ]


def test_k2_bullet_is_simple():
    assert k2_bullet(0, 1).m == 2  # the constructor raises on a non-simple labelling


@pytest.mark.parametrize(
    "e, f, same",
    [
        (GainEdge(1, 1, 2, 3), GainEdge(2, 2, 1, -3), True),  # inversion
        (GainEdge(1, 1, 2, 3), GainEdge(2, 1, 2, 3), True),  # ids are ignored
        (GainEdge(1, 1, 2, 3), GainEdge(2, 2, 1, 3), False),
        (GainEdge(1, 1, 2, 3), GainEdge(2, 1, 2, -3), False),
        (GainEdge(1, 1, 2, 3), GainEdge(2, 1, 3, 3), False),
        (GainEdge(1, 4, 4, 2), GainEdge(2, 4, 4, -2), True),  # loops by |label|
        (GainEdge(1, 4, 4, 2), GainEdge(2, 4, 4, 1), False),
        (GainEdge(1, 4, 4, 2), GainEdge(2, 5, 5, 2), False),
    ],
)
def test_orbit_key(e, f, same):
    assert (e.orbit_key() == f.orbit_key()) is same
    assert e.orbit_key() == e.inverted().orbit_key()


def test_constructor_rejects_unsimple():
    with pytest.raises(SimplicityError):
        GainGraph.of(2, [(1, 2, 0), (1, 2, 0)])


# -- switching and inversion ------------------------------------------------


def test_switch_single_edge():
    g = k2_zero().switch(1, 3)
    assert g.edge(1).label == 3


def test_switch_by_zero_is_identity():
    g = ladder_graph()
    assert g.switch(2, 0) == g


def test_switch_both_endpoints_cancels():
    g = GainGraph.of(2, [(1, 2, 1)])
    h = g.switch(1, 1).switch(2, 1)
    assert h.edge(1).label == 1


def test_switch_leaves_loops_alone():
    g = GainGraph.of(1, [(1, 1, 5)])
    assert g.switch(1, 7) == g


def test_invert_edge_and_involution():
    g = GainGraph.of(2, [(1, 2, 1)])
    h = g.invert_edge(1)
    assert (h.edge(1).tail, h.edge(1).head, h.edge(1).label) == (2, 1, -1)
    assert h.invert_edge(1) == g


def test_invert_preserves_balance_verdict():
    g = ladder_graph()
    for eid in [e.id for e in g.edges]:
        assert g.invert_edge(eid).is_balanced() == g.is_balanced()


# -- deletion and contraction -------------------------------------------------


def test_delete_edge_of_k2():
    g = k2_zero().minor([MinorOp("delete_edge", 1)])
    assert g.m == 0 and g.vertices == (1, 2)


def test_delete_vertex_of_k3_bullets():
    g = k3_bullets().minor([MinorOp("delete_vertex", 3)])
    assert g.vertices == (1, 2)
    assert [e.label for e in g.edges] == [0]


def test_delete_loop():
    g = GainGraph.of(2, [(1, 2, 0), (1, 1, 1)])
    h = g.minor([MinorOp("delete_edge", 2)])
    assert h == k2_zero()


def test_contract_k3_gives_k2():
    g = k3_zero().contract_edge(1)
    assert g.vertices == (1, 3)
    assert g.m == 1 and g.edge(2).label == 0


def test_contract_k4_gives_k3_balanced():
    g = k4_zero().contract_edge(1)
    assert g.n == 3
    assert g.is_balanced()
    assert is_complete(g) and g.n == 3


def test_contract_bridge_of_k3_bullets_gives_k2_bullet():
    # Contracting the single 1-2 edge of the double-pair graph leaves two
    # vertices joined by parallel edges with distinct gains.
    g = k3_bullets().contract_edge(1)
    assert g.n == 2
    pairs = g.edges_between(*g.vertices)
    assert len(pairs) == 2
    gains = {e.gain_from(g.vertices[0]) for e in pairs}
    assert len(gains) == 2


def test_contract_nonzero_label_switches_first():
    g = GainGraph.of(2, [(1, 2, 5)])
    h = g.contract_edge(1)
    assert h.n == 1 and h.m == 0


def test_contract_refuses_loop():
    g = GainGraph.of(1, [(1, 1, 1)])
    with pytest.raises(RealdimError):
        g.contract_edge(1)


def test_contract_duplicate_retention_isomorphic():
    # All duplicate-retention choices are isomorphic; ours keeps the
    # smallest edge id.  Compare against manually keeping the other copy.
    g = GainGraph.of(3, [(1, 2, 0), (1, 3, 0), (2, 3, 0)])
    h = g.contract_edge(1)
    kept = h.edge(2)
    assert {kept.tail, kept.head} == {1, 3}


# -- derived simple graphs ----------------------------------------------------


def test_si_graph_of_k3_bullets_is_k3():
    g = k3_bullets()
    assert len(multigraph(g.vertices, g.edges)) == 3 and is_complete(g)


def test_si_graph_drops_loops():
    g = GainGraph.of(1, [(1, 1, 1)])
    assert multigraph(g.vertices, g.edges) == {1: {}}


def test_si_graph_of_k2_bullet():
    g = k2_bullet()
    adj = multigraph(g.vertices, g.edges)
    assert len(adj) == 2 and pair_profile(adj)[:2] == (1, 2)


def test_multiplicity_graph_of_k3_bullets_is_spanning_path():
    doubled, (pairs, top, forest, connected) = doubled_pairs(k3_bullets())
    assert doubled == 2
    assert connected
    assert (pairs, top, forest) == (3, 2, True)


def test_multiplicity_graph_of_k3_zero_empty():
    doubled, (pairs, top, forest, connected) = doubled_pairs(k3_zero())
    assert doubled == 0
    assert not connected
    assert (pairs, top, forest) == (3, 1, True)


def test_multiplicity_graph_of_k2_bullet_spanning():
    doubled, (_, _, _, connected) = doubled_pairs(k2_bullet())
    assert doubled == 1 and connected


def test_loops_do_not_count_for_multiplicity():
    g = GainGraph.of(2, [(1, 2, 0), (1, 1, 1), (1, 1, 2)])
    doubled, profile = doubled_pairs(g)
    assert doubled == 0 and profile == (1, 1, True, False)


# -- balance -------------------------------------------------------------------


def test_k4_zero_balanced():
    assert k4_zero().is_balanced()


def test_k2_bullet_unbalanced_with_witness():
    res = k2_bullet(0, 1).balance()
    assert not res.balanced
    assert res.witness.verify(k2_bullet(0, 1))
    assert res.witness.gain != 0


def test_ladder_graph_unbalanced():
    g = ladder_graph()
    res = g.balance()
    assert not res.balanced
    assert res.witness.verify(g)


def test_loop_makes_unbalanced():
    g = GainGraph.of(1, [(1, 1, 3)])
    res = g.balance()
    assert not res.balanced and res.witness.gain == 3


def test_balance_forest_takes_the_smallest_id_edge_of_each_pair():
    # The tree edge of the pair 1-2 is edge 1, whatever the labels, so the
    # potentials zero it and the witness closes edge 2 through it.
    g = GainGraph([1, 2, 3], [GainEdge(2, 1, 2, 0), GainEdge(1, 2, 1, -3), GainEdge(3, 3, 2, 1)])
    res = g.balance()
    assert list(res.potentials.items()) == [(1, 0), (2, 3), (3, 2)]
    e1, e2 = g.edge(1), g.edge(2)
    assert res.witness.sequence == (1, e2, 2, e1, 1)
    assert res.witness.gain == -3 and res.witness.verify(g)


def test_balanced_potentials_zero_all_labels():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 6)
        # random spanning-ish balanced graph: tree labels random, then switch
        edges = []
        for v in range(2, n + 1):
            u = rng.randint(1, v - 1)
            edges.append((u, v, 0))
        g = GainGraph.of(n, edges)
        pot = {v: rng.randint(-3, 3) for v in g.vertices}
        g = g.switch_many(pot)
        res = g.balance()
        assert res.balanced
        assert all(e.label == 0 for e in g.switch_many(res.potentials).edges)


def test_balance_invariant_under_switch_invert():
    rng = random.Random(11)
    g = ladder_graph()
    assert not g.is_balanced()
    h = g.switch(1, 4).invert_edge(3).switch(3, -2)
    assert not h.is_balanced()
    b = k4_zero().switch(2, 5).invert_edge(1)
    assert b.is_balanced()


def test_balance_preserved_by_minors():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 5)
        edges = []
        for v in range(2, n + 1):
            edges.append((rng.randint(1, v - 1), v, 0))
        extra = rng.randint(0, 2)
        for _ in range(extra):
            a, b = rng.sample(range(1, n + 1), 2)
            edges.append((a, b, 0))
        try:
            g = GainGraph.of(n, edges)
        except SimplicityError:
            continue
        pot = {v: rng.randint(-2, 2) for v in g.vertices}
        g = g.switch_many(pot)
        assert g.is_balanced()
        for e in g.edges:
            assert g.minor([MinorOp("delete_edge", e.id)]).is_balanced()
            if not e.is_loop:
                assert g.contract_edge(e.id).is_balanced()
        for v in g.vertices:
            assert g.minor([MinorOp("delete_vertex", v)]).is_balanced()


# -- canonical form --------------------------------------------------------------


def test_canonical_k2_bullet_gain_difference():
    a = k2_bullet(0, 2).canonical_form()
    b = k2_bullet(5, 3).canonical_form()
    assert a == b
    c = k2_bullet(0, 1).canonical_form()
    d = k2_bullet(0, 2).canonical_form()
    assert c != d


def test_canonical_invariant_under_random_moves():
    rng = random.Random(3)
    g = ladder_graph()
    base = g.canonical_form()
    for _ in range(25):
        h = g
        for _ in range(rng.randint(1, 6)):
            op = rng.randrange(3)
            if op == 0:
                h = h.switch(rng.choice(h.vertices), rng.randint(-3, 3))
            elif op == 1:
                h = h.invert_edge(rng.choice([e.id for e in h.edges]))
            else:
                perm = list(h.vertices)
                rng.shuffle(perm)
                mapping = dict(zip(h.vertices, perm))
                edges = [
                    GainEdge(e.id, mapping[e.tail], mapping[e.head], e.label)
                    for e in h.edges
                ]
                h = GainGraph(h.vertices, edges)
        assert h.canonical_form() == base


def test_canonical_distinguishes_unbalanced_gain_magnitude():
    g1 = GainGraph.of(3, [(1, 2, 0), (2, 3, 0), (3, 1, 1)])
    g2 = GainGraph.of(3, [(1, 2, 0), (2, 3, 0), (3, 1, 2)])
    assert g1.canonical_form() != g2.canonical_form()


def test_canonical_form_of_a_path_with_many_parallel_edges():
    # Six parallel edges on each of seven pairs: one tree edge per pair is
    # fixed by its gain, so there is no product of choices to bound.
    g = GainGraph.of(8, [(i, i + 1, z) for i in range(1, 8) for z in range(-2, 4)])
    h = random_isomorphic_copy(random.Random(59), g)
    assert h != g
    assert g.canonical_form() == h.canonical_form()


def test_canonical_balanced_triangles_agree():
    g1 = k3_zero()
    g2 = GainGraph.of(3, [(1, 2, 7), (1, 3, 7), (2, 3, 0)])
    assert g2.is_balanced()
    assert g1.canonical_form() == g2.canonical_form()


# -- gluing by replay ------------------------------------------------------------


def counterexample_a():
    """Vertices 1,2,3: (1,3;0), (3,2;0), (3,2;1), (1,2;0)."""
    return GainGraph(
        (1, 2, 3),
        [
            GainEdge(1, 1, 3, 0),
            GainEdge(2, 3, 2, 0),
            GainEdge(3, 3, 2, 1),
            GainEdge(4, 1, 2, 0),
        ],
    )


def counterexample_b():
    """Vertices 1,2,4: (1,4;0), (1,2;0), (4,2;1)."""
    return GainGraph(
        (1, 2, 4),
        [
            GainEdge(4, 1, 2, 0),
            GainEdge(5, 1, 4, 0),
            GainEdge(6, 4, 2, 1),
        ],
    )


def counterexample_c():
    """The two pieces glued along their shared edge 4."""
    return GainGraph((1, 2, 3, 4), {*counterexample_a().edges, *counterexample_b().edges})


def leaf(vertices, *edges):
    """A one-row table: a leaf with (id, tail, head, label) edges."""
    return DecompositionTree((Row(LEAF, tuple(sorted(vertices)), edges),))


def leaf_of(g):
    return DecompositionTree((Row.leaf(g.vertices, g.edges),))


def one_sum(left, right, v):
    return DecompositionTree(left.rows + right.rows + (Row.one_sum(v),))


def two_sum(left, right, pair, zero_child):
    return DecompositionTree(left.rows + right.rows + (Row.two_sum(pair, zero_child),))


def test_replay_of_counterexample_pieces():
    # Neither piece is balanced, so no balanced two-sum glues them.
    c = counterexample_c()
    assert c.n == 4 and c.m == 6
    for zero_child in (0, 1):
        tree = two_sum(leaf_of(counterexample_a()), leaf_of(counterexample_b()), (1, 2),
                       zero_child)
        with pytest.raises(CertificateError, match="not balanced"):
            tree.replay()


def test_replay_label_conflict_detected():
    # Both sides carry the 1-2 edge of gain 0; edge 1 has gain 0 on one side, 5 on the other.
    tree = two_sum(
        leaf((1, 2), (1, 1, 2, 0)), leaf((1, 2), (2, 1, 2, 0), (1, 1, 2, 5)), (1, 2), 0)
    with pytest.raises(CertificateError, match="edge 1"):
        tree.replay()


def test_replay_collapses_an_orbit_carried_under_two_ids():
    glued = two_sum(
        leaf((1, 2), (1, 1, 2, 3), (2, 2, 2, 1)), leaf((1, 2, 3), (5, 2, 1, -3), (6, 2, 3, 0)),
        (1, 2), zero_child=1)
    u = one_sum(glued, leaf((2,), (7, 2, 2, -1)), 2).replay()
    assert u.vertices == (1, 2, 3)
    assert [e.id for e in u.edges] == [1, 2, 6]


# -- lift windows -----------------------------------------------------------------


def test_lift_window_k2_single_cell():
    w = k2_zero().lift_window(0, 0)
    assert w.n == 2 and w.m == 1


def test_lift_window_loop_gives_path():
    g = GainGraph.of(1, [(1, 1, 1)])
    w = g.lift_window(0, 2)
    assert w.n == 3
    assert w.edges == frozenset(
        {frozenset({(1, 0), (1, 1)}), frozenset({(1, 1), (1, 2)})}
    )


def test_lift_window_ladder_matches_enumeration():
    g = ladder_graph()
    w = g.lift_window(0, 1)
    expected = set()
    for e in g.edges:
        for s in (0, 1):
            t = s + e.label
            if 0 <= t <= 1:
                expected.add(frozenset({(e.tail, s), (e.head, t)}))
    assert w.edges == frozenset(expected)
    assert w.n == 6 and w.m == 8


def test_lift_window_k2_three_cells_disjoint_edges():
    w = k2_zero().lift_window(0, 2)
    assert w.n == 6 and w.m == 3
    assert len({v for e in w.edges for v in e}) == 2 * w.m  # no two edges share an end


def test_lift_window_bound_is_checked_before_building():
    g = k2_zero()  # 2 vertices and 1 edge: 3 lift vertices and edges per shift
    width = LIFT_WINDOW_BOUND // 3
    assert g.lift_window(1, 10).n == 20
    with pytest.raises(BoundExceededError, match="exceeds the bound"):
        g.lift_window(0, width)  # one shift over
    with pytest.raises(BoundExceededError):
        g.lift_window(-10**18, 10**18)


# -- simple graph utilities ---------------------------------------------------------


def test_simplegraph_blocks_and_articulation():
    # bowtie: two triangles sharing vertex 3
    sg = SimpleGraph(
        range(1, 6),
        [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)],
    )
    blocks = sg.blocks()
    assert len(blocks) == 2
    assert all(len(es) == 3 for _, es in blocks)
    assert blocks[0][0] & blocks[1][0] == {3}  # the articulation point


def test_simplegraph_blocks_of_long_path_in_linear_time():
    # Every edge of a path is a block; finding each one must not rescan
    # the edge stack (that took 7.8 s at this size).
    n = 20000
    sg = SimpleGraph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])
    start = time.perf_counter()
    blocks = sg.blocks()
    assert time.perf_counter() - start < 1.5
    assert len(blocks) == n - 1
    assert {es for _, es in blocks} == {frozenset([e]) for e in sg.edges}


def cycle_pair_sets(adj):
    """The vertex-pair set of every cycle, from simple paths out of its least vertex."""
    found = []

    def extend(path):
        for w in adj[path[-1]]:
            if w == path[0] and len(path) >= 3:
                found.append({frozenset(p) for p in zip(path, path[1:] + path[:1])})
            elif w > path[0] and w not in path:
                extend(path + [w])

    for s in adj:
        extend([s])
    return found


def test_blocks_equal_the_brute_force_cycle_relation():
    # Two pairs share a block iff they are equal or lie on a common cycle;
    # a multigraph's neighbour values may be edge lists, and its loops are
    # left out of the mapping.  Read backwards, a component's first block
    # holds its root, and each later one shares only its cut vertex with the
    # blocks before it, the order the one-sum layer of a table is glued in.
    rng = random.Random(41)
    for _ in range(300):
        g = random_simple_gain_graph(rng, max_vertices=8, max_edges=12)
        adj = {v: {} for v in g.vertices}
        for e in g.edges:
            if not e.is_loop:
                adj[e.tail].setdefault(e.head, []).append(e)
                adj[e.head].setdefault(e.tail, []).append(e)
        pair_set = {frozenset((e.tail, e.head)) for e in g.edges if not e.is_loop}
        comps = components(adj, map(tuple, pair_set))
        block_of = {}
        found = blocks(adj)
        assert [r for r, *_ in found] == sorted(r for r, *_ in found)
        for k, (root, cut, vs, pairs) in enumerate(found):
            assert vs == tuple(sorted({v for p in pairs for v in p}))
            assert root == min(next(c for c in comps if vs[0] in c))
            assert cut in vs and (root not in vs or cut == root)
            for p in pairs:
                assert frozenset(p) not in block_of
                block_of[frozenset(p)] = k
        assert set(block_of) == pair_set
        before: dict = {}  # root -> vertices of the blocks read so far
        for root, cut, vs, _ in reversed(found):
            if root not in before:
                assert root in vs
                before[root] = set(vs)
            else:
                assert before[root].intersection(vs) == {cut}
                before[root].update(vs)
        cycles = cycle_pair_sets(adj)
        for p, q in itertools.combinations(block_of, 2):
            assert (block_of[p] == block_of[q]) == any(p in c and q in c for c in cycles)


def test_simplegraph_find_cycle():
    # find_cycle reads neighbour sets as well as a multigraph's edge dicts.
    triangle = {1: {2, 3}, 2: {1, 3}, 3: {1, 2, 4}, 4: {3}}
    cyc = find_cycle(triangle)
    assert cyc is not None and len(set(cyc)) == len(cyc) >= 3
    tree = GainGraph.of(4, [(1, 2, 0), (2, 3, 5), (3, 4, -1)])
    assert find_cycle(multigraph(tree.vertices, tree.edges)) is None
    pairs = [(e.tail, e.head) for e in tree.edges]
    assert tree.m == tree.n - len(components(tree.vertices, pairs))
