import itertools
import json
import math
import random
import sys
import time

import pytest

from realdim.certificates import (
    DISJOINT_UNION,
    LEAF,
    PENDANT,
    SERIES,
    CertificateError,
    DecompositionTree,
    Row,
    certificate_from_json_dict,
    certificate_to_json_dict,
    verify_decomposition,
)
from realdim.errors import RealdimError
from realdim.graphs import GainEdge, GainGraph, SimpleGraph, multigraph, pair_profile
from realdim.minors import MinorOp, MinorWitness, contains_forbidden
from realdim.randgen import random_isomorphic_copy, random_simple_gain_graph
from realdim.realizability import (
    K4_ZERO_PATTERN,
    RdBounds,
    is_1_realizable,
    is_2_realizable,
    realizable_dimension_bounds,
    realizable_dimension_complete_case,
)
from test_acceptance import corpus_500
from test_graphs import (
    counterexample_a,
    counterexample_b,
    counterexample_c,
    k2_bullet,
    k2_zero,
    k3_bullets,
    k3_zero,
    k4_zero,
    ladder_graph,
    leaf,
    leaf_of,
    one_sum,
    two_sum,
)


def check_verdict(g, verdict):
    """Every certificate must replay against its own graph."""
    if isinstance(verdict.certificate, DecompositionTree):
        verify_decomposition(verdict.certificate, g, verdict.dimension_bound)
    elif isinstance(verdict.certificate, MinorWitness):
        assert verdict.certificate.verify(g)
    else:
        pytest.fail(f"unexpected certificate {verdict.certificate!r}")


# -- dimension one ------------------------------------------------------------


def test_k2_zero_is_1_realizable():
    v = is_1_realizable(k2_zero())
    assert v.answer
    check_verdict(k2_zero(), v)


def test_k3_zero_not_1_realizable_with_triangle_witness():
    v = is_1_realizable(k3_zero())
    assert not v.answer
    assert v.certificate.pattern.kind == "exact"
    check_verdict(k3_zero(), v)


def test_single_vertex_with_loops_is_1_realizable():
    g = GainGraph.of(1, [(1, 1, 1), (1, 1, 2)])
    v = is_1_realizable(g)
    assert v.answer
    check_verdict(g, v)


def test_k2_bullet_not_1_realizable():
    v = is_1_realizable(k2_bullet())
    assert not v.answer
    assert v.certificate.pattern.kind == "k2-bullet"
    check_verdict(k2_bullet(), v)


def test_unbalanced_square_gives_k2_bullet_witness():
    g = GainGraph.of(4, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 1, 1)])
    v = is_1_realizable(g)
    assert not v.answer
    check_verdict(g, v)


def forest_with_loops(n, rng):
    """A random forest and its component count: each vertex after the first
    hangs off an earlier one or starts a component, and a third of the
    vertices carry one or two selfloops."""
    edges, components = [], 1
    for v in range(2, n + 1):
        if rng.random() < 0.8:
            edges.append((rng.randint(1, v - 1), v, rng.randint(-3, 3)))
        else:
            components += 1
    for v in rng.sample(range(1, n + 1), n // 3):
        edges += [(v, v, rng.choice((-z, z))) for z in range(1, rng.randint(1, 2) + 1)]
    return GainGraph.of(n, edges), components


def test_forest_with_loops_tree_structure():
    """A forest's d=1 and d=2 tables: one leaf per component, holding at
    most one edge, and one pendant row per other edge or selfloop."""
    rng = random.Random(23)
    forests = [(GainGraph.of(5, [(1, 2, 3), (2, 3, -1), (4, 5, 0), (2, 2, 2)]), 2)]
    forests += [forest_with_loops(rng.randint(1, 12), rng) for _ in range(40)]
    for g, components in forests:
        for v in (is_1_realizable(g), is_2_realizable(g)):
            assert v.answer
            check_verdict(g, v)
            rows = v.certificate.rows
            leaves = [row for row in rows if row.kind == LEAF]
            assert len(leaves) == components and all(len(row.edges) <= 1 for row in leaves)
            pendants = sum(row.kind == PENDANT for row in rows)
            assert pendants + sum(len(row.edges) for row in leaves) == g.m
            assert len(rows) == components + pendants + (components > 1)
            assert components == 1 or rows[-1].kind == DISJOINT_UNION
        assert is_1_realizable(g).certificate == is_2_realizable(g).certificate


def test_empty_graph_rejected():
    with pytest.raises(RealdimError):
        is_1_realizable(GainGraph((), ()))
    with pytest.raises(RealdimError):
        is_2_realizable(GainGraph((), ()))


# -- dimension two ------------------------------------------------------------


def test_counterexample_pieces_2_realizable_union_not():
    va = is_2_realizable(counterexample_a())
    vb = is_2_realizable(counterexample_b())
    vc = is_2_realizable(counterexample_c())
    assert va.answer and vb.answer and not vc.answer
    check_verdict(counterexample_a(), va)
    check_verdict(counterexample_b(), vb)
    check_verdict(counterexample_c(), vc)


def test_k4_zero_not_2_realizable():
    v = is_2_realizable(k4_zero())
    assert not v.answer
    check_verdict(k4_zero(), v)


def test_k3_zero_2_realizable():
    v = is_2_realizable(k3_zero())
    assert v.answer
    check_verdict(k3_zero(), v)


def test_k3_bullets_not_2_realizable():
    v = is_2_realizable(k3_bullets())
    assert not v.answer
    check_verdict(k3_bullets(), v)


def test_ladder_graph_not_2_realizable():
    g = ladder_graph()
    v = is_2_realizable(g)
    assert not v.answer
    check_verdict(g, v)


def test_two_vertex_graphs_always_2_realizable():
    g = GainGraph.of(2, [(1, 2, 0), (1, 2, 1), (1, 2, 2), (1, 1, 1)])
    v = is_2_realizable(g)
    assert v.answer
    check_verdict(g, v)


def test_loops_on_triangle_still_2_realizable():
    g = GainGraph.of(3, [(1, 2, 0), (1, 3, 0), (2, 3, 0), (2, 2, 1)])
    v = is_2_realizable(g)
    assert v.answer
    check_verdict(g, v)


def test_one_sum_of_triangles_2_realizable():
    # two balanced triangles sharing vertex 3
    g = GainGraph.of(
        5, [(1, 2, 0), (1, 3, 0), (2, 3, 0), (3, 4, 0), (3, 5, 0), (4, 5, 0)]
    )
    v = is_2_realizable(g)
    assert v.answer
    check_verdict(g, v)


def test_disconnected_mixed_components():
    g = GainGraph.of(
        6, [(1, 2, 0), (1, 3, 0), (2, 3, 1), (4, 5, 0), (4, 5, 2), (6, 6, 3)]
    )
    v = is_2_realizable(g)
    assert v.answer
    check_verdict(g, v)


def test_no_block_witness_trims_the_other_component_then_the_other_block():
    # A balanced K4 on 1-4 shares the cut vertex 4 with the triangle 4-5-6,
    # beside the component 7-8 and its selfloop 11.  The witness deletes
    # the other component, whose vertices take the loop with them, then
    # the triangle's other vertices, which take its edges, leaving the K4
    # as it is.
    g = GainGraph.of(8, [(1, 2, 0), (1, 3, 0), (1, 4, 0), (2, 3, 0), (2, 4, 0), (3, 4, 0),
                         (4, 5, 0), (5, 6, 1), (4, 6, 0), (7, 8, 2), (8, 8, 1)])
    v = is_2_realizable(g)
    assert not v.answer
    assert v.certificate.pattern == K4_ZERO_PATTERN
    assert v.certificate.ops == (
        MinorOp("delete_vertex", 7), MinorOp("delete_vertex", 8),
        MinorOp("delete_vertex", 5), MinorOp("delete_vertex", 6),
    )
    check_verdict(g, v)


def test_deletion_case_balanced_rest():
    # degree-2 vertex 1 doubled towards 2, single towards 3; rest balanced.
    g = GainGraph.of(
        4, [(1, 2, 0), (1, 2, 1), (1, 3, 0), (2, 4, 0), (3, 4, 0), (2, 3, 0)]
    )
    v = is_2_realizable(g)
    assert v.answer
    check_verdict(g, v)


def test_deletion_case_unbalanced_rest():
    # vertex 1 doubled towards 2, single towards 3; cycle (2,3,4) unbalanced.
    g = GainGraph.of(
        4, [(1, 2, 0), (1, 2, 1), (1, 3, 0), (2, 4, 0), (3, 4, 1), (2, 3, 0)]
    )
    v = is_2_realizable(g)
    assert not v.answer
    check_verdict(g, v)


# A triangle with its pairs 1-2, 2-3 and then 1-3 doubled.
TRIANGLE_DOUBLED_PAIRS = [(1, 2, 0), (1, 2, 1), (2, 3, 0), (2, 3, 1), (1, 3, 0), (1, 3, 1)]


@pytest.mark.parametrize("triples", [
    TRIANGLE_DOUBLED_PAIRS[:5],
    TRIANGLE_DOUBLED_PAIRS,
    # A cycle whose reduction contracts 1, then 2, into 3, and ends at the
    # triangle 3-4-5 with 3-5 single, or doubled by the edge 3-5.
    [(1, 2, 0), (2, 3, 0), (1, 5, 0), (3, 4, 0), (3, 4, 1), (4, 5, 0), (4, 5, 1)],
    [(1, 2, 0), (2, 3, 0), (1, 5, 0), (3, 4, 0), (3, 4, 1), (4, 5, 0), (4, 5, 1), (3, 5, 1)],
    # one-summed at 3 to a balanced triangle
    TRIANGLE_DOUBLED_PAIRS[:5] + [(3, 4, 0), (4, 5, 0), (3, 5, 0)],
    TRIANGLE_DOUBLED_PAIRS + [(3, 4, 0), (4, 5, 0), (3, 5, 0)],
], ids=["two-doubled", "three-doubled", "cycle-two-doubled", "cycle-three-doubled",
        "one-sum-two-doubled", "one-sum-three-doubled"])
def test_reduction_ending_at_a_triangle_with_doubled_pairs(triples):
    # The block's last triangle is reduced like any other: its first
    # vertex is doubled towards both neighbours, or towards one with the
    # rest a doubled, so unbalanced, pair.
    g = GainGraph.of(max(max(t[:2]) for t in triples), triples)
    v = is_2_realizable(g)
    assert not v.answer
    assert v.certificate.pattern.kind == "k3-bulletbullet"
    check_verdict(g, v)
    assert contains_forbidden(g, 2)


def test_unbalanced_rest_routing_that_must_reroute():
    # Vertex 1 is doubled towards x = 2 and single towards y = 3; the rest
    # is unbalanced only on the triangle 6-7-8.  y reaches the rest only
    # through 4, which lies on x's shortest route 2-4-6, so the second
    # augmenting path takes 4 from x and x goes round by 5-9-10-7.
    g = GainGraph.of(10, [
        (1, 2, 0), (1, 2, 1), (1, 3, 0), (2, 4, 0), (2, 5, 0), (3, 4, 0), (4, 6, 0),
        (6, 7, 0), (6, 8, 0), (7, 8, 1), (5, 9, 0), (9, 10, 0), (10, 7, 0),
    ])
    v = is_2_realizable(g)
    assert not v.answer
    back = certificate_from_json_dict(json.loads(json.dumps(certificate_to_json_dict(v))))
    assert back.verify(g) is True
    assert v.answer == (not contains_forbidden(g, 2, max_vertices=10))


def test_wheel_min_degree_three_not_2_realizable():
    g = GainGraph.of(
        4, [(1, 2, 0), (2, 3, 0), (3, 1, 0), (1, 4, 0), (2, 4, 0), (3, 4, 1)]
    )
    v = is_2_realizable(g)
    assert not v.answer
    check_verdict(g, v)


# -- K4-subdivision witnesses -----------------------------------------------------
# Graphs whose simplified graph has minimum degree three contain a K4
# subdivision (Dirac 1952); their "no" is built from it at any size.


def labelled(n, pairs):
    """Fixed labels, as on the benchmark's min-degree-three hosts."""
    return GainGraph.of(n, [(a, b, (3 * k) % 5 - 2) for k, (a, b) in enumerate(pairs)])


def wheel(k):
    rim = list(range(2, k + 2))
    return labelled(k + 1, [(1, v) for v in rim] + [(rim[i], rim[(i + 1) % k]) for i in range(k)])


def petersen():
    return labelled(
        10,
        [(i, i % 5 + 1) for i in range(1, 6)]
        + [(i, i + 5) for i in range(1, 6)]
        + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)],
    )


def cube():
    return labelled(8, [
        (a + 1, b + 1) for a, b in itertools.combinations(range(8), 2)
        if bin(a ^ b).count("1") == 1
    ])


def random_cubic(n, rng):
    """A Hamiltonian cycle plus a random perfect matching of chords, labelled at random."""
    cycle = [(i, i % n + 1) for i in range(1, n + 1)]
    on_cycle = {frozenset(p) for p in cycle}
    while True:
        order = list(range(1, n + 1))
        rng.shuffle(order)
        chords = list(zip(order[::2], order[1::2]))
        if not any(frozenset(p) in on_cycle for p in chords):
            break
    return GainGraph.of(n, [(a, b, rng.randint(-2, 2)) for a, b in cycle + chords])


MIN_DEGREE_THREE = {
    "W9": wheel(9),
    "petersen": petersen(),
    "W12": wheel(12),
    "Q3": cube(),
    "cubic-200": random_cubic(200, random.Random(43)),
}


@pytest.mark.parametrize("name", sorted(MIN_DEGREE_THREE))
def test_min_degree_three_no_replays_after_json(name):
    g = MIN_DEGREE_THREE[name]
    v = is_2_realizable(g)
    assert not v.answer
    assert isinstance(v.certificate, MinorWitness)
    back = certificate_from_json_dict(json.loads(json.dumps(certificate_to_json_dict(v))))
    assert back.certificate == v.certificate
    assert back.verify(g) is True


@pytest.mark.parametrize("name", ["W12", "Q3"])
def test_min_degree_three_no_is_fast(name):
    g = MIN_DEGREE_THREE[name]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        v = is_2_realizable(g)
        best = min(best, time.perf_counter() - start)
    assert not v.answer and v.certificate.verify(g)
    assert best < 0.010


def test_deletion_step_with_added_edge_gives_k4_witness():
    # Vertex 1 has degree two: doubled towards 2, single towards 3.  The
    # rest is balanced and lacks the edge 2-3; adding it completes a
    # balanced K4 on {2, 3, 4, 5}, so the child fails and the witness
    # routes 2-3 through vertex 1.
    g = GainGraph.of(5, [
        (1, 2, 0), (1, 2, 1), (1, 3, 2),
        (2, 4, 1), (2, 5, -1), (3, 4, 2), (3, 5, 0), (4, 5, -2),
    ])
    assert g.minor([MinorOp("delete_vertex", 1)]).is_balanced()
    v = is_2_realizable(g)
    assert not v.answer
    assert v.certificate.verify(g)
    assert contains_forbidden(g, 2)


def deletion_step_case(rng):
    """Vertex 1 doubled towards x and single towards y, over a rest without
    the edge x-y that is balanced four times in five."""
    n = rng.randint(4, 5)
    rest = list(range(2, n + 2))
    x, y = rng.sample(rest, 2)
    pairs = [p for p in itertools.combinations(rest, 2) if set(p) != {x, y} and rng.random() < 0.8]
    potential = {u: rng.randint(-2, 2) for u in rest}
    edges = [(a, b, potential[b] - potential[a]) for a, b in pairs]
    if edges and rng.random() < 0.2:
        a, b, z = edges[0]
        edges[0] = (a, b, z + 1)
    spokes = [(1, x, 0), (1, x, rng.choice((1, 2))), (1, y, rng.randint(-1, 1))]
    return GainGraph.of(n + 1, edges + spokes)


def test_oracle_agreement_deletion_step_corpus():
    rng = random.Random(17)
    for _ in range(150):
        g = deletion_step_case(rng)
        v2 = is_2_realizable(g)
        assert v2.answer == (not contains_forbidden(g, 2)), g
        check_verdict(g, v2)


def test_oracle_agreement_seeded_corpus_up_to_seven_vertices():
    # Labels in {0, 1}: balanced pieces are common, so the corpus reaches
    # the K4-subdivision witness in both its balanced-K4 and doubled-pair
    # forms.
    rng = random.Random(2023)
    for _ in range(2000):
        g = random_simple_gain_graph(rng, max_vertices=7, max_edges=9, label_min=0, label_max=1)
        v2 = is_2_realizable(g)
        assert v2.answer == (not contains_forbidden(g, 2)), g
        check_verdict(g, v2)


# -- oracle agreement ----------------------------------------------------------


def test_oracle_agreement_small_corpus():
    rng = random.Random(101)
    for _ in range(120):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=9)
        v1 = is_1_realizable(g)
        v2 = is_2_realizable(g)
        assert v1.answer == (not contains_forbidden(g, 1)), g
        assert v2.answer == (not contains_forbidden(g, 2)), g
        check_verdict(g, v1)
        check_verdict(g, v2)


def test_verdicts_isomorphism_invariant():
    rng = random.Random(7)
    for _ in range(40):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        h = random_isomorphic_copy(rng, g)
        assert is_1_realizable(g).answer == is_1_realizable(h).answer
        assert is_2_realizable(g).answer == is_2_realizable(h).answer


# -- exact dimension and bounds ---------------------------------------------------


def test_complete_case_values():
    assert realizable_dimension_complete_case(k3_bullets()) == 3
    assert realizable_dimension_complete_case(k4_zero()) == 3
    assert realizable_dimension_complete_case(k2_bullet()) == 2
    assert realizable_dimension_complete_case(k3_zero()) == 2
    assert realizable_dimension_complete_case(k2_zero()) == 1
    with pytest.raises(RealdimError):
        realizable_dimension_complete_case(counterexample_c())


def test_bounds_classification_table():
    assert realizable_dimension_bounds(k2_zero()) == RdBounds(1, 1)
    loops = GainGraph.of(1, [(1, 1, 1), (1, 1, 3)])
    assert realizable_dimension_bounds(loops) == RdBounds(1, 1)
    assert realizable_dimension_bounds(k3_zero()) == RdBounds(2, 2)
    assert realizable_dimension_bounds(k2_bullet(0, 2)) == RdBounds(2, 2)
    assert realizable_dimension_bounds(k4_zero()) == RdBounds(3, 4)
    assert realizable_dimension_bounds(k3_bullets()) == RdBounds(3, 3)
    assert realizable_dimension_bounds(counterexample_c()) == RdBounds(3, 4)


def test_bounds_with_given_verdicts_agree():
    rng = random.Random(23)
    for _ in range(60):
        g = random_simple_gain_graph(rng, max_vertices=6, max_edges=10)
        given = realizable_dimension_bounds(
            g, d1=is_1_realizable(g), d2=is_2_realizable(g)
        )
        assert given == realizable_dimension_bounds(g)


def test_bounds_reject_verdict_of_wrong_dimension():
    g = counterexample_c()
    with pytest.raises(RealdimError):
        realizable_dimension_bounds(g, d1=is_2_realizable(g))


def test_bounds_always_ordered():
    rng = random.Random(19)
    for _ in range(50):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        b = realizable_dimension_bounds(g)
        assert 1 <= b.lower <= b.upper <= g.n


# -- certificate integrity ----------------------------------------------------------


def test_decomposition_rejects_wrong_graph():
    g = k3_zero()
    v = is_2_realizable(g)
    other = k3_bullets()
    with pytest.raises(CertificateError):
        verify_decomposition(v.certificate, other, 2)


def test_verdict_flipped_by_dataclasses_replace_is_refused():
    import dataclasses

    g = k3_zero()
    v = is_2_realizable(g)
    flipped = dataclasses.replace(v, answer=False)
    assert flipped == (2, False, v.certificate)
    assert [f.name for f in dataclasses.fields(flipped)] == list(v._fields)
    with pytest.raises(CertificateError, match='certifies "yes", not "no"'):
        flipped.verify(g)


def test_decomposition_rejects_tampering():
    g = counterexample_a()
    tree = is_2_realizable(g).certificate

    def corrupt(row):
        if row.kind != LEAF or not row.edges or row.edges[0][1] == row.edges[0][2]:
            return row
        i, t, h, z = row.edges[0]
        return row._replace(edges=((i, t, h, z + 40),) + row.edges[1:])

    bad = DecompositionTree(tuple(map(corrupt, tree.rows)))
    assert bad != tree
    with pytest.raises(CertificateError):
        verify_decomposition(bad, g, 2)


def test_replay_rejects_shared_id_naming_two_orbits():
    tree = one_sum(leaf((1, 2), (1, 1, 2, 0)), leaf((2, 3), (1, 2, 3, 0)), 2)
    with pytest.raises(CertificateError, match="row 1: edge 1"):
        tree.replay()
    with pytest.raises(CertificateError):
        verify_decomposition(tree, GainGraph.of(3, [(1, 2, 0), (2, 3, 0)]), 1)


def test_decomposition_rejects_wrong_leaf_family():
    g = k4_zero()
    tree = leaf_of(g)  # a 4-vertex leaf is in no family
    with pytest.raises(CertificateError):
        verify_decomposition(tree, g, 2)


@pytest.mark.parametrize("tree, expect", [
    pytest.param(two_sum(leaf((1, 2), (1, 1, 2, 0), (2, 1, 1, 1)),
                         leaf((1, 2), (1, 1, 2, 0), (3, 1, 1, -1)), (1, 2), zero_child=1),
                 "row 2: two-sum sides share a selfloop", id="shared-selfloop"),
    pytest.param(two_sum(leaf((1, 2), (1, 1, 2, 0)), leaf((1, 2), (1, 1, 2, 0)), (1, 2),
                         zero_child=2),
                 "row 2: two-sum must name its balanced summand", id="zero-child-2"),
])
def test_two_sum_refusals_of_hand_made_tables(tree, expect):
    # The JSON reader refuses a zero_child outside {0, 1}; a table built in
    # memory reaches the verifier with one.
    with pytest.raises(CertificateError, match=expect):
        verify_decomposition(tree, GainGraph.of(2, [(1, 2, 0)]), 2)


def leaf_in_family(row, dimension) -> bool:
    """Whether a table of the one leaf verifies against the leaf's graph."""
    g = GainGraph(row.vertices, [GainEdge(*e) for e in row.edges])
    try:
        verify_decomposition(DecompositionTree((row,)), g, dimension)
    except CertificateError:
        return False
    return True


def test_unbalanced_triangle_leaf_is_refused():
    balanced = GainGraph.of(3, [(1, 2, 1), (3, 2, -2), (1, 3, 3)])
    unbalanced = GainGraph.of(3, [(1, 2, 1), (2, 3, 2), (1, 3, 4)])
    assert leaf_in_family(Row.leaf(balanced.vertices, balanced.edges), 2)
    assert not leaf_in_family(Row.leaf(unbalanced.vertices, unbalanced.edges), 2)
    with pytest.raises(CertificateError, match="row 0: leaf outside"):
        verify_decomposition(leaf_of(unbalanced), unbalanced, 2)


def test_triangle_leaf_family_matches_balance():
    rng = random.Random(3)
    graphs = [random_simple_gain_graph(rng, min_vertices=3, max_vertices=3, max_edges=5)
              for _ in range(200)]
    for gains in itertools.product(range(-2, 3), repeat=3):
        ids = rng.choice(((1, 2, 3), (2, 5, 7)))
        edges = [(ids[0], ids[1]), (ids[1], ids[2]), (ids[0], ids[2])]
        graphs.append(GainGraph(ids, [
            GainEdge(i, t, h, z) if rng.random() < 0.5 else GainEdge(i, h, t, -z)
            for i, ((t, h), z) in enumerate(zip(edges, gains), start=1)]))
    answers = set()
    for g in graphs:
        loopless = not any(e.is_loop for e in g.edges)
        pairs = pair_profile(multigraph(g.vertices, g.edges))[0]
        triangle = g.m == 3 and loopless and pairs == g.n * (g.n - 1) // 2
        in_family = leaf_in_family(Row.leaf(g.vertices, g.edges), 2)
        answers.add((triangle, in_family))
        assert in_family == (triangle and g.is_balanced())
    assert answers == {(True, True), (True, False), (False, False)}


def test_switched_certificate_covers_the_switched_graph():
    # A certificate is checked in its input's frame: the switched one
    # covers the switched graph, and the unswitched one is refused there,
    # naming the first input edge whose orbit the shift moved out of it.
    rng = random.Random(7)
    graphs = [k2_zero(), counterexample_a(), counterexample_c(), k3_zero(), tree_with_loops(30, rng)]
    checked = refused = 0
    for g in graphs:
        for decide in (is_1_realizable, is_2_realizable):
            v = decide(g)
            if not v.answer:
                continue
            shift = {u: rng.randint(-3, 3) for u in g.vertices}
            tree = v.certificate.switched(shift)
            assert tree.replay() == v.certificate.replay().switch_many(shift)
            moved = g.switch_many(shift)
            verify_decomposition(tree, moved, v.dimension_bound)
            keys = {e.orbit_key() for e in v.certificate.replay().edges}
            missing = [e.id for e in moved.edges if e.orbit_key() not in keys]
            if missing:
                with pytest.raises(CertificateError, match=rf"input edge {missing[0]} "):
                    verify_decomposition(v.certificate, moved, v.dimension_bound)
                refused += 1
            checked += 1
    assert checked >= 5 and refused >= 4


def test_certificate_json_roundtrip():
    from realdim.certificates import (
        certificate_from_json_dict,
        certificate_to_json_dict,
    )

    for g in (k2_zero(), k3_zero(), counterexample_a(), counterexample_c(), k3_bullets()):
        for decide in (is_1_realizable, is_2_realizable):
            v = decide(g)
            data = certificate_to_json_dict(v)
            back = certificate_from_json_dict(data)
            assert back.answer == v.answer
            assert back.dimension_bound == v.dimension_bound
            back.verify(g)


# -- certificate depth --------------------------------------------------------------
# A tree of any depth is one flat table of rows, so its JSON nests to a
# constant depth.


def json_depth(data) -> int:
    """Nesting depth of a JSON value, counting lists and objects."""
    deepest = 0
    stack = [(data, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, (dict, list)):
            deepest = max(deepest, d + 1)
            stack.extend((c, d + 1) for c in (node.values() if isinstance(node, dict) else node))
    return deepest


def tree_with_loops(n, rng):
    edges = [(rng.randint(1, v - 1), v, rng.randint(-3, 3)) for v in range(2, n + 1)]
    edges += [(v, v, rng.randint(1, 3)) for v in range(1, n + 1, 10)]
    return GainGraph.of(n, edges)


def assert_shallow_roundtrip(g, verdict):
    from realdim.certificates import (
        certificate_from_json_dict,
        certificate_to_json_dict,
    )

    assert verdict.answer
    data = certificate_to_json_dict(verdict)
    assert json_depth(data) == 6  # header, root, rows, row, edges, edge
    back = certificate_from_json_dict(json.loads(json.dumps(data, indent=2)))
    assert back.certificate == verdict.certificate
    assert back.verify(g) is True


def test_d1_certificate_of_long_path_is_shallow():
    g = GainGraph.of(2000, [(i, i + 1, i % 3 - 1) for i in range(1, 2000)])
    assert_shallow_roundtrip(g, is_1_realizable(g))


def test_d1_certificate_of_tree_with_loops_is_shallow():
    g = tree_with_loops(1000, random.Random(29))
    assert_shallow_roundtrip(g, is_1_realizable(g))


def test_d2_certificate_of_tree_with_loops_is_shallow():
    g = tree_with_loops(1000, random.Random(31))
    assert_shallow_roundtrip(g, is_2_realizable(g))


# -- linear work and no recursion in the d=2 decider and its replay ------------------


def long_cycle(n):
    return GainGraph.of(n, [(i, i % n + 1, i % 7 - 3) for i in range(1, n + 1)])


def balanced_strip(n, rng):
    """Triangulated strip (vertex v joins v-1 and v-2), zero labels switched at random."""
    pot = {v: rng.randint(-5, 5) for v in range(1, n + 1)}
    pairs = [(1, 2)] + [p for v in range(3, n + 1) for p in ((v - 2, v), (v - 1, v))]
    return GainGraph.of(n, [(a, b, pot[a] - pot[b]) for a, b in pairs])


def necklace(n):
    """A cycle whose pair 1-2 is doubled: the first step is a deletion step."""
    return GainGraph.of(n, [(1, 2, 1)] + [(i, i % n + 1, i % 3 - 1) for i in range(1, n + 1)])


def test_d2_cycle_table_is_a_leaf_and_a_series_row_per_step():
    g = long_cycle(1000)
    rows = is_2_realizable(g).certificate.rows
    assert rows[0].kind == LEAF and len(rows[0].vertices) == 2
    assert [row.kind for row in rows[1:]] == [SERIES] * (g.n - 2)


def test_d2_tables_have_no_triangle_leaf():
    rng = random.Random(22)
    graphs = list(corpus_500()) + [random_simple_gain_graph(rng, max_vertices=8, max_edges=14)
                                   for _ in range(300)] + [necklace(50), long_cycle(50)]
    series = 0
    for g in graphs:
        v = is_2_realizable(g)
        if v.answer:
            rows = v.certificate.rows
            assert all(len(row.vertices) <= 2 for row in rows if row.kind == LEAF)
            series += sum(row.kind == SERIES for row in rows)
    assert series > 200


@pytest.fixture
def edge_records(monkeypatch):
    """The edge count of every GainGraph built while the test runs."""
    records = []
    init = GainGraph.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        records.append(len(self.edges))

    monkeypatch.setattr(GainGraph, "__init__", counting_init)
    return records


def labelled_strip(n, rng):
    """The strip of balanced_strip with random labels: a "no" found at the
    first deletion step, whose rest is unbalanced."""
    g = balanced_strip(n, rng)
    return GainGraph.of(n, [(e.tail, e.head, rng.randint(-3, 3)) for e in g.edges])


@pytest.mark.parametrize("make, answer, decide_bound", [
    (long_cycle, True, 10),
    (lambda n: balanced_strip(n, random.Random(3)), True, 10),
    # one balance check of the rest, and no other graph of the block
    (lambda n: labelled_strip(n, random.Random(3)), False, 1),
    (necklace, True, 1),
], ids=["cycle", "strip-two-tree", "labelled-strip", "necklace"])
def test_d2_passes_linearly_many_edges_through_gain_graphs(edge_records, make, answer,
                                                           decide_bound):
    g = make(2000)
    edge_records.clear()
    v = is_2_realizable(g)
    assert v.answer is answer
    assert sum(edge_records) <= decide_bound * g.m
    edge_records.clear()
    assert v.verify(g)
    # a "yes" tree is checked in one pass over its rows, a "no" replayed once
    assert sum(edge_records) <= (0 if answer else 4 * g.m)


def test_d1_witness_replay_passes_linearly_many_edges_through_gain_graphs(edge_records):
    # n - 2 contractions, replayed in one pass that builds one graph
    g = long_cycle(2000)
    v = is_1_realizable(g)
    assert not v.answer
    edge_records.clear()
    assert v.verify(g)
    assert sum(edge_records) <= 4 * g.m


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.parametrize("make", [long_cycle, lambda n: balanced_strip(n, random.Random(5)),
                                  necklace], ids=["cycle", "strip-two-tree", "necklace"])
def test_d2_decides_20000_vertices_at_default_recursion_limit(default_recursion_limit, make):
    g = make(20000)
    v = is_2_realizable(g)
    assert v.answer
    assert v.verify(g)
    if make is necklace:
        # the root is the deletion step, whose balanced summand is the rest
        assert v.certificate.rows[-1].zero_child == 0


def test_d1_witness_of_20000_cycle_verifies(default_recursion_limit):
    g = long_cycle(20000)
    v = is_1_realizable(g)
    assert not v.answer
    assert v.verify(g)


def prism():
    return labelled(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)])


@pytest.mark.parametrize("make", [
    long_cycle, necklace, lambda n: balanced_strip(n, random.Random(7)),
    lambda n: labelled_strip(n, random.Random(7)), lambda n: tree_with_loops(n, random.Random(7)),
    # doubled towards both neighbours of vertex 1
    lambda n: GainGraph.of(4, [(1, 2, 0), (1, 2, 1), (1, 3, 0), (1, 3, 1), (2, 4, 0), (3, 4, 0)]),
    # doubled towards 2, single towards 3, and the rest unbalanced
    lambda n: GainGraph.of(4, [(1, 2, 0), (1, 2, 1), (1, 3, 0), (2, 4, 0), (3, 4, 1), (2, 3, 0)]),
    # K4-subdivision witnesses
    lambda n: k4_zero(), lambda n: wheel(5), lambda n: prism(),
    lambda n: random_cubic(60, random.Random(17)),
    # triangles with two and three doubled pairs
    lambda n: GainGraph.of(3, TRIANGLE_DOUBLED_PAIRS[:5]),
    lambda n: GainGraph.of(3, TRIANGLE_DOUBLED_PAIRS),
], ids=["cycle", "necklace", "strip", "labelled-strip", "tree-with-loops", "both-doubled",
        "unbalanced-rest", "K4", "W5", "prism", "cubic-60", "triangle-two-doubled",
        "triangle-three-doubled"])
def test_deciders_build_no_simple_graph(monkeypatch, make):
    # Both deciders split, search, check balance and build witnesses on
    # their own multigraph; only a lift window makes a SimpleGraph.
    g = make(300)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a decider built a {type(self).__name__}")

    with monkeypatch.context() as patch:
        patch.setattr(SimpleGraph, "__init__", refuse)
        patch.setattr(GainGraph, "__init__", refuse)
        verdicts = is_1_realizable(g), is_2_realizable(g)
    assert all(v.verify(g) for v in verdicts)


@pytest.mark.parametrize("make, bounds", [
    (k4_zero, (3, 4)), (k3_bullets, (3, 3)), (k2_bullet, (2, 2)),
    (lambda: GainGraph.of(3, TRIANGLE_DOUBLED_PAIRS[:5]), (3, 3)),
    (lambda: GainGraph.of(3, TRIANGLE_DOUBLED_PAIRS), (3, 3)),
    (lambda: long_cycle(300), (2, 2)), (lambda: necklace(300), (2, 2)),
    (lambda: tree_with_loops(300, random.Random(7)), (1, 1)),
    # incomplete graphs both deciders refuse: the finite-minor bound decides
    (lambda: wheel(5), (3, 6)), (prism, (3, 6)),
], ids=["K4", "K3-bullets", "K2-bullet", "triangle-two-doubled", "triangle-three-doubled",
        "cycle", "necklace", "tree-with-loops", "W5", "prism"])
def test_complete_type_path_builds_no_simple_graph(monkeypatch, make, bounds):
    # The span check, the PSD stress and the complete-case dimension read
    # graphs.pair_profile of the multigraph, and the finite-minor checks of
    # the bounds read the multigraph as a neighbour map: none builds a SimpleGraph.
    from realdim.frameworks import construct_psd_stress, span_check
    from realdim.randgen import random_framework

    g = make()
    fw = random_framework(random.Random(3), g, 2)
    complete = pair_profile(multigraph(g.vertices, g.edges))[0] == g.n * (g.n - 1) // 2

    def refuse(self, *args, **kwargs):
        raise AssertionError("built a SimpleGraph")

    with monkeypatch.context() as patch:
        patch.setattr(SimpleGraph, "__init__", refuse)
        sc = span_check(g)
        psd = construct_psd_stress(fw)
        rd = realizable_dimension_complete_case(g) if complete else None
        assert realizable_dimension_bounds(g).as_tuple() == bounds
    assert sc.agrees()
    assert (psd is not None) == sc.spanning_combinatorial
    assert rd in (None, bounds[0])


# -- witness size and the cost of verifying ------------------------------------------


@pytest.mark.parametrize("make, decide", [
    (long_cycle, is_2_realizable),
    (necklace, is_2_realizable),
    (lambda n: balanced_strip(n, random.Random(11)), is_2_realizable),
    (lambda n: tree_with_loops(n, random.Random(11)), is_1_realizable),
], ids=["cycle", "necklace", "strip-two-tree", "tree-with-loops"])
def test_verifying_a_yes_tree_builds_no_gain_graph(monkeypatch, make, decide):
    # One pass over the rows checks the leaves, the nodes and the cover.
    g = make(2000)
    v = decide(g)
    assert v.answer
    data = json.loads(json.dumps(certificate_to_json_dict(v)))

    def refuse(self, *args, **kwargs):
        raise AssertionError("verify built a GainGraph")

    monkeypatch.setattr(GainGraph, "__init__", refuse)
    assert v.verify(g)
    assert certificate_from_json_dict(data).verify(g)


def redundant_deletions(g, witness) -> list:
    """The delete_edge ops of a witness that, dropped alone, leave the graph
    it replays to as it is; each with the op at which its edge then goes."""
    final = witness.replay(g)
    found = []
    for i, op in enumerate(witness.ops):
        if op.kind != "delete_edge":
            continue
        ops = witness.ops[:i] + witness.ops[i + 1:]
        try:
            if MinorWitness(witness.pattern, ops).replay(g) != final:
                continue
        except RealdimError:
            continue
        gone = next(j for j in range(i, len(ops)) if op.target not in
                    {e.id for e in MinorWitness(witness.pattern, ops[:j + 1]).replay(g).edges})
        found.append((op, ops[gone]))
    return found


def test_no_witness_deletes_an_edge_its_vertex_takes():
    # A witness drops a vertex together with its edges: dropping any one
    # delete_edge op changes the graph the witness replays to, or makes
    # the replay fail.  The d=2 witnesses leave two cases, both made by a
    # contraction: a chord that it collapses onto a kept edge of its orbit
    # with a smaller id, or turns into a zero-label loop; and a selfloop
    # that it carries to a vertex the witness deletes later.
    rng = random.Random(20261019)
    graphs = list(corpus_500()) + [random_simple_gain_graph(rng, max_vertices=7, max_edges=12)
                                   for _ in range(2000)]
    # Vertex 2 is contracted into 4, which carries loop 6 there, and a
    # deletion step then deletes 4 with loops 6 and 8.
    graphs.append(GainGraph.of(6, [(6, 3, 1), (5, 4, 2), (1, 6, -1), (2, 4, -1), (6, 3, -1),
                                   (2, 2, -2), (1, 5, -1), (4, 4, 1), (6, 5, 2), (6, 2, 2),
                                   (1, 3, -2), (6, 4, -2)]))
    witnesses = 0
    for g in graphs:
        for decide in (is_1_realizable, is_2_realizable):
            v = decide(g)
            if v.answer:
                continue
            witnesses += 1
            for op, gone_at in redundant_deletions(g, v.certificate):
                e = g.edge(op.target)
                carried = (e.is_loop and gone_at.kind == "delete_vertex"
                           and gone_at.target != e.tail)
                assert decide is is_2_realizable, (g, op)
                assert gone_at.kind == "contract_edge" or carried, (g, op)
    assert witnesses > 1500


def dense_host(n, rng):
    """Pairs taken with probability 0.3 and random labels, and a loop at
    every third vertex."""
    pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.3]
    return GainGraph.of(n, [(a, b, rng.randint(-2, 2)) for a, b in pairs]
                        + [(v, v, 1) for v in range(1, n + 1, 3)])


@pytest.mark.parametrize("decide", [is_1_realizable, is_2_realizable], ids=["d1", "d2"])
def test_witness_ops_are_bounded_by_n_and_the_kept_chords(decide):
    # Each vertex is deleted or contracted at most once, and only edges
    # with both ends kept are deleted by id.
    g = dense_host(60, random.Random(5))
    v = decide(g)
    assert not v.answer
    ops = v.certificate.ops
    dropped = {op.target for op in ops if op.kind == "delete_vertex"}
    kept_edges = sum(e.tail not in dropped and e.head not in dropped for e in g.edges)
    assert len(ops) <= g.n + kept_edges < g.m
    assert v.verify(g)


@pytest.mark.parametrize("edge, accepted", [
    ([1, 1, 2, 0], True), ([1, 1, 2, -3], True), ([1, 1, 2, True], False),
    ([False, 1, 2, 0], False), ([1, 1, 2, 0.0], False), ([1, 1, "2", 0], False),
    ([1, 1, 2], False), ([1, 1, 2, 0, 0], False), ((1, 1, 2, 0), False), ("1120", False),
])
def test_leaf_edges_are_read_as_four_integers(edge, accepted):
    data = {"rows": [{"node": LEAF, "vertices": [1, 2], "edges": [edge]}]}
    if accepted:
        assert DecompositionTree.from_json_dict(data).rows[0].edges == (tuple(edge),)
    else:
        with pytest.raises(CertificateError, match="row 0: an edge must be four integers"):
            DecompositionTree.from_json_dict(data)
