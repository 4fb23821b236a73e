import json
import math
import random

import pytest

from realdim.certificates import (
    CertificateError,
    DecompositionTree,
    verify_decomposition,
)
from realdim.errors import RealdimError
from realdim.graphs import GainGraph
from realdim.minors import MinorWitness, contains_forbidden
from realdim.randgen import random_isomorphic_copy, random_simple_gain_graph
from realdim.realizability import (
    RdBounds,
    is_1_realizable,
    is_2_realizable,
    realizable_dimension_bounds,
    realizable_dimension_complete_case,
)
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


def test_forest_with_loops_tree_structure():
    g = GainGraph.of(5, [(1, 2, 3), (2, 3, -1), (4, 5, 0), (2, 2, 2)])
    v = is_1_realizable(g)
    assert v.answer
    check_verdict(g, v)


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


def test_wheel_min_degree_three_not_2_realizable():
    g = GainGraph.of(
        4, [(1, 2, 0), (2, 3, 0), (3, 1, 0), (1, 4, 0), (2, 4, 0), (3, 4, 1)]
    )
    v = is_2_realizable(g)
    assert not v.answer
    check_verdict(g, v)


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


def test_decomposition_rejects_tampering():
    from realdim.graphs import GainEdge

    g = counterexample_a()
    tree = is_2_realizable(g).certificate

    def corrupt(leaf_graph):
        edges = list(leaf_graph.edges)
        if edges and not edges[0].is_loop:
            e = edges[0]
            edges[0] = GainEdge(e.id, e.tail, e.head, e.label + 40)
        return leaf_graph.replace_edges(edges)

    bad = tree.map_leaf_graphs(corrupt)
    with pytest.raises(CertificateError):
        verify_decomposition(bad, g, 2)


def test_decomposition_rejects_wrong_leaf_family():
    g = k4_zero()
    tree = DecompositionTree.leaf(g)  # a 4-vertex leaf is in no family
    with pytest.raises(CertificateError):
        verify_decomposition(tree, g, 2)


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
# These run at the default recursion limit: one-sum layers are glued as
# balanced trees, so certificates stay logarithmically deep.


def tree_depth(tree) -> int:
    deepest = 0
    stack = [(tree, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((c, d + 1) for c in node.children)
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
    assert tree_depth(verdict.certificate) <= 4 * math.log2(g.n)
    text = json.dumps(certificate_to_json_dict(verdict), indent=2)
    back = certificate_from_json_dict(json.loads(text))
    assert tree_depth(back.certificate) == tree_depth(verdict.certificate)
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
