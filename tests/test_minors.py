import itertools
import random

import pytest

from realdim.errors import BoundExceededError
from realdim.graphs import GainGraph, SimpleGraph
from realdim.minors import (
    K2_BULLET,
    K3_BULLETBULLET,
    MinorOp,
    MinorPattern,
    MinorWitness,
    balanced_complete_pattern,
    contains_forbidden,
    finite_has_minor,
    finite_rd_upper3,
    has_minor,
)
from test_graphs import counterexample_c, k3_zero, k4_zero, ladder_graph


def complete_simple(n):
    return SimpleGraph(range(1, n + 1), itertools.combinations(range(1, n + 1), 2))


def k222_simple():
    vs = range(1, 7)
    skip = {frozenset((1, 2)), frozenset((3, 4)), frozenset((5, 6))}
    return SimpleGraph(vs, [e for e in itertools.combinations(vs, 2) if frozenset(e) not in skip])


# -- labelled minor search -----------------------------------------------------


def test_k3_zero_has_no_k2_bullet_minor():
    assert has_minor(k3_zero(), MinorPattern.family(K2_BULLET)) is None


def test_counterexample_c_has_k3bb_minor_via_contraction():
    w = has_minor(counterexample_c(), MinorPattern.family(K3_BULLETBULLET))
    assert w is not None
    assert w.verify(counterexample_c())


def test_identity_exact_match_gives_empty_witness():
    g = ladder_graph()
    w = has_minor(g, MinorPattern.exact(g))
    assert w is not None and w.ops == ()


def test_k2_bullet_minor_of_unbalanced_triangle():
    g = GainGraph.of(3, [(1, 2, 0), (2, 3, 0), (3, 1, 1)])
    w = has_minor(g, MinorPattern.family(K2_BULLET))
    assert w is not None and w.verify(g)


def test_balanced_triangle_is_k3_zero_minor_only():
    g = GainGraph.of(3, [(1, 2, 2), (1, 3, 2), (2, 3, 0)])
    assert g.is_balanced()
    assert has_minor(g, balanced_complete_pattern(3)) is not None
    assert has_minor(g, MinorPattern.family(K2_BULLET)) is None


def test_k4_zero_is_its_own_minor_and_no_k3bb():
    assert has_minor(k4_zero(), balanced_complete_pattern(4)) is not None
    assert has_minor(k4_zero(), MinorPattern.family(K3_BULLETBULLET)) is None


def test_ladder_graph_contains_k3bb():
    # The doubled pairs {1,3}, {2,3} plus the single 1-2 edge are the shape.
    w = has_minor(ladder_graph(), MinorPattern.family(K3_BULLETBULLET))
    assert w is not None and w.ops == () or w.verify(ladder_graph())


def test_bound_exceeded():
    g = GainGraph.of(9, [(i, i + 1, 0) for i in range(1, 9)])
    with pytest.raises(BoundExceededError):
        has_minor(g, MinorPattern.family(K2_BULLET))


def test_witness_replay_soundness_random():
    rng = random.Random(5)
    patterns = [
        MinorPattern.family(K2_BULLET),
        MinorPattern.family(K3_BULLETBULLET),
        balanced_complete_pattern(3),
        balanced_complete_pattern(4),
    ]
    from realdim.randgen import random_simple_gain_graph

    for _ in range(40):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        for p in patterns:
            w = has_minor(g, p)
            if w is not None:
                assert w.verify(g)


def _witness(pattern, *ops):
    return MinorWitness(pattern, tuple(MinorOp(kind, target) for kind, target in ops))


TRIPLE_PAIR = GainGraph.of(2, [(1, 2, 0), (1, 2, 1), (1, 2, 2)])


@pytest.mark.parametrize(
    "host, witness, ok",
    [
        (TRIPLE_PAIR, _witness(MinorPattern.family(K2_BULLET), ("delete_edge", 3)), True),
        (TRIPLE_PAIR, _witness(MinorPattern.family(K2_BULLET),
                               ("delete_edge", 3), ("delete_edge", 3)), False),
        (TRIPLE_PAIR, _witness(MinorPattern.family(K2_BULLET),
                               ("delete_edge", 3), ("delete_edge", 7)), False),
        (k4_zero(), _witness(balanced_complete_pattern(3), ("delete_vertex", 4)), True),
        (k4_zero(), _witness(balanced_complete_pattern(3),
                             ("delete_vertex", 4), ("delete_vertex", 4)), False),
        (k4_zero(), _witness(balanced_complete_pattern(3),
                             ("delete_vertex", 4), ("delete_vertex", 9)), False),
        (k4_zero(), _witness(balanced_complete_pattern(3), ("split_vertex", 4)), False),
    ],
    ids=["edge", "edge-repeated", "edge-unknown", "vertex", "vertex-repeated", "vertex-unknown",
         "unknown-kind"],
)
def test_replay_rejects_unknown_or_repeated_target_in_a_deletion_run(host, witness, ok):
    assert witness.verify(host) is ok


def test_replay_of_deletion_runs_equals_op_by_op():
    rng = random.Random(13)
    from realdim.randgen import random_simple_gain_graph

    for _ in range(200):
        g = random_simple_gain_graph(rng, max_vertices=6, max_edges=10)
        ops = []
        h = g
        while h.n > 1 and rng.random() < 0.9:
            kind = rng.choice(["delete_edge", "delete_vertex", "contract_edge"])
            non_loops = [e for e in h.edges if not e.is_loop]
            if kind == "delete_edge" and h.edges:
                op = MinorOp(kind, rng.choice(h.edges).id)
                h = h.delete_edge(op.target)
            elif kind == "contract_edge" and non_loops:
                e = rng.choice(non_loops)
                op = MinorOp(kind, e.id, rng.choice((e.tail, e.head)))
                h = h.contract_edge(op.target, survivor=op.survivor)
            else:
                op = MinorOp("delete_vertex", rng.choice(h.vertices))
                h = h.delete_vertex(op.target)
            ops.append(op)
        assert MinorWitness(MinorPattern.family(K2_BULLET), tuple(ops)).replay(g) == h


def test_minor_invariant_under_isomorphism():
    rng = random.Random(17)
    from realdim.randgen import random_isomorphic_copy, random_simple_gain_graph

    for _ in range(25):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=7)
        h = random_isomorphic_copy(rng, g)
        for p in (MinorPattern.family(K2_BULLET), balanced_complete_pattern(3)):
            assert (has_minor(g, p) is None) == (has_minor(h, p) is None)


def test_minor_monotonicity_random():
    rng = random.Random(23)
    from realdim.randgen import random_minor_operation, random_simple_gain_graph

    pattern = MinorPattern.family(K2_BULLET)
    for _ in range(40):
        host = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        smaller = random_minor_operation(rng, host)
        if smaller is None:
            continue
        if has_minor(smaller, pattern) is not None:
            assert has_minor(host, pattern) is not None


def test_d1_forbidden_set_equals_cycle_condition():
    rng = random.Random(29)
    from realdim.randgen import random_simple_gain_graph

    for _ in range(60):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        has_cycle = any(
            g.multiplicity(a, b) >= 2 for a, b in itertools.combinations(g.vertices, 2)
        ) or g.underlying_simple_graph().find_cycle() is not None
        assert contains_forbidden(g, 1) == has_cycle


# -- finite patterns --------------------------------------------------------------


def test_finite_k4_in_k4():
    assert finite_has_minor(complete_simple(4), "K4")


def test_tree_has_no_k3():
    tree = SimpleGraph(range(1, 6), [(1, 2), (2, 3), (3, 4), (3, 5)])
    assert not finite_has_minor(tree, "K3")


def test_k222_brute_force():
    host = k222_simple()
    assert not finite_has_minor(host, "K5")
    assert finite_has_minor(host, "K222")


def test_k5_detects_itself_and_k4():
    assert finite_has_minor(complete_simple(5), "K5")
    assert finite_has_minor(complete_simple(5), "K4")
    assert not finite_has_minor(complete_simple(4), "K5")


def test_finite_rd_upper3_values():
    assert finite_rd_upper3(complete_simple(3)) == 2
    assert finite_rd_upper3(k222_simple()) == ">=4"
    assert finite_rd_upper3(SimpleGraph((1, 2), [(1, 2)])) == 1
    assert finite_rd_upper3(SimpleGraph((1, 2), ())) == 0
    assert finite_rd_upper3(complete_simple(4)) == 3
    assert finite_rd_upper3(complete_simple(5)) == ">=4"


def test_series_parallel_reduction_on_theta():
    theta = SimpleGraph(
        range(1, 5), [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]
    )
    assert not finite_has_minor(theta, "K4")
    wheel = SimpleGraph(range(1, 5), [(1, 2), (2, 3), (3, 1), (1, 4), (2, 4), (3, 4)])
    assert finite_has_minor(wheel, "K4")
