import itertools
import random
import time
from collections import Counter, OrderedDict, deque

import pytest

from realdim import minors
from realdim.errors import BoundExceededError, RealdimError
from realdim.graphs import GainEdge, GainGraph, SimpleGraph, canonical_state, orbit_key
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
from realdim.randgen import random_isomorphic_copy, random_simple_gain_graph
from realdim.realizability import is_2_realizable
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
    # One bound check for both searches; its message names the host's size.
    g = GainGraph.of(9, [(i, i + 1, 0) for i in range(1, 9)])
    for search in (lambda: has_minor(g, MinorPattern.family(K2_BULLET)),
                   lambda: contains_forbidden(g, 2)):
        with pytest.raises(BoundExceededError, match="8 vertices / 16 edges; host has 9 / 8"):
            search()


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


def ref_apply(g, op):
    """One op by deleting or by switching then rebuilding, apart from GainGraph.minor."""
    kind, target, survivor = op
    if kind == "delete_edge":
        return GainGraph(g.vertices, [e for e in g.edges if e.id != target])
    if kind == "delete_vertex":
        return GainGraph([v for v in g.vertices if v != target],
                         [e for e in g.edges if target not in (e.tail, e.head)])
    e = g.edge(target)
    gone = e.head if survivor == e.tail else e.tail
    kept = {}
    for f in g.switch_many({e.head: e.label}).edges:  # in id order
        t, h = (survivor if v == gone else v for v in (f.tail, f.head))
        if f.id != target and (t != h or f.label != 0):
            kept.setdefault(orbit_key(t, h, f.label), GainEdge(f.id, t, h, f.label))
    return GainGraph([v for v in g.vertices if v != gone], kept.values())


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
            elif kind == "contract_edge" and non_loops:
                e = rng.choice(non_loops)
                op = MinorOp(kind, e.id, rng.choice((e.tail, e.head)))
            else:
                op = MinorOp("delete_vertex", rng.choice(h.vertices))
            h = ref_apply(h, op)
            ops.append(op)
        witness = MinorWitness(MinorPattern.family(K2_BULLET), tuple(ops))
        assert witness.replay(g) == h
        # contracting an edge that an earlier op removed fails, naming its own index
        left = {e.id for e in h.edges}
        removed = [e.id for e in g.edges if e.id not in left]
        if removed:
            eid = removed[0]
            bad = MinorWitness(witness.pattern, witness.ops + (MinorOp("contract_edge", eid),))
            with pytest.raises(RealdimError, match=rf"^op {len(ops)} \(contract_edge {eid}\): "
                                                   rf"unknown edge id {eid}$"):
                bad.replay(g)


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


# -- reference: the engine the state search replaced ---------------------------
#
# GainGraph successors, a canonical form that tries every choice of tree
# edge, and a depth-first search with a visited set.  The state search must
# give the same verdicts and the same witness ops.


def ref_canonical(g):
    loops = {v: sorted(abs(e.label) for e in g.edges if e.is_loop and e.tail == v)
             for v in g.vertices}
    pair_edges: dict = {}
    adj: dict = {v: set() for v in g.vertices}
    for e in g.edges:
        if not e.is_loop:
            pair_edges.setdefault(e.pair(), []).append(e)
            adj[e.tail].add(e.head)
            adj[e.head].add(e.tail)

    def invariant(v):
        mults = sorted(len(pair_edges[frozenset((v, w))]) for w in adj[v])
        return (len(adj[v]), tuple(mults), tuple(loops[v]))

    groups: dict = {}
    for v in g.vertices:
        groups.setdefault(invariant(v), []).append(v)
    best = None
    for parts in itertools.product(*(itertools.permutations(groups[k]) for k in sorted(groups))):
        pos = {v: k for k, v in enumerate(itertools.chain.from_iterable(parts), start=1)}
        seen, tree = set(), []
        for root in sorted(pos, key=pos.get):
            if root in seen:
                continue
            seen.add(root)
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for w in sorted(adj[u], key=pos.get):
                    if w not in seen:
                        seen.add(w)
                        tree.append((u, w))
                        queue.append(w)
        for choice in itertools.product(*(pair_edges[frozenset(t)] for t in tree)):
            phi = {v: 0 for v in pos}
            for (u, w), e in zip(tree, choice):
                phi[w] = phi[u] + e.gain_from(u)
            triples = [(pos[v], pos[v], a) for v in loops for a in loops[v]]
            for e in g.edges:
                if not e.is_loop:
                    z = e.label + phi[e.tail] - phi[e.head]
                    a, b = pos[e.tail], pos[e.head]
                    triples.append((a, b, z) if a < b else (b, a, -z))
            cand = tuple(sorted(triples))
            if best is None or cand < best:
                best = cand
    return (g.n, best)


def ref_matches(pattern, g):
    if pattern.kind == K2_BULLET:
        return g.n == 2 and g.m == 2 and not any(e.is_loop for e in g.edges)
    if pattern.kind == K3_BULLETBULLET:
        if g.n != 3 or g.m != 5 or any(e.is_loop for e in g.edges):
            return False
        mults = sorted(g.multiplicity(a, b) for a, b in itertools.combinations(g.vertices, 2))
        return mults == [1, 2, 2]
    return (g.n, g.m) == (pattern.graph.n, pattern.graph.m) and (
        ref_canonical(g) == ref_canonical(pattern.graph))


def ref_successors(g):
    for e in g.edges:
        yield MinorOp("delete_edge", e.id), g.delete_edge(e.id)
    touched = {v for e in g.edges for v in (e.tail, e.head)}
    for v in g.vertices:
        if v not in touched:
            yield MinorOp("delete_vertex", v), g.delete_vertex(v)
    for e in g.edges:
        if not e.is_loop:
            yield MinorOp("contract_edge", e.id, min(e.tail, e.head)), g.contract_edge(e.id)


def ref_has_minor(host, pattern):
    """The ops of the first path the depth-first search finds, or None."""
    need_v, need_e = pattern.min_vertices(), pattern.min_edges()
    seen = set()

    def search(g, ops):
        if g.n < need_v or g.m < need_e:
            return None
        key = ref_canonical(g)
        if key in seen:
            return None
        seen.add(key)
        if ref_matches(pattern, g):
            return ops
        for op, h in ref_successors(g):
            found = search(h, ops + [op])
            if found is not None:
                return found
        return None

    ops = search(host, [])
    return None if ops is None else tuple(ops)


def ref_contains_forbidden(host, dimension, cache):
    patterns = minors.FORBIDDEN_D1 if dimension == 1 else minors.FORBIDDEN_D2
    need_v = min(p.min_vertices() for p in patterns)
    need_e = min(p.min_edges() for p in patterns)

    def search(g):
        if g.n < need_v or g.m < need_e:
            return False
        key = (dimension, ref_canonical(g))
        if key not in cache:
            cache[key] = any(ref_matches(p, g) for p in patterns) or any(
                search(h) for _, h in ref_successors(g))
        return cache[key]

    return search(host)


NAMED_PATTERNS = (
    MinorPattern.family(K2_BULLET),
    balanced_complete_pattern(3),
    MinorPattern.family(K3_BULLETBULLET),
    balanced_complete_pattern(4),
)


def test_state_search_equals_reference_on_graphs_with_loops_and_isolated_vertices():
    rng = random.Random(41)
    shapes = {"loop": 0, "isolated": 0}
    cache: dict = {}
    for _ in range(150):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        shapes["loop"] += any(e.is_loop for e in g.edges)
        shapes["isolated"] += g.n > len({v for e in g.edges for v in (e.tail, e.head)})
        for dim in (1, 2):
            assert contains_forbidden(g, dim) == ref_contains_forbidden(g, dim, cache), g
        for p in NAMED_PATTERNS:
            w = has_minor(g, p)
            assert (None if w is None else w.ops) == ref_has_minor(g, p), (g, p)
    assert min(shapes.values()) >= 20, shapes


def test_exact_patterns_with_loops_or_isolated_vertices_are_searched_unstripped():
    rng = random.Random(43)
    kinds = set()
    for _ in range(150):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        p = MinorPattern.exact(random_simple_gain_graph(rng, max_vertices=3, max_edges=3))
        if any(e.is_loop for e in p.graph.edges):
            kinds.add("loop")
        if p.graph.n > len({v for e in p.graph.edges for v in (e.tail, e.head)}):
            kinds.add("isolated")
        w = has_minor(g, p)
        assert (None if w is None else w.ops) == ref_has_minor(g, p), (g, p)
        assert w is None or w.verify(g)
    assert kinds == {"loop", "isolated"}
    # Deleting selfloops and isolated vertices first would lose these minors.
    host = GainGraph.of(2, [(1, 1, 1), (1, 2, 0)])
    assert has_minor(host, MinorPattern.exact(GainGraph.of(1, [(1, 1, 1)]))) is not None
    assert has_minor(host, MinorPattern.exact(GainGraph.of(2, []))) is not None


def test_canonical_form_partition_equals_reference():
    rng = random.Random(47)
    graphs = []
    for _ in range(3000):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        graphs += [g, random_isomorphic_copy(rng, g)]
    pairs = {(g.canonical_form(), ref_canonical(g)) for g in graphs}
    # A canonical form is itself a state on 1..n, and its own canonical form.
    assert all(canonical_state(*new) == new for new, _ in pairs)
    assert len(pairs) == len({new for new, _ in pairs}) == len({old for _, old in pairs})
    # Sparse 6-7 vertex graphs: the BFS restarts at new roots, among them
    # vertices with only loops and isolated ones.
    graphs, shapes = [], Counter()
    for _ in range(80):
        g = random_simple_gain_graph(rng, max_vertices=7, max_edges=9, min_vertices=6,
                                     label_min=-1, label_max=1)
        graphs += [g, random_isomorphic_copy(rng, g)]
        shapes["disconnected"] += not g.underlying_simple_graph().is_connected()
        shapes["loop"] += any(e.is_loop for e in g.edges)
        shapes["isolated"] += g.n > len({v for e in g.edges for v in (e.tail, e.head)})
    assert min(shapes.values()) >= 20, shapes
    pairs = {(g.canonical_form(), ref_canonical(g)) for g in graphs}
    assert all(canonical_state(*new) == new for new, _ in pairs)
    assert len(pairs) == len({new for new, _ in pairs}) == len({old for _, old in pairs})


def test_cache_stays_under_its_cap_and_answers_survive_eviction(monkeypatch):
    rng = random.Random(53)
    graphs = [random_simple_gain_graph(rng, max_vertices=5, max_edges=8) for _ in range(40)]
    expected = [(contains_forbidden(g, 1), contains_forbidden(g, 2),
                 has_minor(g, NAMED_PATTERNS[3])) for g in graphs]
    cache = OrderedDict()
    monkeypatch.setattr(minors, "_CACHE", cache)
    monkeypatch.setattr(minors, "_CACHE_SIZE", 7)
    for _ in range(2):
        for g, want in zip(graphs, expected):
            got = (contains_forbidden(g, 1), contains_forbidden(g, 2),
                   has_minor(g, NAMED_PATTERNS[3]))
            assert got == want, g
            assert len(cache) <= 7
    assert len(cache) == 7


def test_canonical_table_stays_under_its_cap_and_answers_survive_eviction(monkeypatch):
    rng = random.Random(57)
    graphs = [random_simple_gain_graph(rng, max_vertices=5, max_edges=8) for _ in range(40)]
    expected = [(contains_forbidden(g, 1), contains_forbidden(g, 2),
                 has_minor(g, NAMED_PATTERNS[3])) for g in graphs]
    table = OrderedDict()
    monkeypatch.setattr(minors, "_CACHE", OrderedDict())
    monkeypatch.setattr(minors, "_CANON", table)
    monkeypatch.setattr(minors, "_CANON_SIZE", 7)
    for _ in range(2):
        for g, want in zip(graphs, expected):
            got = (contains_forbidden(g, 1), contains_forbidden(g, 2),
                   has_minor(g, NAMED_PATTERNS[3]))
            assert got == want, g
            assert len(table) <= 7
    assert len(table) == 7


def test_a_query_expands_each_class_once_whatever_the_cap(monkeypatch):
    # The cap is applied between queries, so one query never re-expands
    # a class that it evicted itself.
    expanded = Counter()

    def steps(n, triples, strip=False):
        expanded[n, tuple(triples)] += 1
        return real_steps(n, triples, strip)

    real_steps = minors._steps
    monkeypatch.setattr(minors, "_steps", steps)
    monkeypatch.setattr(minors, "_CACHE", OrderedDict())
    monkeypatch.setattr(minors, "_CACHE_SIZE", 1)
    # A balanced fan is 2-realizable, so the search visits every class.
    fan = GainGraph.of(6, [(1, i, 0) for i in range(2, 7)] + [(i, i + 1, 0) for i in range(2, 6)])
    assert not contains_forbidden(fan, 2)
    assert len(expanded) > 50 and max(expanded.values()) == 1
    assert len(minors._CACHE) == 1


def test_sparse_eight_vertex_host_answers_quickly(monkeypatch):
    # The host has 6! * 2! orderings that respect its vertex invariant but
    # only 8 BFS orderings, and its minors are alike.
    h = GainGraph.of(8, [(1, 2, 0), (2, 3, 1), (3, 4, 0), (4, 5, 2), (5, 6, 0), (6, 7, 1),
                         (7, 8, 0), (8, 1, 0), (1, 5, 1)])
    times = []
    for _ in range(3):
        monkeypatch.setattr(minors, "_CACHE", OrderedDict())
        monkeypatch.setattr(minors, "_CANON", OrderedDict())
        start = time.perf_counter()
        found = contains_forbidden(h, 2)
        times.append(time.perf_counter() - start)
    assert found is False
    assert found == (not is_2_realizable(h).answer)
    assert min(times) < 0.5, times


def test_pattern_match_keeps_the_canonical_form_bound():
    n = 9
    cycle = GainGraph.of(n, [(i, i % n + 1, 0) for i in range(1, n + 1)])
    with pytest.raises(BoundExceededError, match="8 vertices, graph has 9"):
        MinorWitness(MinorPattern.exact(cycle)).verify(cycle)


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
