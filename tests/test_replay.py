"""The iterative certificate replay against the recursive one it replaced.

``reference_replay`` glues each tree level into a new graph through a
pairwise ``union`` and checks each node's shape on its glued children;
it is kept here as the reference.  The two must agree on accept/reject
and on the replayed graph (vertices, edge ids and orbit keys), except
where an edge id names two orbits in different leaves: the reference
compares only the ids that survive each level's orbit collapse, the
replay compares all of them.
"""

import dataclasses
import random

import pytest

from realdim.certificates import (
    BALANCED_TWO_SUM,
    DISJOINT_UNION,
    LEAF,
    ONE_SUM,
    CertificateError,
    DecompositionTree,
)
from realdim.errors import RealdimError
from realdim.graphs import GainEdge, GainGraph
from realdim.randgen import random_simple_gain_graph
from realdim.realizability import is_1_realizable, is_2_realizable
from test_acceptance import corpus_500

# -- the reference ---------------------------------------------------------------


def union(g1, g2):
    """Vertexwise and edgewise union over a shared id universe; an edge of
    g2 whose orbit g1 already carries under another id is dropped."""
    carried = {e.orbit_key() for e in g1.edges}
    by_id = {e.id: e for e in g1.edges}
    edges = list(g1.edges)
    for e in g2.edges:
        key = e.orbit_key()
        mine = by_id.get(e.id)
        if mine is not None:
            if mine.orbit_key() != key:
                raise RealdimError(
                    f"edge {e.id} has conflicting endpoints or label in the two graphs"
                )
        elif key not in carried:
            edges.append(e)
    return GainGraph(set(g1.vertices) | set(g2.vertices), edges)


def reference_replay(tree):
    if tree.kind == LEAF:
        if tree.graph is None:
            raise CertificateError("leaf without a graph")
        return tree.graph
    replays = [reference_replay(c) for c in tree.children]
    if tree.kind == DISJOINT_UNION:
        if len(replays) < 2:
            raise CertificateError("disjoint union needs at least two children")
        seen: set = set()
        for r in replays:
            if seen & set(r.vertices):
                raise CertificateError("disjoint union children share vertices")
            seen |= set(r.vertices)
    else:
        _check_sum(tree, replays)
    out = replays[0]
    try:
        for r in replays[1:]:
            out = union(out, r)
    except RealdimError as exc:
        raise CertificateError(f"glued parts disagree: {exc}") from None
    return out


def _check_sum(tree, replays):
    if len(replays) != 2:
        raise CertificateError(f"{tree.kind} needs exactly two children")
    a, b = replays
    shared_vs = set(a.vertices) & set(b.vertices)
    if tree.kind == ONE_SUM:
        if shared_vs != {tree.shared_vertex}:
            raise CertificateError("one-sum must share exactly one vertex")
        return
    if tree.kind != BALANCED_TWO_SUM:
        raise CertificateError(f"unknown node kind {tree.kind!r}")
    x, y = tree.shared_pair
    if shared_vs != {x, y}:
        raise CertificateError("two-sum must share exactly the shared pair")
    common = {f.gain_from(x) for f in a.edges_between(x, y)} & {
        f.gain_from(x) for f in b.edges_between(x, y)
    }
    if len(common) != 1:
        raise CertificateError("two-sum sides must share exactly one edge between the shared pair")
    for v in (x, y):
        la = {abs(e.label) for e in a.loops_at(v)}
        lb = {abs(e.label) for e in b.loops_at(v)}
        if la & lb:
            raise CertificateError("two-sum sides share a selfloop")
    if tree.zero_child not in (0, 1):
        raise CertificateError("two-sum must name its balanced summand")
    if not replays[tree.zero_child].is_balanced():
        raise CertificateError("the designated two-sum summand is not balanced")


# -- comparison ------------------------------------------------------------------


def outcome(replay, tree):
    """None for a rejected tree, else the replayed vertices, ids and orbit keys."""
    try:
        g = replay(tree)
    except CertificateError:
        return None
    return g.vertices, [(e.id, e.orbit_key()) for e in g.edges]


def names_two_orbits(tree) -> bool:
    """Whether some edge id names two orbits in different leaves."""
    ids: dict = {}
    return any(ids.setdefault(e.id, e.orbit_key()) != e.orbit_key()
               for leaf in tree.leaves() for e in leaf.graph.edges)


def assert_replays_agree(tree) -> bool:
    """Compare the two replays on one tree; return whether it was accepted."""
    ref, new = outcome(reference_replay, tree), outcome(DecompositionTree.replay, tree)
    if ref is not None and new is None:
        assert names_two_orbits(tree)
    else:
        assert new == ref
    return new is not None


def yes_trees(graphs):
    for g in graphs:
        for decide in (is_1_realizable, is_2_realizable):
            v = decide(g)
            if v.answer:
                yield v.certificate


def test_replays_agree_on_acceptance_corpus():
    accepted = [assert_replays_agree(t) for t in yes_trees(corpus_500())]
    assert len(accepted) > 500 and all(accepted)


# -- mutated trees -----------------------------------------------------------------


def nodes(tree, path=()):
    yield path, tree
    for i, c in enumerate(tree.children):
        yield from nodes(c, path + (i,))


def put(tree, path, new):
    if not path:
        return new
    children = list(tree.children)
    children[path[0]] = put(children[path[0]], path[1:], new)
    return dataclasses.replace(tree, children=tuple(children))


def mutate_leaf(rng, graph, tree):
    edges = list(graph.edges)
    move = rng.randrange(5)
    if move == 0 and edges:  # relabel an edge
        i = rng.randrange(len(edges))
        e = edges[i]
        edges[i] = GainEdge(e.id, e.tail, e.head, e.label + rng.choice((-1, 1)))
    elif move == 1 and edges:  # give an edge an id used elsewhere in the tree
        used = [f.id for leaf in tree.leaves() for f in leaf.graph.edges]
        i = rng.randrange(len(edges))
        e = edges[i]
        edges[i] = GainEdge(rng.choice(used), e.tail, e.head, e.label)
    elif move == 2:  # switch a vertex
        return graph.switch(rng.choice(graph.vertices), rng.choice((-2, -1, 1, 2)))
    elif move == 3 and edges:  # drop an edge
        edges.pop(rng.randrange(len(edges)))
    else:  # copy an edge of another leaf whose endpoints this leaf has
        other = [f for leaf in tree.leaves() for f in leaf.graph.edges
                 if {f.tail, f.head} <= set(graph.vertices)]
        if other:
            edges.append(rng.choice(other))
    return GainGraph(graph.vertices, edges)


def mutate(rng, tree):
    path, node = rng.choice(list(nodes(tree)))
    vertices = sorted(set(v for leaf in tree.leaves() for v in leaf.graph.vertices))
    if node.kind == LEAF:
        return put(tree, path, DecompositionTree.leaf(mutate_leaf(rng, node.graph, tree)))
    move = rng.randrange(5)
    if move == 0:  # reorder the children
        new = dataclasses.replace(node, children=node.children[::-1])
    elif move == 1 and node.kind == BALANCED_TWO_SUM:
        new = dataclasses.replace(node, zero_child=1 - node.zero_child)
    elif move == 2 and node.kind != DISJOINT_UNION:  # another one- or two-sum
        if rng.random() < 0.5:
            new = DecompositionTree.one_sum(*node.children[:2], rng.choice(vertices))
        else:
            pair = rng.sample(vertices, 2) if len(vertices) > 1 else (1, 2)
            new = DecompositionTree.balanced_two_sum(*node.children[:2], pair, rng.randrange(2))
    elif move == 3:  # a disjoint union of the children
        new = DecompositionTree(DISJOINT_UNION, children=node.children)
    else:  # graft in a copy of another subtree
        _, other = rng.choice(list(nodes(tree)))
        children = list(node.children)
        children[rng.randrange(len(children))] = other
        new = dataclasses.replace(node, children=tuple(children))
    return put(tree, path, new)


def mutated_trees(count, seed):
    rng = random.Random(seed)
    sources = list(yes_trees(random_simple_gain_graph(rng, max_vertices=6, max_edges=9)
                             for _ in range(300)))
    made = 0
    while made < count:
        tree = rng.choice(sources)
        try:
            for _ in range(rng.randint(1, 2)):
                tree = mutate(rng, tree)
        except RealdimError:  # the mutated leaf is not simple
            continue
        made += 1
        yield tree


def test_replays_agree_on_mutated_trees():
    accepted = [assert_replays_agree(t) for t in mutated_trees(3000, seed=8)]
    # Enough of both kinds that the comparison means something.
    assert 300 < sum(accepted) < 2700


def test_id_naming_two_orbits_is_refused_though_the_reference_dropped_it():
    # Edge 5 first names the orbit of edge 3, so the reference drops it
    # at the two-sum; it then names the 2-3 edge, which the reference keeps.
    left = DecompositionTree.balanced_two_sum(
        DecompositionTree.leaf(GainGraph((1, 2), [GainEdge(3, 1, 2, 0)])),
        DecompositionTree.leaf(GainGraph((1, 2), [GainEdge(5, 1, 2, 0)])),
        (1, 2), zero_child=0,
    )
    tree = DecompositionTree.one_sum(
        left, DecompositionTree.leaf(GainGraph((2, 3), [GainEdge(5, 2, 3, 0)])), 2)
    assert outcome(reference_replay, tree) == ((1, 2, 3), [(3, (1, 2, 0)), (5, (2, 3, 0))])
    with pytest.raises(CertificateError, match="edge 5 names two orbits"):
        tree.replay()
