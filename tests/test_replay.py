"""The certificate replay over a table of rows against a recursive reference.

``reference_replay`` writes each series row of a table out as its
triangle leaf and two-sum, and each pendant row as its one-edge leaf and
one-sum, nests the table back into a tree, then glues
each tree level into a new graph through a pairwise ``union`` and checks
each node's shape on its glued children; it is kept here as the
reference.
The two must agree on accept/reject and on the replayed graph (vertices,
edge ids and orbit keys), except where an edge id names two orbits in
different leaves: the reference compares only the ids that survive each
level's orbit collapse, the replay compares all of them.
"""

import itertools
import random

import pytest

from realdim.certificates import (
    BALANCED_TWO_SUM,
    DISJOINT_UNION,
    LEAF,
    ONE_SUM,
    PENDANT,
    SERIES,
    CertificateError,
    DecompositionTree,
    Row,
)
from realdim.errors import RealdimError
from realdim.graphs import GainEdge, GainGraph, orbit_key
from realdim.randgen import random_simple_gain_graph
from realdim.realizability import is_1_realizable, is_2_realizable
from test_acceptance import corpus_500
from test_graphs import leaf, one_sum, two_sum

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


def nest(rows):
    """The tree a table stands for, as (row, children) pairs, a leaf's
    children being its graph."""
    done = []
    for row in rows:
        if row.kind == LEAF:
            done.append((row, GainGraph(row.vertices, [GainEdge(*e) for e in row.edges])))
            continue
        if not 0 < row.children <= len(done):
            raise CertificateError("a node has too few subtrees before it")
        kids = done[-row.children:]
        del done[-row.children:]
        done.append((row, kids))
    if len(done) != 1:
        raise CertificateError("the rows are not one tree")
    return done[0]


def expand(rows):
    """The table with each series row written out as its triangle leaf and
    two-sum, and each pendant row as its one-edge leaf and a one-sum at an
    end in the subtree before it (any end where none or both are).  The
    edges w-a and w-b of series row i take the ids top + 2i + 1 and
    top + 2i + 2 above the largest leaf or pendant edge id, as in
    ``DecompositionTree.replay``; the edges a-b take ids above those."""
    top = max((e[0] for row in rows for e in row.edges), default=0)
    spare = itertools.count(top + 2 * len(rows) + 1)
    out = []
    done = []  # the vertex sets of the finished subtrees, as far as they go
    for i, row in enumerate(rows):
        if row.kind == SERIES:
            w, a, b, ga, gb = row.step
            wa, wb = top + 2 * i + 1, top + 2 * i + 2
            triangle = ((wa, w, a, ga), (wb, w, b, gb), (next(spare), a, b, gb - ga))
            out += [Row(LEAF, tuple(sorted((w, a, b))), triangle),
                    Row.two_sum((a, b), zero_child=1)]
            vertices = {w}
        elif row.kind == PENDANT:
            (e,) = row.edges
            vertices = {e[1], e[2]}
            via = min(vertices & done[-1] if done else (), default=e[1])
            out += [Row(LEAF, tuple(sorted(vertices)), row.edges), Row.one_sum(via)]
        else:
            out.append(row)
            vertices = set(row.vertices)
        k = 0 if row.kind == LEAF else row.children
        done[len(done) - k:] = [vertices.union(*done[len(done) - k:])]
    return out


def reference_replay(tree):
    return _replay_node(nest(expand(tree.rows)))


def _replay_node(node):
    tree, kids = node
    if tree.kind == LEAF:
        return kids
    replays = [_replay_node(c) for c in kids]
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


def leaf_edges(rows):
    """The edges of the leaves and pendant rows."""
    return [e for row in rows for e in row.edges]


def names_two_orbits(tree) -> bool:
    """Whether some edge id names two orbits in different leaves or pendant rows."""
    ids: dict = {}
    return any(ids.setdefault(e[0], orbit_key(*e[1:])) != orbit_key(*e[1:])
               for e in leaf_edges(tree.rows))


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


def starts(rows):
    """The first row of each row's subtree, which ends at the row itself."""
    first, stack = [], []
    for i, row in enumerate(rows):
        start = i
        if row.kind != LEAF:
            start = stack[-row.children]
            del stack[-row.children:]
        stack.append(start)
        first.append(start)
    return first


def mutate_leaf(rng, row, rows):
    edges = list(row.edges)
    move = rng.randrange(5)
    if move == 0 and edges:  # relabel an edge
        k = rng.randrange(len(edges))
        i, t, h, z = edges[k]
        edges[k] = (i, t, h, z + rng.choice((-1, 1)))
    elif move == 1 and edges:  # give an edge an id used elsewhere in the tree
        k = rng.randrange(len(edges))
        _, t, h, z = edges[k]
        edges[k] = (rng.choice(leaf_edges(rows))[0], t, h, z)
    elif move == 2:  # switch a vertex
        shift = {rng.choice(row.vertices): rng.choice((-2, -1, 1, 2))}
        (switched,) = DecompositionTree((row,)).switched(shift).rows
        return switched
    elif move == 3 and edges:  # drop an edge
        edges.pop(rng.randrange(len(edges)))
    else:  # copy an edge of another leaf whose endpoints this leaf has
        other = [f for f in leaf_edges(rows) if {f[1], f[2]} <= set(row.vertices)]
        if other:
            edges.append(rng.choice(other))
    GainGraph(row.vertices, [GainEdge(*e) for e in edges])  # raises unless a simple graph
    return row._replace(edges=tuple(edges))


def mutate_series(rng, row, vertices):
    """Move one of a series step's vertices, or shift one of its gains."""
    step = list(row.step)
    k = rng.randrange(5)
    if k < 3:
        step[k] = rng.choice(vertices)
    else:
        step[k] += rng.choice((-1, 1))
    if len(set(step[:3])) < 3:
        raise RealdimError("a series step on fewer than three vertices")
    return row._replace(step=tuple(step))


def mutate_pendant(rng, row, rows, vertices):
    """Move one end of a pendant edge, shift its label, or give it an id used
    elsewhere in the tree."""
    (e,) = row.edges
    eid, tail, head, label = e
    move = rng.randrange(4)
    if move < 2:
        tail, head = (rng.choice(vertices), head) if move == 0 else (tail, rng.choice(vertices))
    elif move == 2:
        label += rng.choice((-1, 1))
    else:
        eid = rng.choice(leaf_edges(rows))[0]
    if tail == head and label == 0:
        raise RealdimError("a pendant selfloop with label 0")
    return row._replace(edges=((eid, tail, head, label),))


def mutate(rng, tree):
    """Mutate one row: a leaf's edges, a pendant edge, a series step, or a
    node with its children's subtrees."""
    rows = list(tree.rows)
    first = starts(rows)
    i = rng.randrange(len(rows))
    node = rows[i]
    if node.kind == LEAF:
        rows[i] = mutate_leaf(rng, node, rows)
        return DecompositionTree(tuple(rows))
    vertices = sorted({v for row in rows for v in row.vertices}
                      | {v for row in rows for e in row.edges for v in e[1:3]}
                      | {v for row in rows for v in row.step[:3]})
    if node.kind == SERIES and rng.random() < 0.5:
        rows[i] = mutate_series(rng, node, vertices)
        return DecompositionTree(tuple(rows))
    if node.kind == PENDANT and rng.random() < 0.5:
        rows[i] = mutate_pendant(rng, node, rows, vertices)
        return DecompositionTree(tuple(rows))
    ends = [i]  # each child's subtree is rows[first[end - 1]:end]
    for _ in range(node.children):
        ends.append(first[ends[-1] - 1])
    parts = [rows[a:b] for b, a in zip(ends, ends[1:])][::-1]
    move = rng.randrange(5)
    if move == 0:  # reorder the children
        parts = parts[::-1]
    elif move == 1 and node.kind == BALANCED_TWO_SUM:
        node = node._replace(zero_child=1 - node.zero_child)
    elif move == 2 and node.kind in (ONE_SUM, BALANCED_TWO_SUM):  # another one- or two-sum
        if rng.random() < 0.5:
            node = Row.one_sum(rng.choice(vertices))
        else:
            pair = rng.sample(vertices, 2) if len(vertices) > 1 else (1, 2)
            node = Row.two_sum(pair, rng.randrange(2))
    elif move == 3:  # a disjoint union of the children
        node = Row(DISJOINT_UNION, children=node.children)
    else:  # graft in a copy of another subtree
        j = rng.randrange(len(rows))
        parts[rng.randrange(len(parts))] = rows[first[j]:j + 1]
    rows[ends[-1]:i + 1] = [row for part in parts for row in part] + [node]
    return DecompositionTree(tuple(rows))


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
    left = two_sum(leaf((1, 2), (3, 1, 2, 0)), leaf((1, 2), (5, 1, 2, 0)), (1, 2), zero_child=0)
    tree = one_sum(left, leaf((2, 3), (5, 2, 3, 0)), 2)
    assert outcome(reference_replay, tree) == ((1, 2, 3), [(3, (1, 2, 0)), (5, (2, 3, 0))])
    with pytest.raises(CertificateError, match="row 3: edge 5 names two orbits"):
        tree.replay()


def test_a_pendant_selfloop_unbalances_its_subtree():
    looped = DecompositionTree(leaf((1, 2), (1, 1, 2, 0)).rows
                               + (Row.pendant(GainEdge(2, 1, 1, 1)),))
    balanced = leaf((1, 2), (1, 1, 2, 0))
    assert assert_replays_agree(two_sum(looped, balanced, (1, 2), zero_child=1))
    assert not assert_replays_agree(two_sum(looped, balanced, (1, 2), zero_child=0))
    with pytest.raises(CertificateError, match="row 3: the designated two-sum summand"):
        two_sum(looped, balanced, (1, 2), zero_child=0).replay()


def test_a_leaf_on_four_vertices_is_never_a_balanced_summand():
    # A leaf on four or more vertices is in no family, so the replay does
    # not ask whether it is balanced; the reference does, and accepts.
    k4 = leaf((1, 2, 3, 4), *((i, a, b, 0) for i, (a, b)
                              in enumerate(itertools.combinations((1, 2, 3, 4), 2), start=1)))
    tree = two_sum(k4, leaf((1, 2), (1, 1, 2, 0), (7, 1, 2, 1)), (1, 2), zero_child=0)
    assert outcome(reference_replay, tree) is not None
    with pytest.raises(CertificateError, match="row 2: the designated two-sum summand"):
        tree.replay()
