"""Randomized property sweeps for the cross-module invariants."""

import random

import numpy as np

from realdim.frameworks import (
    StressVector,
    affine_dimension,
    conic_condition,
    flatten,
    is_equilibrium_stress,
    rigidity_matrix,
    signature,
    stress_kernel,
    stress_matrix,
)
from realdim.graphs import GainEdge, GainGraph
from realdim.randgen import (
    random_framework,
    random_isomorphic_copy,
    random_simple_gain_graph,
    random_switch_sequence,
)
from realdim.realizability import is_2_realizable
from test_acceptance import random_minor_operation, reselect_representative
from test_realizability import balanced_strip, labelled_strip, necklace


def walk_gain(g, sequence):
    total = 0
    for k in range(1, len(sequence), 2):
        u, e, w = sequence[k - 1], sequence[k], sequence[k + 1]
        edge = g.edge(e.id)
        if edge.is_loop:
            total += edge.label
        else:
            total += edge.gain_from(u)
    return total


def test_walk_gain_invariant_under_switch_and_invert():
    rng = random.Random(2)
    for _ in range(40):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        res = g.balance()
        if res.balanced or any(g.edge(e.id).is_loop for e in res.witness.sequence[1::2]):
            continue  # loop steps are direction-ambiguous
        seq = res.witness.sequence
        base = walk_gain(g, seq)
        h = random_switch_sequence(rng, g, 3)
        assert walk_gain(h, seq) == base
        for e in list(h.edges):
            if rng.random() < 0.4:
                h = h.invert_edge(e.id)
        assert walk_gain(h, seq) == base


def test_canonical_form_invariance_random_corpus():
    rng = random.Random(4)
    for _ in range(60):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        h = random_isomorphic_copy(rng, g)
        assert g.canonical_form() == h.canonical_form()


def test_balance_invariance_random_corpus():
    rng = random.Random(6)
    for _ in range(60):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        h = random_isomorphic_copy(rng, g)
        assert g.is_balanced() == h.is_balanced()


def test_contract_retention_choices_isomorphic():
    # Contracting may drop any one of a set of coinciding parallel edges;
    # all retention choices must give isomorphic graphs.
    rng = random.Random(8)
    for _ in range(40):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        candidates = [e for e in g.edges if not e.is_loop]
        if not candidates:
            continue
        e = rng.choice(candidates)
        ours = g.contract_edge(e.id)
        base = ours.canonical_form()
        # redo the contraction keeping the largest id per duplicate class
        ge = g if e.label == 0 else g.switch(e.head, e.label)
        e2 = ge.edge(e.id)
        survivor = min(e2.tail, e2.head)
        gone = e2.head if survivor == e2.tail else e2.tail
        merged = []
        for f in ge.edges:
            if f.id == e.id:
                continue
            t = survivor if f.tail == gone else f.tail
            h = survivor if f.head == gone else f.head
            if t == h and f.label == 0:
                continue
            merged.append(GainEdge(f.id, t, h, f.label))
        kept = {}
        for f in merged:
            if f.is_loop:
                key = ("loop", f.tail, abs(f.label))
            else:
                a, b = min(f.tail, f.head), max(f.tail, f.head)
                key = ("pair", a, b, f.gain_from(a))
            if key not in kept or f.id > kept[key].id:
                kept[key] = f
        alt = GainGraph([v for v in g.vertices if v != gone], kept.values())
        assert alt.canonical_form() == base


# -- rigidity equations -----------------------------------------------------------


def eq1_residual(fw, weights, v):
    r = np.zeros(fw.dim)
    for e, vec in zip(fw.graph.edges, fw.edge_vectors()):
        if e.is_loop:
            continue
        if e.tail == v:
            r -= weights[e.id] * vec
        elif e.head == v:
            r += weights[e.id] * vec
    return r


def eq2_residual(fw, weights, lattice_weight):
    r = lattice_weight * fw.lattice.astype(float)
    for e, vec in zip(fw.graph.edges, fw.edge_vectors()):
        r = r + weights[e.id] * e.label * vec
    return r


def random_weights(rng, g):
    return {e.id: rng.uniform(-2, 2) for e in g.edges}, rng.uniform(-2, 2)


def test_rigidity_matrix_encodes_equilibrium_equations():
    rng = random.Random(10)
    for _ in range(25):
        g = random_simple_gain_graph(rng, max_vertices=4, max_edges=7, min_vertices=1)
        fw = random_framework(rng, g, rng.randint(1, 3))
        weights, lat_w = random_weights(rng, g)
        omega = np.array([weights[e.id] for e in g.edges] + [lat_w])
        resid = omega @ rigidity_matrix(fw)
        d = fw.dim
        for k, v in enumerate(g.vertices):
            assert np.allclose(resid[k * d : (k + 1) * d], eq1_residual(fw, weights, v))
        assert np.allclose(resid[g.n * d :], eq2_residual(fw, weights, lat_w))


def test_eq2_shifts_by_eq1_under_representative_change():
    rng = random.Random(12)
    for _ in range(25):
        g = random_simple_gain_graph(rng, max_vertices=4, max_edges=7, min_vertices=1)
        fw = random_framework(rng, g, 2)
        weights, lat_w = random_weights(rng, g)
        v = rng.choice(g.vertices)
        gamma = rng.randint(-3, 3)
        moved = reselect_representative(fw, v, gamma)
        before = eq2_residual(fw, weights, lat_w)
        after = eq2_residual(moved, weights, lat_w)
        # with out-edges gaining +gamma under switching, the residual moves
        # by -gamma times the vertex equilibrium residual
        assert np.allclose(after, before - gamma * eq1_residual(fw, weights, v))


def test_kernel_membership_survives_representative_changes():
    rng = random.Random(14)
    for _ in range(20):
        g = random_simple_gain_graph(rng, max_vertices=4, max_edges=7, min_vertices=2)
        fw = random_framework(rng, g, rng.randint(1, 3))
        kernel = stress_kernel(fw)
        if kernel.shape[0] == 0:
            continue
        row = kernel[0]
        sv = StressVector.from_sequence(g, [float(x) for x in row])
        moved = fw
        for _ in range(3):
            moved = reselect_representative(
                moved, rng.choice(g.vertices), rng.randint(-2, 2)
            )
        assert is_equilibrium_stress(moved, sv)
        # and a definitely-non-kernel vector does not sneak in
        bad = np.zeros(g.m + 1)
        bad[-1] = 1.0
        bad_sv = StressVector.from_sequence(g, list(bad))
        if not is_equilibrium_stress(fw, bad_sv):
            assert not is_equilibrium_stress(moved, bad_sv)


def test_stress_matrix_kernel_contains_positions_row():
    # For an equilibrium stress, L annihilates (1..1, 0) and the rows of
    # the bordered position matrix, so the zero eigenvalue count is at
    # least dim + 1.
    rng = random.Random(16)
    for _ in range(25):
        g = random_simple_gain_graph(rng, max_vertices=4, max_edges=7, min_vertices=2)
        fw = random_framework(rng, g, rng.randint(1, 3))
        kernel = stress_kernel(fw)
        ones = np.append(np.ones(g.n), 0.0)
        for row in kernel:
            sv = StressVector.from_sequence(g, [float(x) for x in row])
            L = stress_matrix(g, sv)
            assert np.allclose(L @ ones, 0, atol=1e-8)
            top = np.column_stack([fw.positions.T, fw.lattice])
            assert np.allclose(top @ L, 0, atol=1e-8)
            if np.linalg.norm(row) > 1e-9:
                sig = signature(L)
                assert sig.n_zero >= affine_dimension(fw) + 1
                if affine_dimension(fw) == fw.dim:
                    assert sig.n_zero >= fw.dim + 1


def test_equilibrium_iff_bordered_annihilation():
    rng = random.Random(18)
    for _ in range(30):
        g = random_simple_gain_graph(rng, max_vertices=4, max_edges=6, min_vertices=2)
        fw = random_framework(rng, g, 2)
        weights, lat_w = random_weights(rng, g)
        sv = StressVector({k: v for k, v in weights.items()}, lat_w)
        L = stress_matrix(g, sv)
        top = np.column_stack([fw.positions.T, fw.lattice])
        lhs = is_equilibrium_stress(fw, sv)
        rhs = bool(np.abs(top @ L).max(initial=0.0) <= 1e-7 * max(1.0, np.abs(L).max(initial=0.0)))
        assert lhs == rhs


def test_flatten_random_sweep():
    rng = random.Random(22)
    done = 0
    while done < 15:
        g = random_simple_gain_graph(rng, max_vertices=4, max_edges=6, min_vertices=2)
        n = g.n
        fw = random_framework(rng, g, n + 1)
        res = conic_condition(fw)
        if res.holds:
            # ambient exceeds what the edge count can pin: should not happen
            # once dim(sym space) > extended edge count
            assert (n + 1) * (n + 2) // 2 <= g.m + 1
            continue
        before = affine_dimension(fw)
        flat = flatten(fw, res.witness)
        assert np.allclose(flat.squared_lengths(), fw.squared_lengths(), rtol=1e-8, atol=1e-8)
        if before == n + 1:
            assert affine_dimension(flat) < before
        done += 1


# -- minor closure of the plane decider at scale ---------------------------------
# A graph with a forbidden minor keeps it in every graph containing it, and
# every minor of a 2-realizable graph is 2-realizable.


def with_new_edge(rng, g):
    """g plus one edge of an orbit g does not have, maybe a selfloop."""
    keys = {e.orbit_key() for e in g.edges}
    while True:
        e = GainEdge(g.fresh_edge_id(), rng.choice(g.vertices), rng.choice(g.vertices),
                     rng.randint(-3, 3))
        if not (e.is_loop and e.label == 0) and e.orbit_key() not in keys:
            return GainGraph(g.vertices, g.edges + (e,))


def with_pendant_vertex(rng, g):
    v = max(g.vertices) + 1
    e = GainEdge(g.fresh_edge_id(), rng.choice(g.vertices), v, rng.randint(-3, 3))
    return GainGraph(g.vertices + (v,), g.edges + (e,))


def test_d2_no_survives_an_added_edge_or_pendant_vertex_at_scale():
    rng = random.Random(61)
    for _ in range(8):
        g = labelled_strip(rng.randint(300, 1000), rng)
        assert not is_2_realizable(g).answer
        for grow in (with_new_edge, with_pendant_vertex):
            h = grow(rng, g)
            v = is_2_realizable(h)
            assert not v.answer
            assert v.verify(h)


def test_d2_yes_survives_a_random_minor_operation_at_scale():
    rng = random.Random(67)
    for g in (balanced_strip(1000, random.Random(71)), necklace(1000)):
        assert is_2_realizable(g).answer
        for _ in range(6):
            h = random_minor_operation(rng, g)
            v = is_2_realizable(h)
            assert v.answer
            assert v.verify(h)
