import random
import time
from fractions import Fraction

import numpy as np
import pytest

from realdim.errors import RealdimError
from realdim.exactlinalg import rational_rank
from realdim.frameworks import (
    QuotientFramework,
    StressVector,
    _conic_matrix,
    affine_dimension,
    conic_condition,
    construct_psd_stress,
    flatten,
    incidence_matrix,
    is_equilibrium_stress,
    null_space,
    numeric_rank,
    restrict_to_affine_span,
    rigidity_matrix,
    signature,
    span_check,
    stress_kernel,
    stress_matrix,
    verify_super_stable,
)
from realdim.graphs import GainGraph, multigraph, pair_profile
from realdim.randgen import random_framework, random_simple_gain_graph
from realdim.realizability import realizable_dimension_complete_case
from test_acceptance import SEED, reselect_representative
from test_graphs import k2_zero, k3_bullets, k3_zero, ladder_graph

LADDER_L = np.array(
    [
        [1, 1, -2, 1],
        [1, 1, -2, 1],
        [-2, -2, 4, -2],
        [1, 1, -2, 1],
    ]
)


def ladder_framework():
    g = ladder_graph()
    positions = {1: (4.0, 0.0), 2: (4.0, 2.0), 3: (6.0, 1.0)}
    return QuotientFramework(g, positions, (4.0, 0.0))


def ladder_stress():
    return StressVector({1: -1, 2: 1, 3: 1, 4: 1, 5: 1}, -1)


# -- worked example -----------------------------------------------------------


def test_ladder_affine_dimension():
    assert affine_dimension(ladder_framework()) == 2


def test_ladder_stress_is_equilibrium():
    fw = ladder_framework()
    assert is_equilibrium_stress(fw, ladder_stress())


def test_ladder_stress_matrix_exact():
    L = stress_matrix(ladder_graph(), ladder_stress())
    assert L.dtype == np.int64
    assert np.array_equal(L, LADDER_L)


@pytest.mark.parametrize("scale", [10**19, 10**30])
def test_stress_matrix_beyond_int64_is_exact(scale):
    stress = ladder_stress()
    big = StressVector({e: scale * w for e, w in stress.weights.items()}, scale * stress.lattice)
    L = stress_matrix(ladder_graph(), big)
    assert L.dtype == object
    assert L.tolist() == [[scale * x for x in row] for row in LADDER_L.tolist()]
    assert all(type(x) is int for row in L.tolist() for x in row)
    assert signature(L).as_tuple() == (1, 0, 3)


def test_stress_matrix_int64_boundary():
    g = GainGraph((1,), ())
    top = 2**63 - 1
    assert stress_matrix(g, StressVector({}, top)).dtype == np.int64
    L = stress_matrix(g, StressVector({}, top + 1))
    assert L.dtype == object and L.tolist() == [[0, 0], [0, top + 1]]
    assert signature(stress_matrix(g, StressVector({}, -(10**30)))).as_tuple() == (0, 1, 1)
    loop = GainGraph.of(1, [(1, 1, 2)])
    L = stress_matrix(loop, StressVector.from_sequence(loop, np.array([2**62, 0])))
    assert L.dtype == object and L.tolist() == [[0, 0], [0, 2**64]]


def test_ladder_signature():
    sig = signature(stress_matrix(ladder_graph(), ladder_stress()))
    assert sig.as_tuple() == (1, 0, 3)
    assert sig.is_nonnegative() and sig.is_full(2)


def test_ladder_conic_holds():
    assert conic_condition(ladder_framework()).holds


def test_ladder_super_stable():
    report = verify_super_stable(ladder_framework(), ladder_stress())
    assert report.verified
    assert report.note == "certifies periodic universal rigidity"


def test_ladder_zero_stress_fails_super_stability():
    zero = StressVector({i: 0 for i in range(1, 6)}, 0)
    report = verify_super_stable(ladder_framework(), zero)
    assert not report.verified
    assert report.signature.n_zero == 4


def test_ladder_kernel_contains_paper_stress():
    fw = ladder_framework()
    kernel = stress_kernel(fw)
    omega = ladder_stress().as_array(fw.graph)
    # omega must lie in the span of the kernel basis
    coeffs = kernel @ omega
    assert np.allclose(kernel.T @ coeffs, omega, atol=1e-9)


def test_ladder_representative_change_preserves_kernel_membership():
    fw = ladder_framework()
    omega = ladder_stress()
    for v, gamma in [(1, 1), (2, -2), (3, 3)]:
        moved = reselect_representative(fw, v, gamma)
        assert is_equilibrium_stress(moved, omega)


# -- rigidity matrix ------------------------------------------------------------


def test_rigidity_matrix_k2():
    fw = QuotientFramework(k2_zero(), {1: (0.0, 0.0), 2: (1.0, 0.0)}, (3.0, 0.0))
    R = rigidity_matrix(fw)
    assert R.shape == (2, 6)
    assert np.allclose(R[0], [-1, 0, 1, 0, 0, 0])
    assert np.allclose(R[1], [0, 0, 0, 0, 3, 0])


def test_rigidity_matrix_invariant_under_inversion():
    fw = ladder_framework()
    R = rigidity_matrix(fw)
    for e in fw.graph.edges:
        fw2 = QuotientFramework(fw.graph.invert_edge(e.id), fw.positions, fw.lattice)
        assert np.allclose(rigidity_matrix(fw2), R)


def test_selfloop_row_hits_lattice_block_only():
    g = GainGraph.of(1, [(1, 1, 2)])
    fw = QuotientFramework(g, {1: (0.5, 0.25)}, (1.0, 1.0))
    R = rigidity_matrix(fw)
    assert R.shape == (2, 4)
    assert np.allclose(R[0, :2], 0)
    assert np.allclose(R[0, 2:], 2 * fw.edge_vectors()[0])


def test_k2_framework_trivial_kernel():
    fw = QuotientFramework(k2_zero(), {1: (0.0, 0.0), 2: (1.0, 0.0)}, (3.0, 0.0))
    assert stress_kernel(fw).shape[0] == 0


def test_kernel_membership_iff_bordered_annihilates():
    # w^T R = 0 exactly when (P | l) L is zero.
    rng = random.Random(3)
    for _ in range(25):
        g = random_simple_gain_graph(rng, max_vertices=4, max_edges=7, min_vertices=2)
        fw = random_framework(rng, g, rng.randint(1, 3))
        for row in stress_kernel(fw):
            sv = StressVector.from_sequence(g, [float(x) for x in row])
            L = stress_matrix(g, sv)
            top = np.column_stack([fw.positions.T, fw.lattice])
            assert np.allclose(top @ L, 0, atol=1e-8)
            assert is_equilibrium_stress(fw, sv)


# -- stress matrices and signatures -------------------------------------------------


def test_stress_matrix_zero():
    g = ladder_graph()
    zero = StressVector({i: 0 for i in range(1, 6)}, 0)
    assert np.array_equal(stress_matrix(g, zero), np.zeros((4, 4), dtype=np.int64))


def test_stress_matrix_single_edge():
    g = GainGraph.of(2, [(1, 2, 0)])
    sv = StressVector({1: 1}, 0)
    expected = np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 0]])
    assert np.array_equal(stress_matrix(g, sv), expected)


def test_stress_matrix_matches_incidence_product():
    rng = random.Random(11)
    for _ in range(20):
        g = random_simple_gain_graph(rng, max_vertices=4, max_edges=6, min_vertices=1)
        w = [rng.uniform(-2, 2) for _ in range(g.m + 1)]
        sv = StressVector.from_sequence(g, w)
        inc = incidence_matrix(g)
        expected = inc.T @ np.diag(w) @ inc
        assert np.allclose(stress_matrix(g, sv), expected)


def test_signature_diagonal_cases():
    assert signature(np.zeros((4, 4), dtype=np.int64)).as_tuple() == (0, 0, 4)
    assert signature(np.diag([2, -1, 0, 0]).astype(np.int64)).as_tuple() == (1, 1, 2)
    assert signature(np.diag([2.0, -1.0, 0.0, 0.0])).as_tuple() == (1, 1, 2)


def test_signature_exact_fraction_path():
    M = np.array(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)]],
        dtype=object,
    )
    assert signature(M).as_tuple() == (2, 0, 0)


def test_signature_rejects_nonsymmetric():
    with pytest.raises(RealdimError):
        signature(np.array([[0, 1], [2, 0]]))


def test_stress_matrix_e_l_contribution():
    g = GainGraph((1,), ())
    sv = StressVector({}, 5)
    L = stress_matrix(g, sv)
    assert np.array_equal(L, np.array([[0, 0], [0, 5]]))


def test_signature_invariant_under_switching():
    rng = random.Random(23)
    for _ in range(30):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8, min_vertices=1)
        w = [rng.randint(-3, 3) for _ in range(g.m + 1)]
        sv = StressVector.from_sequence(g, w)
        base = signature(stress_matrix(g, sv)).as_tuple()
        for _ in range(3):
            g2 = g.switch(rng.choice(g.vertices), rng.randint(-3, 3))
            assert signature(stress_matrix(g2, sv)).as_tuple() == base
            g2 = g2.invert_edge(rng.choice([e.id for e in g2.edges])) if g2.m else g2
            assert signature(stress_matrix(g2, sv)).as_tuple() == base


# -- conic condition and flattening ---------------------------------------------------


def test_conic_fails_for_k3_in_r3():
    rng = random.Random(5)
    g = k3_zero()
    fw = random_framework(rng, g, 3)
    result = conic_condition(fw)
    assert not result.holds
    S = result.witness
    vs = fw.edge_vectors()
    assert np.allclose((vs @ S * vs).sum(axis=1), 0, atol=1e-8)


def test_conic_dimension_one_always_holds():
    g = GainGraph.of(2, [(1, 2, 0)])
    fw = QuotientFramework(g, {1: [0.0], 2: [1.0]}, [2.0])
    assert conic_condition(fw).holds


def test_two_line_framework_fails_conic():
    # Edge direction (1,1) and lattice (1,-1): two lines carry everything,
    # so S = a1 a2^T + a2 a1^T built from their normals is a witness.
    g = GainGraph.of(2, [(1, 2, 0)])
    fw = QuotientFramework(g, {1: (0.0, 0.0), 2: (1.0, 1.0)}, (1.0, -1.0))
    res = conic_condition(fw)
    assert not res.holds
    a1 = np.array([1.0, -1.0])
    a2 = np.array([1.0, 1.0])
    S = np.outer(a1, a2) + np.outer(a2, a1)
    vs = fw.edge_vectors()
    assert np.allclose((vs @ S * vs).sum(axis=1), 0, atol=1e-12)


def test_flatten_k3_to_plane():
    rng = random.Random(9)
    for _ in range(10):
        fw = random_framework(rng, k3_zero(), 3)
        if affine_dimension(fw) != 3:
            continue
        res = conic_condition(fw)
        assert not res.holds
        flat = flatten(fw, res.witness)
        assert np.allclose(
            flat.squared_lengths(), fw.squared_lengths(), rtol=1e-9, atol=1e-9
        )
        assert affine_dimension(flat) < 3


def test_flatten_rejects_bad_witness():
    fw = ladder_framework()
    with pytest.raises(RealdimError):
        flatten(fw, np.eye(2))


def test_flatten_iteration_reaches_target():
    rng = random.Random(31)
    g = k3_zero()
    fw = random_framework(rng, g, 3)
    steps = 0
    while affine_dimension(fw) > 2:
        fw = restrict_to_affine_span(fw)
        res = conic_condition(fw)
        assert not res.holds
        fw = flatten(fw, res.witness)
        steps += 1
        assert steps <= 3
    assert affine_dimension(fw) == 2


def test_restrict_to_affine_span_preserves_lengths():
    rng = random.Random(41)
    g = ladder_graph()
    fw = random_framework(rng, g, 5)
    reduced = restrict_to_affine_span(fw)
    assert reduced.dim == affine_dimension(fw)
    assert np.allclose(reduced.squared_lengths(), fw.squared_lengths(), atol=1e-8)


# -- constructive PSD stress ------------------------------------------------------


def test_construct_psd_stress_ladder():
    fw = ladder_framework()
    sv = construct_psd_stress(fw)
    assert sv is not None
    # unique equilibrium up to scale; matches the known stress after scaling
    arr = sv.as_array(fw.graph)
    known = ladder_stress().as_array(fw.graph)
    scale = arr @ known / (known @ known)
    assert abs(scale) > 1e-12
    assert np.allclose(arr, scale * known, atol=1e-8)
    sig = signature(stress_matrix(fw.graph, StressVector.from_sequence(fw.graph, arr / scale)))
    assert sig.as_tuple() == (1, 0, 3)


def test_construct_psd_stress_not_applicable_for_k3_zero():
    rng = random.Random(13)
    fw = random_framework(rng, k3_zero(), 2)
    assert construct_psd_stress(fw) is None


def test_construct_psd_stress_k2_bullet_full_ambient():
    g = GainGraph.of(2, [(1, 2, 0), (1, 2, 1)])
    fw = QuotientFramework(g, {1: (0.0, 0.0), 2: (1.0, 0.5)}, (0.5, -1.0))
    assert affine_dimension(fw) == 2
    sv = construct_psd_stress(fw)
    assert sv is not None
    L = stress_matrix(g, sv)
    assert np.allclose(L, 0, atol=1e-8)  # kernel of the bordered matrix is trivial
    report = verify_super_stable(fw, sv)
    assert report.verified


def test_k3_zero_no_kernel_stress_is_super_stable():
    # The balanced triangle in the plane: the conic condition holds
    # generically, but sweeping the whole equilibrium space never yields a
    # nonnegative full signature (the indicator products span too little).
    rng = random.Random(37)
    for _ in range(10):
        fw = random_framework(rng, k3_zero(), 2)
        if affine_dimension(fw) != 2:
            continue
        kernel = stress_kernel(fw)
        for row in kernel:
            sv = StressVector.from_sequence(fw.graph, [float(x) for x in row])
            report = verify_super_stable(fw, sv)
            assert not report.verified
            assert report.signature.n_zero > 3 or not report.signature_ok


def test_construct_psd_stress_certifies_super_stability():
    rng = random.Random(17)
    for _ in range(10):
        fw = random_framework(rng, k3_bullets(), 2)
        if affine_dimension(fw) != 2:
            continue
        sv = construct_psd_stress(fw)
        assert sv is not None
        report = verify_super_stable(fw, sv)
        assert report.verified, report


# -- span checks ---------------------------------------------------------------------


def test_span_check_k3_bullets():
    sc = span_check(k3_bullets())
    assert sc.independent_combinatorial and sc.spanning_combinatorial
    assert sc.size == 6 and sc.space_dim == 6 and sc.rank == 6
    assert sc.agrees()


def test_span_check_k3_zero():
    sc = span_check(k3_zero())
    assert sc.independent_combinatorial and not sc.spanning_combinatorial
    assert sc.rank == 4 and sc.space_dim == 6
    assert sc.agrees()


def test_span_check_triple_parallel_dependent():
    g = GainGraph.of(2, [(1, 2, 0), (1, 2, 1), (1, 2, 2)])
    sc = span_check(g)
    assert not sc.independent_combinatorial
    assert sc.rank < sc.size
    assert sc.agrees()


def test_span_check_selfloop_dependent():
    g = GainGraph.of(1, [(1, 1, 2)])
    sc = span_check(g)
    assert not sc.independent_combinatorial and not sc.independent_rank
    assert sc.agrees()


def test_span_check_random_agreement():
    rng = random.Random(71)
    for _ in range(80):
        g = random_simple_gain_graph(rng, max_vertices=6, max_edges=10, min_vertices=1)
        assert span_check(g).agrees(), g


def test_span_check_is_linear_on_disjoint_doubled_pairs():
    # One pass over the multigraph: counting the edges of each doubled pair's
    # component by scanning every edge took 1.0-1.9 s on 4,000 pairs.
    g = GainGraph.of(8000, [t for a in range(1, 8000, 2) for t in ((a, a + 1, 0), (a, a + 1, 1))])
    start = time.perf_counter()
    sc = span_check(g)
    assert time.perf_counter() - start < 0.5
    assert sc.independent_combinatorial and not sc.spanning_combinatorial and sc.agrees()
    # A complete type of moderate size whose doubled pairs are a perfect matching.
    n = 80
    g = GainGraph.of(n, [(a, b, 0) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
                     + [(a, a + 1, 1) for a in range(1, n, 2)])
    start = time.perf_counter()
    sc = span_check(g)
    rd = realizable_dimension_complete_case(g)
    assert time.perf_counter() - start < 0.5
    assert sc.independent_combinatorial and not sc.spanning_combinatorial and sc.agrees()
    assert rd == n - 1


def dense_span_rank(g):
    """Rank of the indicator outer products written densely, upper triangle row-major."""
    upper = np.triu_indices(g.n + 1)
    return rational_rank([np.outer(row, row)[upper].tolist() for row in incidence_matrix(g)])


def test_span_check_sparse_rank_equals_dense_rank():
    # The corpora of test_span_check_random_agreement and acceptance criterion 6.
    graphs = [k3_bullets(), k3_zero(), k2_zero(), ladder_graph(),
              GainGraph.of(2, [(1, 2, 0), (1, 2, 1), (1, 2, 2)]), GainGraph.of(1, [(1, 1, 2)])]
    rng = random.Random(71)
    graphs += [random_simple_gain_graph(rng, max_vertices=6, max_edges=10, min_vertices=1)
               for _ in range(80)]
    rng = random.Random(SEED + 6)
    graphs += [random_simple_gain_graph(rng, max_vertices=6, max_edges=12, min_vertices=1)
               for _ in range(200)]
    for g in graphs:
        assert span_check(g).rank == dense_span_rank(g), g


# -- array forms against per-edge loops -------------------------------------------
# The numerics build per-edge rows from edge-index arrays.  These loops build
# them one edge at a time, with the same float operations in the same order,
# so the results must agree to the bit.


def same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def loop_edge_vectors(fw):
    rows = [fw.position(e.head) + e.label * fw.lattice - fw.position(e.tail)
            for e in fw.graph.edges]
    return np.array(rows + [fw.lattice])


def loop_rigidity_matrix(fw):
    g, d, n = fw.graph, fw.dim, fw.n
    index = {v: k for k, v in enumerate(g.vertices)}
    R = np.zeros((g.m + 1, d * (n + 1)))
    for row, (e, v) in enumerate(zip(g.edges, loop_edge_vectors(fw))):
        i, j = index[e.tail], index[e.head]
        R[row, i * d : (i + 1) * d] -= v
        R[row, j * d : (j + 1) * d] += v
        R[row, n * d :] += e.label * v
    R[g.m, n * d :] = fw.lattice
    return R


def loop_incidence_matrix(g):
    index = {v: k for k, v in enumerate(g.vertices)}
    rows = []
    for e in g.edges:
        vec = np.zeros(g.n + 1)
        vec[index[e.head]] += 1
        vec[index[e.tail]] -= 1
        vec[g.n] = e.label
        rows.append(vec)
    rows.append(np.eye(g.n + 1)[g.n])
    return np.array(rows)


def loop_conic_matrix(fw):
    pairs = [(a, b) for a in range(fw.dim) for b in range(a, fw.dim)]
    with np.errstate(over="ignore"):
        return np.array([[v[a] * v[b] if a == b else 2 * v[a] * v[b] for a, b in pairs]
                         for v in loop_edge_vectors(fw)])


def loop_stress_matrix(g, values, zero):
    """Entry by entry, edge after edge, the lattice weight last."""
    n = g.n
    index = {v: k for k, v in enumerate(g.vertices)}
    L = [[zero] * (n + 1) for _ in range(n + 1)]
    for e, w in zip(g.edges, values):
        if w == 0:
            continue
        coords = [(n, e.label)]
        if not e.is_loop:
            coords = [(index[e.tail], -1), (index[e.head], 1)] + coords
        for a, xa in coords:
            for b, xb in coords:
                L[a][b] += w * xa * xb
    L[n][n] += values[-1]
    return L


def complete_type_graph(rng, n):
    """Complete simplified graph plus a doubled spanning path: PSD stresses exist."""
    triples = [(a, b, 0) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    return GainGraph.of(n, triples + [(i, i + 1, rng.choice((-2, -1, 1, 2)))
                                      for i in range(1, n)])


def random_weight(rng):
    kind = rng.choice(("float", "float", "zero", "int", "fraction", "big"))
    return {"float": lambda: rng.uniform(-3, 3) * 10.0 ** rng.randint(-3, 3),
            "zero": lambda: rng.choice((0, 0.0, -0.0)),
            "int": lambda: rng.randint(-9, 9),
            "fraction": lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 13)),
            "big": lambda: rng.choice((-1, 1)) * rng.randint(2**53, 2**70)}[kind]()


def array_form_corpus():
    """Seeded frameworks with selfloops, parallel pairs, labels past 2**53,
    dimensions 1 to 3 and edgeless graphs, each with weight lists: floats,
    mixed kinds (a float path with int, Fraction and big-int weights), exact
    ints, and the PSD stress where one is constructed."""
    rng = random.Random(SEED + 19)
    graphs = [GainGraph((1, 2, 3), ()), GainGraph((1,), ()), ladder_graph(), k3_bullets()]
    graphs += [complete_type_graph(rng, n) for n in range(2, 7)]
    for _ in range(150):
        span = rng.choice((2, 3, 2**60))
        graphs.append(random_simple_gain_graph(rng, max_vertices=6, max_edges=12,
                                               label_min=-span, label_max=span))
    for g in graphs:
        fw = random_framework(rng, g, rng.randint(1, 3), integer=rng.random() < 0.2)
        weights = [[rng.uniform(-3, 3) for _ in range(g.m + 1)],
                   [random_weight(rng) for _ in range(g.m + 1)],
                   [rng.randint(-5, 5) for _ in range(g.m + 1)]]
        psd = construct_psd_stress(fw)
        if psd is not None:
            weights.append(psd.as_list(g))
        yield fw, weights


def test_array_forms_equal_the_per_edge_loops():
    corpus = list(array_form_corpus())
    assert sum(len(w) == 4 for _, w in corpus) >= 5  # PSD stresses constructed
    assert any(any(e.is_loop for e in fw.graph.edges) for fw, _ in corpus)
    assert any(fw.graph.m == 0 for fw, _ in corpus)
    assert any(fw.dim == 1 for fw, _ in corpus)
    assert any(pair_profile(multigraph(fw.graph.vertices, fw.graph.edges))[1] > 1
               for fw, _ in corpus)
    for fw, weight_lists in corpus:
        g = fw.graph
        assert same_bits(fw.edge_vectors(), loop_edge_vectors(fw)), g
        assert same_bits(rigidity_matrix(fw), loop_rigidity_matrix(fw)), g
        assert same_bits(incidence_matrix(g), loop_incidence_matrix(g)), g
        assert same_bits(_conic_matrix(fw), loop_conic_matrix(fw)), g
        for values in weight_lists:
            got = stress_matrix(g, StressVector.from_sequence(g, values))
            if got.dtype == float:
                assert same_bits(got, np.array(loop_stress_matrix(g, values, 0.0))), g
            else:
                assert got.tolist() == loop_stress_matrix(g, values, 0), g


def test_null_space_of_tall_matrices_equals_the_full_svd_basis():
    rng = np.random.default_rng(SEED)
    matrices = [_conic_matrix(fw) for fw, _ in array_form_corpus()]
    for k in range(100):
        cols = int(rng.integers(1, 9))
        m = rng.standard_normal((int(rng.integers(cols, 60)), cols))
        if k % 3 == 0 and cols > 1:
            m[:, -1] = 2.0 * m[:, 0]
        matrices.append(m)
    assert sum(m.shape[0] > m.shape[1] for m in matrices) >= 100
    for m in matrices:
        _, s, vt = np.linalg.svd(m, full_matrices=True)
        rank = int((s > 1e-8 * max(1.0, s[0])).sum())
        assert same_bits(null_space(m), vt[rank:].T)


def test_conic_condition_returns_on_a_20000_vertex_cycle_in_r3():
    n = 20000
    g = GainGraph.of(n, [(i, i % n + 1, int(i == n)) for i in range(1, n + 1)])
    positions = np.random.default_rng(SEED).standard_normal((n, 3))
    assert conic_condition(QuotientFramework(g, positions, (1.0, 0.2, 0.1))).holds


# -- misc framework validation ----------------------------------------------------


def test_zero_lattice_rejected():
    with pytest.raises(RealdimError):
        QuotientFramework(k2_zero(), {1: (0.0, 0.0), 2: (1.0, 0.0)}, (0.0, 0.0))


def test_degenerate_positions_affine_dim_one():
    fw = QuotientFramework(
        k2_zero(), {1: (0.0, 0.0), 2: (0.0, 0.0)}, (1.0, 0.0)
    )
    assert affine_dimension(fw) == 1


def test_affine_dimension_generic_r3():
    rng = random.Random(1)
    fw = random_framework(rng, k3_zero(), 3)
    assert affine_dimension(fw) == 3


def test_numeric_rank_scale_aware():
    m = np.diag([1e9, 1e9, 1e-12])
    assert numeric_rank(m) == 2



@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_non_finite_matrices_are_refused_before_lapack(entry):
    m = np.ones((4, 4))
    m[1, 2] = m[2, 1] = entry
    for check in (numeric_rank, null_space, signature):
        with pytest.raises(RealdimError, match="too large for float arithmetic"):
            check(m)


def test_conic_condition_refuses_squares_beyond_the_float_range():
    fw = QuotientFramework(k2_zero(), {1: (0.0, 0.0), 2: (1e300, 0.0)}, (1.0, 0.0))
    with pytest.raises(RealdimError, match="too large for float arithmetic"):
        conic_condition(fw)
