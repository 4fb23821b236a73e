"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here: exact integer comparisons where stated, a
relative eigenvalue/rank tolerance of 1e-8, and 1e-9 relative error on
squared lengths under flattening.
"""

import functools
import itertools
import random
import time

import numpy as np

from realdim.cli import main as cli_main
from realdim.frameworks import (
    QuotientFramework,
    StressVector,
    affine_dimension,
    conic_condition,
    flatten,
    is_equilibrium_stress,
    restrict_to_affine_span,
    signature,
    span_check,
    stress_kernel,
    stress_matrix,
    verify_super_stable,
)
from realdim.graphs import GainEdge, GainGraph, find_cycle, multigraph
from realdim.minors import contains_forbidden
from realdim.randgen import (
    random_framework,
    random_simple_gain_graph,
    random_switch_sequence,
)
from realdim.realizability import (
    is_1_realizable,
    is_2_realizable,
    realizable_dimension_bounds,
    realizable_dimension_complete_case,
)

TOL = 1e-8
SEED = 20260811


def random_minor_operation(rng, g):
    """Apply one random deletion or contraction; None if nothing applies."""
    ops = []
    for e in g.edges:
        ops.append(("delete_edge", e.id, None))
        if not e.is_loop:
            ops.append(("contract_edge", e.id, None))
    if g.n > 1:
        ops += [("delete_vertex", v, None) for v in g.vertices]
    return g.minor([rng.choice(ops)]) if ops else None


def reselect_representative(fw, v, gamma):
    """Move one orbit representative of a framework by gamma shifts.

    Switches the quotient graph at v by gamma and translates v's position
    by gamma times the lattice vector; the periodic framework is unchanged.
    """
    pos = fw.positions.copy()
    pos[fw.graph.vertices.index(v)] += gamma * fw.lattice
    return QuotientFramework(fw.graph.switch(v, gamma), pos, fw.lattice)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num}] FAIL: {desc}")
                raise
            print(f"\n[criterion {num}] PASS ({time.time() - start:.1f}s): {desc}")

        return wrapper

    return deco


def ladder_graph():
    return GainGraph.of(3, [(1, 2, 0), (3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1)])


def ladder_framework():
    return QuotientFramework(
        ladder_graph(), {1: (4.0, 0.0), 2: (4.0, 2.0), 3: (6.0, 1.0)}, (4.0, 0.0)
    )


def counterexample_a():
    return GainGraph(
        (1, 2, 3),
        [GainEdge(1, 1, 3, 0), GainEdge(2, 3, 2, 0), GainEdge(3, 3, 2, 1), GainEdge(4, 1, 2, 0)],
    )


def counterexample_b():
    return GainGraph(
        (1, 2, 4),
        [GainEdge(4, 1, 2, 0), GainEdge(5, 1, 4, 0), GainEdge(6, 4, 2, 1)],
    )


def counterexample_c():
    return GainGraph((1, 2, 3, 4), {*counterexample_a().edges, *counterexample_b().edges})


@functools.lru_cache(maxsize=None)
def corpus_500():
    rng = random.Random(SEED)
    return tuple(
        random_simple_gain_graph(rng, max_vertices=5, max_edges=9) for _ in range(500)
    )


def has_nonloop_cycle(g):
    if any(
        len(g.edges_between(a, b)) >= 2 for a, b in itertools.combinations(g.vertices, 2)
    ):
        return True
    return find_cycle(multigraph(g.vertices, g.edges)) is not None


@criterion(1, "worked example: exact stress matrix, signature (1,0,3), conic, super-stable")
def test_criterion_1_worked_example():
    start = time.time()
    fw = ladder_framework()
    stress = StressVector({1: -1, 2: 1, 3: 1, 4: 1, 5: 1}, -1)
    L = stress_matrix(fw.graph, stress)
    expected = np.array(
        [[1, 1, -2, 1], [1, 1, -2, 1], [-2, -2, 4, -2], [1, 1, -2, 1]]
    )
    assert L.dtype == np.int64 and np.array_equal(L, expected)
    assert is_equilibrium_stress(fw, stress, TOL)
    sig = signature(L, TOL)
    assert sig.as_tuple() == (1, 0, 3)
    assert conic_condition(fw, TOL).holds
    report = verify_super_stable(fw, stress, TOL)
    assert report.verified
    assert time.time() - start < 1.0


@criterion(2, "classification table (exact values and bounds)")
def test_criterion_2_classification_table():
    start = time.time()
    k2 = GainGraph.of(2, [(1, 2, 0)])
    assert realizable_dimension_bounds(k2).as_tuple() == (1, 1)

    loops = GainGraph.of(1, [(1, 1, 1), (1, 1, 2)])
    assert realizable_dimension_bounds(loops).as_tuple() == (1, 1)

    k3 = GainGraph.of(3, [(1, 2, 0), (1, 3, 0), (2, 3, 0)])
    assert realizable_dimension_bounds(k3).as_tuple() == (2, 2)

    for z in ((0, 1), (0, 2), (-2, 1), (3, -3)):
        k2b = GainGraph.of(2, [(1, 2, z[0]), (1, 2, z[1])])
        assert realizable_dimension_complete_case(k2b) == 2
        assert realizable_dimension_bounds(k2b).as_tuple() == (2, 2)

    k4 = GainGraph.of(4, [(a, b, 0) for a, b in itertools.combinations(range(1, 5), 2)])
    assert not is_2_realizable(k4).answer
    assert realizable_dimension_bounds(k4).as_tuple() == (3, 4)

    for za, zb in (((0, 1), (0, 1)), ((0, 2), (-1, 1))):
        k3bb = GainGraph.of(
            3, [(1, 2, 0), (3, 1, za[0]), (3, 1, za[1]), (3, 2, zb[0]), (3, 2, zb[1])]
        )
        assert realizable_dimension_complete_case(k3bb) == 3
        assert realizable_dimension_bounds(k3bb).as_tuple() == (3, 3)

    assert is_2_realizable(counterexample_a()).answer
    assert is_2_realizable(counterexample_b()).answer
    assert not is_2_realizable(counterexample_c()).answer
    assert time.time() - start < 1.0


@criterion(3, "oracle equivalence on 500 random graphs (both deciders)")
def test_criterion_3_oracle_equivalence():
    start = time.time()
    for g in corpus_500():
        assert is_1_realizable(g).answer == (not contains_forbidden(g, 1)), g
        assert is_2_realizable(g).answer == (not contains_forbidden(g, 2)), g
    assert time.time() - start < 60.0


@criterion(4, "cycle-freeness (iv) matches the forbidden-minor oracle (ii) for d=1")
def test_criterion_4_d1_internal_equivalence():
    for g in corpus_500():
        assert (not has_nonloop_cycle(g)) == (not contains_forbidden(g, 1)), g


def permuted_graph(rng, g):
    perm = list(g.vertices)
    rng.shuffle(perm)
    mapping = dict(zip(g.vertices, perm))
    edges = [GainEdge(e.id, mapping[e.tail], mapping[e.head], e.label) for e in g.edges]
    return GainGraph(g.vertices, edges), mapping


@criterion(5, "invariance suite: verdicts, balance, canonical forms, kernels, signatures")
def test_criterion_5_invariance():
    rng = random.Random(SEED + 5)
    for _ in range(200):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8, min_vertices=2)

        moved = random_switch_sequence(rng, g, rng.randint(1, 3))
        for e in list(moved.edges):
            if rng.random() < 0.4:
                moved = moved.invert_edge(e.id)
        moved, _ = permuted_graph(rng, moved)

        assert g.canonical_form() == moved.canonical_form()
        assert g.is_balanced() == moved.is_balanced()
        assert is_1_realizable(g).answer == is_1_realizable(moved).answer
        assert is_2_realizable(g).answer == is_2_realizable(moved).answer

        # numeric invariances on a framework over g
        dim = rng.randint(1, 3)
        fw = random_framework(rng, g, dim)
        kernel = stress_kernel(fw, TOL)
        omega = None
        if kernel.shape[0]:
            omega = StressVector.from_sequence(g, [float(x) for x in kernel[0]])
            fw2 = fw
            for _ in range(3):
                fw2 = reselect_representative(
                    fw2, rng.choice(g.vertices), rng.randint(-2, 2)
                )
            assert is_equilibrium_stress(fw2, omega, TOL)
            if g.m:
                h = fw.graph.invert_edge(rng.choice([e.id for e in g.edges]))
                fw3 = QuotientFramework(h, fw.positions, fw.lattice)
                assert is_equilibrium_stress(fw3, omega, TOL)

        weights = StressVector.from_sequence(
            g, [rng.randint(-3, 3) for _ in range(g.m + 1)]
        )
        base_sig = signature(stress_matrix(g, weights), TOL).as_tuple()
        switched = g.switch(rng.choice(g.vertices), rng.randint(-3, 3))
        assert signature(stress_matrix(switched, weights), TOL).as_tuple() == base_sig
        if g.m:
            inverted = g.invert_edge(rng.choice([e.id for e in g.edges]))
            assert signature(stress_matrix(inverted, weights), TOL).as_tuple() == base_sig


@criterion(6, "span-rank agreement on 200 random graphs (up to 6 vertices)")
def test_criterion_6_span_rank_agreement():
    rng = random.Random(SEED + 6)
    for _ in range(200):
        g = random_simple_gain_graph(
            rng, max_vertices=6, max_edges=12, min_vertices=1
        )
        assert span_check(g).agrees(), g


def _non_spanning_complete_quotients():
    """Complete simplified graph, multiplicity graph not spanning."""
    k3 = GainGraph.of(3, [(1, 2, 0), (1, 3, 0), (2, 3, 0)])
    k3_one_double = GainGraph.of(3, [(1, 2, 0), (1, 3, 0), (2, 3, 0), (2, 3, 1)])
    k4 = GainGraph.of(4, [(a, b, 0) for a, b in itertools.combinations(range(1, 5), 2)])
    k4_one_double = GainGraph.of(
        4,
        [(a, b, 0) for a, b in itertools.combinations(range(1, 5), 2)] + [(1, 2, 2)],
    )
    k2_single = GainGraph.of(2, [(1, 2, 1)])
    return [k3, k3_one_double, k4, k4_one_double, k2_single]


@criterion(7, "flattening sweep: lengths kept to 1e-9, dimension drops to n-1")
def test_criterion_7_flattening():
    rng = random.Random(SEED + 7)
    quotients = _non_spanning_complete_quotients()
    done = 0
    while done < 100:
        g = quotients[done % len(quotients)]
        n = g.n
        fw = random_framework(rng, g, n)
        if affine_dimension(fw, TOL) != n:
            continue  # regenerate: we want a full-dimensional embedding
        res = conic_condition(fw, TOL)
        assert not res.holds
        reference = fw.squared_lengths()
        flat = flatten(fw, res.witness, TOL)
        assert np.allclose(flat.squared_lengths(), reference, rtol=1e-9, atol=1e-9)
        assert affine_dimension(flat, TOL) < n
        # iterate down to the known realizable dimension n-1
        steps = 0
        while affine_dimension(flat, TOL) > n - 1 and steps < n + 2:
            flat = restrict_to_affine_span(flat, TOL)
            res = conic_condition(flat, TOL)
            assert not res.holds
            flat = flatten(flat, res.witness, TOL)
            assert np.allclose(flat.squared_lengths(), reference, rtol=1e-9, atol=1e-9)
            steps += 1
        assert affine_dimension(flat, TOL) == n - 1
        done += 1


@criterion(8, "minor monotonicity of the deciders on 300 host/operation pairs")
def test_criterion_8_monotonicity():
    rng = random.Random(SEED + 8)
    done = 0
    while done < 300:
        host = random_simple_gain_graph(rng, max_vertices=5, max_edges=9)
        smaller = random_minor_operation(rng, host)
        if smaller is None or smaller.n == 0:
            continue
        if is_1_realizable(host).answer:
            assert is_1_realizable(smaller).answer, (host, smaller)
        if is_2_realizable(host).answer:
            assert is_2_realizable(smaller).answer, (host, smaller)
        done += 1


@criterion(9, "certificate round-trips through the command line verifier")
def test_criterion_9_certificate_roundtrips(tmp_path):
    from realdim.documents import GraphDocument, serialize_graph_document

    table = {
        "k2": GainGraph.of(2, [(1, 2, 0)]),
        "loops": GainGraph.of(1, [(1, 1, 1), (1, 1, 2)]),
        "k3": GainGraph.of(3, [(1, 2, 0), (1, 3, 0), (2, 3, 0)]),
        "k2b": GainGraph.of(2, [(1, 2, 0), (1, 2, 1)]),
        "k4": GainGraph.of(4, [(a, b, 0) for a, b in itertools.combinations(range(1, 5), 2)]),
        "k3bb": GainGraph.of(
            3, [(1, 2, 0), (3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1)]
        ),
        "cx_a": counterexample_a(),
        "cx_b": counterexample_b(),
        "cx_c": counterexample_c(),
    }
    for i, g in enumerate(corpus_500()[:40]):
        table[f"rand{i}"] = g

    import contextlib
    import io

    for name, g in table.items():
        path = tmp_path / f"{name}.graph"
        path.write_text(serialize_graph_document(GraphDocument.from_graph(g)))
        prefix = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["classify", str(path), "--cert-out", str(prefix)])
        assert code in (0, 1)
        for dim in (1, 2):
            cert = tmp_path / f"{name}.d{dim}.json"
            assert cert.exists()
            with contextlib.redirect_stdout(io.StringIO()):
                verified = cli_main(["verify-cert", str(path), str(cert)])
            assert verified == 0, (name, dim)
