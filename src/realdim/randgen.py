"""Seeded random generators for graphs, moves, and frameworks.

Used by the property-test suites and the CLI selftest.  Everything takes
an explicit ``random.Random`` so runs are reproducible from a seed.
"""

from __future__ import annotations

import random

import numpy as np

from .graphs import GainEdge, GainGraph, orbit_key


def random_simple_gain_graph(
    rng: random.Random,
    max_vertices: int = 5,
    max_edges: int = 9,
    label_min: int = -2,
    label_max: int = 2,
    min_vertices: int = 1,
) -> GainGraph:
    """Random simple labelled graph, dense-ish but rejection-free.

    Candidate edges are drawn one at a time and skipped when they would
    break simplicity, so the result is always valid.
    """
    n = rng.randint(min_vertices, max_vertices)
    m_target = rng.randint(0, max_edges)
    edges = []
    seen = set()  # orbit keys
    for _ in range(m_target * 3):
        if len(edges) >= m_target:
            break
        t = rng.randint(1, n)
        h = rng.randint(1, n)
        z = rng.randint(label_min, label_max)
        key = orbit_key(t, h, z)
        if t == h and z == 0 or key in seen:
            continue
        seen.add(key)
        edges.append(GainEdge(len(edges) + 1, t, h, z))
    return GainGraph(range(1, n + 1), edges)


def random_switch_sequence(rng: random.Random, g: GainGraph, moves: int = 4) -> GainGraph:
    for _ in range(moves):
        g = g.switch(rng.choice(g.vertices), rng.randint(-3, 3))
    return g


def random_isomorphic_copy(rng: random.Random, g: GainGraph) -> GainGraph:
    """Apply random switchings, inversions, and a vertex permutation."""
    h = random_switch_sequence(rng, g, rng.randint(0, 4))
    for e in list(h.edges):
        if rng.random() < 0.5:
            h = h.invert_edge(e.id)
    perm = list(h.vertices)
    rng.shuffle(perm)
    mapping = dict(zip(h.vertices, perm))
    edges = [GainEdge(e.id, mapping[e.tail], mapping[e.head], e.label) for e in h.edges]
    return GainGraph(h.vertices, edges)


def random_framework(
    rng: random.Random,
    g: GainGraph,
    dim: int,
    integer: bool = False,
):
    """Random positions and a nonzero lattice vector for a graph."""
    from .frameworks import QuotientFramework

    if integer:
        pos = np.array(
            [[rng.randint(-3, 3) for _ in range(dim)] for _ in g.vertices], dtype=float
        )
        lattice = np.zeros(dim)
        while not lattice.any():
            lattice = np.array([rng.randint(-3, 3) for _ in range(dim)], dtype=float)
    else:
        pos = np.array([[rng.uniform(-3.0, 3.0) for _ in range(dim)] for _ in g.vertices])
        lattice = np.array([rng.uniform(-3.0, 3.0) for _ in range(dim)])
        while np.linalg.norm(lattice) < 1e-3:
            lattice = np.array([rng.uniform(-3.0, 3.0) for _ in range(dim)])
    return QuotientFramework(g, pos, lattice)
