"""Seeded inputs for every workload, built without the package under test.

Graphs are plain ``(n, [(tail, head, label), ...])`` pairs on vertices
``1..n``; frameworks add position rows and a lattice vector.  Every
generator takes its own ``random.Random`` seeded from a string, so an
input family never shifts when another family changes, and nothing the
program does can change what it is fed.

Structures whose decider cost depends on their shape (two-trees, the
named min-degree-three hosts, the small corpus) are fixed; the seed
draws labels, switchings, tree shapes and positions, which the deciders'
running time barely depends on.  That keeps the run-to-run spread across
seeds small.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

# Sizes per family: two sizes a factor of two apart.  ``scale`` in the
# builders below divides them for the smoke test.
SPARSE_SIZES = {
    "cycle": (50, 100),
    "two-tree": (40, 80),
    "necklace": (50, 100),
    "labelled-two-tree": (150, 300),
    "tree": (100, 200),
}
# Smallest cycle on which is_2_realizable exhausts the default recursion
# limit, and a tree whose d=1 certificate is too deep to serialize.
FAULT_CYCLE_N = 500
FAULT_TREE_N = 700

CORPUS_SIZE = 500
CORPUS_MAX_N = 5
CORPUS_MAX_M = 9
MINOR_SUBSET_STEP = 10  # has_minor runs on every tenth corpus graph

COMPLETE_TYPE_NS = (4, 8, 12, 16, 20)
FRAMEWORK_DIMS = (2, 3)
NON_SPANNING_NS = (4, 5, 6, 7)

WORKED_EXAMPLE = {
    "graph": (3, [(1, 2, 0), (3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1)]),
    "positions": [[4.0, 0.0], [4.0, 2.0], [6.0, 1.0]],
    "lattice": [4.0, 0.0],
    "stress": [-1, 1, 1, 1, 1, -1],  # one weight per edge, lattice weight last
    "stress_matrix": [[1, 1, -2, 1], [1, 1, -2, 1], [-2, -2, 4, -2], [1, 1, -2, 1]],
    "signature": (1, 0, 3),
}


def rng_for(seed: int, family: str) -> random.Random:
    return random.Random(f"{family}/{seed}")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- graph families --------------------------------------------------------------


def cycle(n, rng):
    return n, [(i, i % n + 1, rng.randint(-3, 3)) for i in range(1, n + 1)]


def switched_zero(n, pairs, rng):
    """Zero labels on the given pairs, then a random switching."""
    pot = {v: rng.randint(-5, 5) for v in range(1, n + 1)}
    return n, [(a, b, pot[a] - pot[b]) for a, b in pairs]


def bfs_two_tree_pairs(n):
    """Two-tree where vertex v leans on edge v-3: every edge is used once, in
    creation order, so the shape is balanced and does not depend on a seed."""
    pairs = [(1, 2)]
    for v in range(3, n + 1):
        a, b = pairs[v - 3]
        pairs += [(a, v), (b, v)]
    return pairs


def strip_two_tree_pairs(n):
    """Triangulated strip: vertex v joins v-1 and v-2."""
    return [(1, 2)] + [p for v in range(3, n + 1) for p in ((v - 2, v), (v - 1, v))]


def necklace(n, rng):
    """A cycle with exactly one doubled pair."""
    n, edges = cycle(n, rng)
    t, h, z = edges[rng.randrange(n)]
    edges.append((t, h, z + rng.choice((-2, -1, 1, 2))))
    return n, edges


def labelled_two_tree(n, rng):
    return n, [(a, b, rng.randint(-3, 3)) for a, b in strip_two_tree_pairs(n)]


def tree_with_loops(n, rng):
    edges = [(rng.randint(1, v - 1), v, rng.randint(-3, 3)) for v in range(2, n + 1)]
    for v in sorted(rng.sample(range(1, n + 1), n // 10)):
        edges.append((v, v, rng.randint(1, 3)))
    return n, edges


def fault_cycle():
    n = FAULT_CYCLE_N
    return n, [(i, i % n + 1, i % 3 - 1) for i in range(1, n + 1)]


def fault_tree():
    n = FAULT_TREE_N
    edges = [((7 * v) % (v - 1) + 1, v, v % 5 - 2) for v in range(2, n + 1)]
    edges += [(v, v, 1 + v % 3) for v in range(1, n + 1, 10)]
    return n, edges


def wheel_pairs(k):
    """Hub 1 and rim 2..k+1."""
    rim = list(range(2, k + 2))
    return [(1, v) for v in rim] + [(rim[i], rim[(i + 1) % k]) for i in range(k)]


NAMED_PAIRS = {
    "K4": (4, list(itertools.combinations(range(1, 5), 2))),
    "W4": (5, wheel_pairs(4)),
    "W5": (6, wheel_pairs(5)),
    "W6": (7, wheel_pairs(6)),
    "prism": (6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]),
    "K33": (6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]),
    "W9": (10, wheel_pairs(9)),
    "petersen": (
        10,
        [(i, i % 5 + 1) for i in range(1, 6)]
        + [(i, i + 5) for i in range(1, 6)]
        + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)],
    ),
}


def named_host(name):
    """Fixed labels: the exhaustive search these hosts trigger takes a time
    that depends on the labels, so they do not vary with the seed."""
    n, pairs = NAMED_PAIRS[name]
    return n, [(a, b, (3 * k) % 5 - 2) for k, (a, b) in enumerate(pairs)]


def random_small_graph(rng, max_n, max_m):
    """Random simple labelled graph with loops; skips draws that would
    break simplicity, so it never rejects a whole graph."""
    n = rng.randint(1, max_n)
    target = rng.randint(0, max_m)
    edges, pairs, loops = [], set(), set()
    for _ in range(3 * target):
        if len(edges) == target:
            break
        t, h, z = rng.randint(1, n), rng.randint(1, n), rng.randint(-2, 2)
        if t == h:
            if z == 0 or (t, abs(z)) in loops:
                continue
            loops.add((t, abs(z)))
        else:
            key = (t, h, z) if t < h else (h, t, -z)
            if key in pairs:
                continue
            pairs.add(key)
        edges.append((t, h, z))
    return n, edges


def isomorphic_copy(graph, rng):
    """Random switching, edge inversion, vertex renaming and edge order."""
    n, edges = graph
    pot = {v: rng.randint(-3, 3) for v in range(1, n + 1)}
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = []
    for t, h, z in edges:
        if t != h:
            z = z + pot[t] - pot[h]
        t, h = perm[t - 1], perm[h - 1]
        if rng.random() < 0.5:
            t, h, z = h, t, -z
        out.append((t, h, z))
    rng.shuffle(out)
    return n, out


# -- workload input sets ----------------------------------------------------------


def _scaled(sizes, scale):
    return tuple(max(4, s // scale) for s in sizes)


def sparse_large(seed, scale=1):
    makers = {
        "cycle": cycle,
        "two-tree": lambda n, rng: switched_zero(n, bfs_two_tree_pairs(n), rng),
        "necklace": necklace,
        "labelled-two-tree": labelled_two_tree,
        "tree": tree_with_loops,
    }
    graphs = []
    for family, sizes in SPARSE_SIZES.items():
        rng = rng_for(seed, f"sparse-large/{family}")
        for n in _scaled(sizes, scale):
            graphs.append({"family": family, "graph": makers[family](n, rng)})
    return {"graphs": graphs, "fault_cycle": fault_cycle(), "fault_tree": fault_tree()}


def small_dense(seed, scale=1):
    """The timed corpus is one fixed draw; the seed draws the isomorphic
    copies of the invariance check.  The exhaustive engine's work, and
    covering_switch's backtracking in verify(), depend on the labelling:
    seeded corpora (or seeded isomorphic copies of one corpus) moved the
    work by 5% between seeds, and one copy in 500 took 60 times longer to
    verify than the rest.  A fixed corpus keeps that out of the spread."""
    rng = random.Random("small-dense/corpus")
    count = max(10, CORPUS_SIZE // scale)
    corpus = [random_small_graph(rng, CORPUS_MAX_N, CORPUS_MAX_M) for _ in range(count)]
    iso_rng = rng_for(seed, "small-dense/isomorphic-copies")
    copies = [isomorphic_copy(g, iso_rng) for g in corpus]
    hosts = ("K4", "W4", "W5", "W6", "prism", "K33") if scale == 1 else ("K4", "W4")
    return {
        "corpus": corpus,
        "copies": copies,
        "hosts": [{"name": h, "graph": named_host(h)} for h in hosts],
        "fault_hosts": [{"name": h, "graph": named_host(h)} for h in ("petersen", "W9")],
    }


def complete_type(n, rng):
    """Complete simplified graph plus a doubled spanning path."""
    edges = [(a, b, 0) for a, b in itertools.combinations(range(1, n + 1), 2)]
    edges += [(i, i + 1, rng.choice((-2, -1, 1, 2))) for i in range(1, n)]
    return n, edges


def non_spanning_complete(n, rng):
    """Complete simplified graph with one doubled pair: the multiplicity
    graph does not span, so the realizable dimension is n - 1."""
    edges = [(a, b, rng.randint(-2, 2)) for a, b in itertools.combinations(range(1, n + 1), 2)]
    t, h, z = edges[0]
    edges.append((t, h, z + rng.choice((-1, 1))))
    return n, edges


def placement(n, dim, rng):
    positions = [[rng.uniform(-5.0, 5.0) for _ in range(dim)] for _ in range(n)]
    lattice = [rng.uniform(1.0, 5.0)] + [rng.uniform(-1.0, 1.0) for _ in range(dim - 1)]
    return positions, lattice


def frameworks(seed, scale=1):
    rng = rng_for(seed, "frameworks")
    ns = COMPLETE_TYPE_NS if scale == 1 else COMPLETE_TYPE_NS[:2]
    complete = []
    for n in ns:
        graph = complete_type(n, rng)
        for dim in FRAMEWORK_DIMS:
            positions, lattice = placement(n, dim, rng)
            weights = [rng.randint(-5, 5) for _ in range(len(graph[1]) + 1)]
            complete.append({"graph": graph, "positions": positions, "lattice": lattice,
                             "weights": weights})
    flat = []
    for n in NON_SPANNING_NS if scale == 1 else NON_SPANNING_NS[:2]:
        positions, lattice = placement(n, n, rng)
        flat.append({"graph": non_spanning_complete(n, rng), "positions": positions,
                     "lattice": lattice})
    n, edges = WORKED_EXAMPLE["graph"]
    overflow = [10**19] + WORKED_EXAMPLE["stress"][1:]
    return {"complete": complete, "flatten": flat, "worked": WORKED_EXAMPLE,
            "fault_overflow": {"graph": (n, edges), "weights": overflow}}


# -- documents for the cli workload ---------------------------------------------------


def graph_text(graph, name):
    n, edges = graph
    lines = ["gaingraph v1", f"name {name}", f"vertices {n}"]
    lines += [f"edge {t} {h} {z}" for t, h, z in edges]
    return "\n".join(lines) + "\n"


def graph_json(graph, name):
    n, edges = graph
    return json.dumps({"kind": "gaingraph", "version": "v1", "name": name,
                       "vertices": n, "edges": [list(e) for e in edges]}) + "\n"


def framework_text(graph, positions, lattice, stress=None):
    n, edges = graph
    lines = ["framework v1", f"dimension {len(lattice)}", f"vertices {n}"]
    lines += [f"edge {t} {h} {z}" for t, h, z in edges]
    lines += [f"position {v} " + " ".join(repr(float(c)) for c in row)
              for v, row in enumerate(positions, start=1)]
    lines.append("lattice " + " ".join(repr(float(c)) for c in lattice))
    if stress is not None:
        lines += [f"stress e{k} {w}" for k, w in enumerate(stress[:-1], start=1)]
        lines.append(f"stress L {stress[-1]}")
    return "\n".join(lines) + "\n"


def framework_json(graph, positions, lattice):
    n, edges = graph
    return json.dumps({
        "kind": "framework", "version": "v1", "dimension": len(lattice), "vertices": n,
        "edges": [list(e) for e in edges],
        "positions": {str(v): list(row) for v, row in enumerate(positions, start=1)},
        "lattice": list(lattice),
    }) + "\n"


def cli_documents(seed, scale=1):
    """Small documents: the process start, not the decider, is what costs.
    They are small already, so ``scale`` changes nothing."""
    rng = rng_for(seed, "cli")
    ladder = WORKED_EXAMPLE["graph"]
    graphs = [
        # name, graph, format, 2-realizability known by construction
        ("ladder", ladder, "text", False),
        ("cycle", cycle(12, rng), "json", True),
        ("two-tree", switched_zero(10, bfs_two_tree_pairs(10), rng), "text", True),
        ("necklace", necklace(10, rng), "json", True),
        ("K4", named_host("K4"), "text", False),
        ("W4", named_host("W4"), "json", False),
        ("tree", tree_with_loops(20, rng), "text", True),
        ("K33", named_host("K33"), "json", False),
    ]
    complete = complete_type(5, rng)
    complete_place = placement(5, 2, rng)
    flat_graph = non_spanning_complete(4, rng)
    flat_place = placement(4, 4, rng)
    worked = WORKED_EXAMPLE
    perturbed = list(worked["stress"])
    perturbed[0] += 1
    return {
        "graphs": graphs,
        "worked": worked,
        "frameworks": {
            "worked": framework_text(worked["graph"], worked["positions"], worked["lattice"],
                                     worked["stress"]),
            "perturbed": framework_text(worked["graph"], worked["positions"],
                                        worked["lattice"], perturbed),
            "complete": framework_json(complete, *complete_place),
            "flat": framework_text(flat_graph, *flat_place),
        },
        "framework_inputs": {
            "complete": (complete, *complete_place),
            "flat": (flat_graph, *flat_place),
        },
        # Malformed on purpose: the documented exit code for bad input is 2.
        "no_vertices": json.dumps({"kind": "gaingraph", "version": "v1",
                                   "edges": [[1, 2, 0]]}) + "\n",
        "no_target_cert": json.dumps({"dimension": 2, "answer": "no", "kind": "minor-witness",
                                      "pattern": {"kind": "k3-bulletbullet"},
                                      "ops": [{"op": "delete_edge"}]}) + "\n",
    }


BUILDERS = {
    "sparse-large": sparse_large,
    "small-dense": small_dense,
    "frameworks": frameworks,
    "cli": cli_documents,
}
