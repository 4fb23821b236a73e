"""Output checks made apart from the package under test.

Everything here works on the benchmark's own plain inputs with the
standard library and numpy, so a fault in the program cannot hide in a
shared helper.  Each check returns None when the output is right and a
short reason when it is not.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-8


# -- graphs -------------------------------------------------------------------------


def one_realizable(graph) -> bool:
    """No parallel pair and a forest, once selfloops are dropped."""
    n, edges = graph
    parent = list(range(n + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    pairs = set()
    for t, h, _ in edges:
        if t == h:
            continue
        pair = (min(t, h), max(t, h))
        if pair in pairs:
            return False
        pairs.add(pair)
        a, b = find(t), find(h)
        if a == b:
            return False
        parent[a] = b
    return True


def balanced(graph) -> bool:
    """Every closed walk has gain 0: potentials from a BFS forest fit every edge."""
    n, edges = graph
    adj = {v: [] for v in range(1, n + 1)}
    for t, h, z in edges:
        if t == h:
            if z != 0:
                return False
            continue
        adj[t].append((h, z))
        adj[h].append((t, -z))
    phi = {}
    for root in range(1, n + 1):
        if root in phi:
            continue
        phi[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w, z in adj[u]:
                # label z on u->w is zeroed by phi(w) = phi(u) + z
                if w not in phi:
                    phi[w] = phi[u] + z
                    stack.append(w)
                elif phi[w] != phi[u] + z:
                    return False
    return True


def verdicts(graph, v1, v2, bounds, known_d2=None):
    """d=1 against the plain test, d=2 against a known answer, and the
    bounds against both verdicts."""
    if v1 != one_realizable(graph):
        return f"d=1 verdict {v1} disagrees with the forest/parallel-pair test"
    if known_d2 is not None and v2 != known_d2:
        return f"d=2 verdict {v2}, expected {known_d2} by construction"
    if v1 and not v2:
        return "1-realizable but not 2-realizable"
    lower, upper = bounds
    expected = (1, 1) if v1 else (2, 2) if v2 else None
    if expected is not None and (lower, upper) != expected:
        return f"bounds {(lower, upper)} do not match the verdicts, expected {expected}"
    if expected is None and not 3 <= lower <= upper <= graph[0]:
        return f"bounds {(lower, upper)} for a d=2 'no' on {graph[0]} vertices"
    return None


def certificate_shape(cert: dict, dimension: int, answer: bool):
    """The emitted JSON names the verdict it certifies."""
    want = "yes" if answer else "no"
    if cert.get("dimension") != dimension or cert.get("answer") != want:
        return f"certificate header {cert.get('dimension')}/{cert.get('answer')} " \
               f"for a d={dimension} '{want}'"
    kind = cert.get("kind")
    if answer and kind != "decomposition-tree":
        return f"'yes' certified by {kind!r}"
    if not answer and kind not in ("minor-witness", "reason-trace"):
        return f"'no' certified by {kind!r}"
    return None


def tree_size(cert: dict):
    """(nodes, depth) of a decomposition tree in certificate JSON; iterative
    so that deep trees measure without recursion."""
    if cert.get("kind") != "decomposition-tree":
        return 0, 0
    nodes = depth = 0
    stack = [(cert["root"], 1)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in node.get("children", ()))
    return nodes, depth


# -- frameworks -------------------------------------------------------------------------


def edge_vectors(graph, positions, lattice):
    _, edges = graph
    p = np.asarray(positions, dtype=float)
    lat = np.asarray(lattice, dtype=float)
    rows = [p[h - 1] + z * lat - p[t - 1] for t, h, z in edges]
    rows.append(lat)
    return np.array(rows)


def rigidity(graph, positions, lattice):
    n, edges = graph
    d = len(lattice)
    vecs = edge_vectors(graph, positions, lattice)
    R = np.zeros((len(edges) + 1, d * (n + 1)))
    for row, ((t, h, z), v) in enumerate(zip(edges, vecs)):
        R[row, (t - 1) * d:t * d] -= v
        R[row, (h - 1) * d:h * d] += v
        R[row, n * d:(n + 1) * d] += z * v
    R[-1, n * d:] = vecs[-1]
    return R


def equilibrium(graph, positions, lattice, omega):
    """|omega . R| within a tolerance relative to |R| and |omega|."""
    R = rigidity(graph, positions, lattice)
    omega = np.asarray(omega, dtype=float)
    residual = float(np.abs(omega @ R).max())
    scale = max(1.0, float(np.linalg.norm(R, 2))) * max(1.0, float(np.linalg.norm(omega)))
    if residual > TOL * scale:
        return f"stress is not in equilibrium: |omega.R| = {residual:.3g}"
    return None


def incidence(graph):
    """Indicator rows of the extended edge set, as Python ints."""
    n, edges = graph
    rows = []
    for t, h, z in edges:
        row = [0] * (n + 1)
        if t != h:
            row[t - 1] -= 1
            row[h - 1] += 1
        row[n] = z
        rows.append(row)
    rows.append([0] * n + [1])
    return rows


def exact_stress_matrix(graph, weights):
    """I^T diag(w) I in exact integers."""
    inc = incidence(graph)
    size = len(inc[0])
    return [[sum(w * row[a] * row[b] for w, row in zip(weights, inc)) for b in range(size)]
            for a in range(size)]


def inertia(matrix):
    eig = np.linalg.eigvalsh(np.asarray(matrix, dtype=float))
    tol = TOL * max(1.0, float(np.abs(eig).max()))
    return int((eig > tol).sum()), int((eig < -tol).sum()), int((np.abs(eig) <= tol).sum())


def indicator_span_rank(graph):
    rows = []
    for row in incidence(graph):
        size = len(row)
        rows.append([row[a] * row[b] for a in range(size) for b in range(a, size)])
    return int(np.linalg.matrix_rank(np.array(rows, dtype=float)))


def affine_dimension(positions, lattice):
    p = np.asarray(positions, dtype=float)
    top = np.column_stack([p.T, np.asarray(lattice, dtype=float)])
    bordered = np.vstack([top, np.append(np.ones(len(p)), 0.0)])
    return int(np.linalg.matrix_rank(bordered)) - 1


def lengths_kept(graph, before, after):
    """Squared extended edge lengths equal to 1e-9, relative to the largest."""
    a = (edge_vectors(graph, *before) ** 2).sum(axis=1)
    b = (edge_vectors(graph, *after) ** 2).sum(axis=1)
    worst = float(np.abs(a - b).max())
    if worst > 1e-9 * max(1.0, float(a.max())):
        return f"flattening changed a squared length by {worst:.3g}"
    return None
