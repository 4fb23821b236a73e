"""Certificates for realizability verdicts, and their verification.

A *yes* answer is certified by a decomposition tree: leaves are small
labelled graphs, internal nodes glue children by disjoint union, one-sum
(a single shared vertex), or balanced two-sum (a single shared edge, one
summand balanced).  Replaying the tree bottom-up builds a supergraph of
the input on the same vertex set, up to a switching; gluing of these
kinds never raises realizable dimension beyond the leaves'.

A *no* answer is certified, at any size, by a minor witness that replays
against the input to a minor forbidden for the dimension (see
:mod:`realdim.minors`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import RealdimError
from .graphs import GainEdge, GainGraph
from .minors import FORBIDDEN_D1, FORBIDDEN_D2, MinorOp, MinorPattern, MinorWitness

LEAF = "leaf"
DISJOINT_UNION = "disjoint_union"
ONE_SUM = "one_sum"
BALANCED_TWO_SUM = "balanced_two_sum"


class CertificateError(RealdimError):
    """A certificate failed structural validation or replay."""


@dataclass(frozen=True)
class DecompositionTree:
    kind: str
    graph: GainGraph | None = None
    children: tuple = ()
    shared_vertex: int | None = None
    shared_pair: tuple | None = None
    zero_child: int | None = None  # index of the balanced summand of a two-sum

    # -- constructors ---------------------------------------------------------

    @classmethod
    def leaf(cls, graph: GainGraph) -> "DecompositionTree":
        return cls(LEAF, graph=graph)

    @classmethod
    def disjoint_union(cls, children) -> "DecompositionTree":
        children = tuple(children)
        if len(children) == 1:
            return children[0]
        return cls(DISJOINT_UNION, children=children)

    @classmethod
    def one_sum(cls, left, right, shared_vertex: int) -> "DecompositionTree":
        return cls(ONE_SUM, children=(left, right), shared_vertex=shared_vertex)

    @classmethod
    def balanced_two_sum(cls, left, right, shared_pair, zero_child: int) -> "DecompositionTree":
        return cls(
            BALANCED_TWO_SUM,
            children=(left, right),
            shared_pair=tuple(sorted(shared_pair)),
            zero_child=zero_child,
        )

    # -- traversal --------------------------------------------------------------

    def leaves(self):
        stack = [self]
        while stack:
            node = stack.pop()
            if node.kind == LEAF:
                yield node
            else:
                stack.extend(reversed(node.children))

    def map_leaf_graphs(self, fn) -> "DecompositionTree":
        if self.kind == LEAF:
            return DecompositionTree.leaf(fn(self.graph))
        return DecompositionTree(
            self.kind,
            children=tuple(c.map_leaf_graphs(fn) for c in self.children),
            shared_vertex=self.shared_vertex,
            shared_pair=self.shared_pair,
            zero_child=self.zero_child,
        )

    def switched(self, potentials) -> "DecompositionTree":
        """Apply a switching to every leaf, restricted to its vertices."""

        def fn(g: GainGraph) -> GainGraph:
            local = {v: potentials[v] for v in g.vertices if v in potentials}
            return g.switch_many(local)

        return self.map_leaf_graphs(fn)

    # -- replay --------------------------------------------------------------------

    def replay(self) -> GainGraph:
        """Build the glued graph in one post-order pass, checking each node's shape.

        A finished subtree is kept as its vertex set, its orbit-key labels
        by vertex pair (loops under ``(v, v)``) and a balanced flag, which a
        leaf computes only inside a summand named balanced.  An edge id must
        name one orbit across the whole tree; the edges of one orbit
        collapse to the leftmost.
        """
        ids: dict = {}  # edge id -> orbit key
        first: dict = {}  # orbit key -> leftmost edge
        done: list = []  # records of finished subtrees
        stack = [(self, False, False)]  # (node, children finished, named balanced)
        while stack:
            node, finished, need = stack.pop()
            if finished:
                done.append(node._glue([done.pop() for _ in node.children][::-1]))
            elif node.kind == LEAF:
                if node.graph is None:
                    raise CertificateError("leaf without a graph")
                pairs: dict = {}
                for e in node.graph.edges:
                    key = e.orbit_key()
                    if ids.setdefault(e.id, key) != key:
                        raise CertificateError(f"edge {e.id} names two orbits in the tree")
                    first.setdefault(key, e)
                    pairs.setdefault(key[:2], set()).add(key[2])
                done.append((set(node.graph.vertices), pairs, need and node.graph.is_balanced()))
            else:
                stack.append((node, True, need))
                for i in reversed(range(len(node.children))):
                    named = node.kind == BALANCED_TWO_SUM and i == node.zero_child
                    stack.append((node.children[i], False, need or named))
        return GainGraph(done[0][0], first.values())

    def _glue(self, parts: list) -> tuple:
        """Check this node's shape on its children's records, then merge them
        into the largest.  One- and two-sums of balanced graphs that pass
        these checks are balanced, so the flag is the AND of the children's."""
        k = len(parts)
        if self.kind not in (DISJOINT_UNION, ONE_SUM, BALANCED_TWO_SUM):
            raise CertificateError(f"unknown node kind {self.kind!r}")
        if self.kind == DISJOINT_UNION:
            if k < 2:
                raise CertificateError("disjoint union needs at least two children")
        elif k != 2:
            raise CertificateError(f"{self.kind} needs exactly two children")
        else:
            (va, pa, _), (vb, pb, _) = parts
            want = {self.shared_vertex} if self.kind == ONE_SUM else set(self.shared_pair)
            if va & vb != want:
                raise CertificateError(
                    f"{self.kind} must share exactly {sorted(want)}, got {sorted(va & vb)}")
        if self.kind == BALANCED_TWO_SUM:
            x, y = sorted(self.shared_pair)
            if len(pa.get((x, y), set()) & pb.get((x, y), set())) != 1:
                raise CertificateError(
                    "two-sum sides must share exactly one edge between the shared pair")
            if any(pa.get((v, v), set()) & pb.get((v, v), set()) for v in (x, y)):
                raise CertificateError("two-sum sides share a selfloop")
            if self.zero_child not in (0, 1):
                raise CertificateError("two-sum must name its balanced summand")
            if not parts[self.zero_child][2]:
                raise CertificateError("the designated two-sum summand is not balanced")
        parts.sort(key=lambda r: len(r[0]) + len(r[1]), reverse=True)
        vertices, pairs, balanced = parts[0]
        for vs, ps, flag in parts[1:]:
            if self.kind == DISJOINT_UNION and not vertices.isdisjoint(vs):
                raise CertificateError("disjoint union children share vertices")
            vertices |= vs
            for pair, zs in ps.items():
                pairs.setdefault(pair, set()).update(zs)
            balanced = balanced and flag
        return vertices, pairs, balanced

    # -- serialization -----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.kind == LEAF:
            return {"node": LEAF, "graph": graph_to_json_dict(self.graph)}
        out = {"node": self.kind, "children": [c.to_json_dict() for c in self.children]}
        if self.kind == ONE_SUM:
            out["shared_vertex"] = self.shared_vertex
        if self.kind == BALANCED_TWO_SUM:
            out["shared_pair"] = list(self.shared_pair)
            out["zero_child"] = self.zero_child
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "DecompositionTree":
        kind = data.get("node")
        if kind == LEAF:
            return cls.leaf(graph_from_json_dict(data["graph"]))
        if kind not in (DISJOINT_UNION, ONE_SUM, BALANCED_TWO_SUM):
            raise CertificateError(f"unknown node kind {kind!r}")
        if type(data.get("children")) is not list:
            raise CertificateError(f"certificate {kind} node needs a children list")
        children = tuple(cls.from_json_dict(c) for c in data["children"])
        if kind == DISJOINT_UNION:
            return cls(DISJOINT_UNION, children=children)
        if kind == ONE_SUM:
            return cls(ONE_SUM, children=children,
                       shared_vertex=_int(data["shared_vertex"], "shared_vertex"))
        pair = data["shared_pair"]
        if type(pair) is not list or len(pair) != 2 or pair[0] == pair[1]:
            raise CertificateError(f"certificate shared_pair must be two distinct integers, "
                                   f"got {pair!r}")
        zero_child = data.get("zero_child")
        if type(zero_child) is not int or zero_child not in (0, 1):
            raise CertificateError(f"certificate zero_child must be 0 or 1, got {zero_child!r}")
        return cls(BALANCED_TWO_SUM, children=children,
                   shared_pair=tuple(_int(v, "shared_pair") for v in pair), zero_child=zero_child)


def _int(value, what: str) -> int:
    # an exact type check, since a bool is no integer here
    if type(value) is not int:
        raise CertificateError(f"certificate {what} must be an integer, got {value!r}")
    return value


def graph_to_json_dict(g: GainGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "label": e.label}
            for e in g.edges
        ],
    }


def graph_from_json_dict(data: dict) -> GainGraph:
    edges = [GainEdge(*(_int(e[k], f"edge {k}") for k in ("id", "tail", "head", "label")))
             for e in data["edges"]]
    return GainGraph([_int(v, "vertex") for v in data["vertices"]], edges)


# -- leaf families ----------------------------------------------------------------


def _is_k2_zero_like(g: GainGraph) -> bool:
    return g.n == 2 and g.m == 1 and not g.edges[0].is_loop


def _is_k3_zero_like(g: GainGraph) -> bool:
    """One edge on each pair of three vertices a < b < c, balanced: the
    cycle a -> b -> c -> a has gain 0, read off the three orbit keys."""
    if g.n != 3 or g.m != 3:
        return False
    a, b, c = sorted(g.vertices)
    (_, _, ab), (_, _, ac), (_, _, bc) = keys = sorted(e.orbit_key() for e in g.edges)
    return [k[:2] for k in keys] == [(a, b), (a, c), (b, c)] and ab + bc - ac == 0


def leaf_in_family(g: GainGraph, dimension: int) -> bool:
    """Leaf families: d=1 allows single-vertex graphs and single edges;
    d=2 allows graphs on at most two vertices and balanced triangles."""
    if dimension == 1:
        return g.n == 1 or _is_k2_zero_like(g)
    if dimension == 2:
        return g.n <= 2 or _is_k3_zero_like(g)
    raise RealdimError("leaf families are defined for dimensions 1 and 2")


# -- coverage --------------------------------------------------------------------


def covering_switch(original: GainGraph, replayed: GainGraph):
    """A switching of the original making it a subgraph of the replayed graph.

    Returns a potential (vertex -> shift) or None.  Edges match content-wise
    up to inversion; loops match by absolute label (multiset containment).
    """
    if not set(original.vertices) <= set(replayed.vertices):
        return None
    have = Counter((f.tail, abs(f.label)) for f in replayed.edges if f.is_loop)
    if Counter((e.tail, abs(e.label)) for e in original.edges if e.is_loop) - have:
        return None
    gains: dict = {}  # (tail, head) -> gains of the replayed edges read from tail
    for f in replayed.edges:
        if not f.is_loop:
            gains.setdefault((f.tail, f.head), set()).add(f.label)
            gains.setdefault((f.head, f.tail), set()).add(-f.label)

    adj: dict = {v: [] for v in original.vertices}
    for e in original.edges:
        if not e.is_loop:
            adj[e.tail].append((e.head, e.label))
            adj[e.head].append((e.tail, -e.label))
    psi: dict = {}
    for v in original.vertices:
        if v not in psi and not _assign(adj, gains, v, psi):
            return None
    return psi


def _assign(adj, gains, root, psi) -> bool:
    """Assign switching shifts over root's component, in BFS order.

    A vertex's shift is fixed by matching its BFS tree edge to one of the
    replayed edges between the same two vertices; the edges back to
    earlier vertices then check it.  Only the choice among parallel
    replayed edges is ever undone.
    """
    tree = {root: None}
    order = [root]
    for u in order:
        for w, z in adj[u]:
            if w not in tree:
                tree[w] = (u, z)
                order.append(w)
    pos = {v: i for i, v in enumerate(order)}
    back = [[(w, z) for w, z in adj[v] if pos[w] < i] for i, v in enumerate(order)]
    options: list = [None] * len(order)
    psi[root] = 0
    i = 1
    while 0 < i < len(order):
        v = order[i]
        if options[i] is None:
            u, z = tree[v]
            options[i] = sorted(z + psi[u] - g for g in gains.get((u, v), ()))
        while options[i]:
            psi[v] = options[i].pop()
            if all(z + psi[v] - psi[w] in gains.get((v, w), ()) for w, z in back[i]):
                i += 1
                break
        else:
            options[i] = None
            psi.pop(v, None)
            i -= 1
    return i > 0


def verify_decomposition(tree: DecompositionTree, original: GainGraph, dimension: int):
    """Full check of a yes-certificate; raises CertificateError on failure."""
    for leaf in tree.leaves():
        if not leaf_in_family(leaf.graph, dimension):
            raise CertificateError(
                f"leaf outside the dimension-{dimension} family: {leaf.graph!r}"
            )
    replayed = tree.replay()
    if set(replayed.vertices) != set(original.vertices):
        raise CertificateError(
            "replayed graph is not on the same vertex set as the input"
        )
    if covering_switch(original, replayed) is None:
        raise CertificateError("input is not a switched subgraph of the replay")
    return replayed


# -- verdicts ------------------------------------------------------------------------


@dataclass(frozen=True)
class RealizabilityVerdict:
    """Decision for one dimension bound, with its certificate."""

    dimension_bound: int
    answer: bool
    certificate: object  # DecompositionTree | MinorWitness

    @property
    def certificate_kind(self) -> str:
        if isinstance(self.certificate, DecompositionTree):
            return "decomposition-tree"
        if isinstance(self.certificate, MinorWitness):
            return "minor-witness"
        return "none"

    def verify(self, original: GainGraph) -> bool:
        """Replay the certificate against the graph it was issued for, and
        check that it certifies this verdict's answer at its dimension."""
        cert = self.certificate
        if isinstance(cert, DecompositionTree):
            if not self.answer:
                raise CertificateError('a decomposition tree certifies "yes", not "no"')
            verify_decomposition(cert, original, self.dimension_bound)
            return True
        if isinstance(cert, MinorWitness):
            if self.answer:
                raise CertificateError('a minor witness certifies "no", not "yes"')
            if not cert.verify(original):
                raise CertificateError("minor witness failed to replay")
            forbidden = {1: FORBIDDEN_D1, 2: FORBIDDEN_D2}.get(self.dimension_bound, ())
            if not any(p.kind == cert.pattern.kind
                       and (p.kind != "exact" or p.matches(cert.pattern.graph))
                       for p in forbidden):
                raise CertificateError(f"pattern {cert.pattern.describe()} is not forbidden "
                                       f"for dimension {self.dimension_bound}")
            return True
        raise CertificateError("verdict carries no certificate")


def witness_to_json_dict(w: MinorWitness) -> dict:
    pat: dict = {"kind": w.pattern.kind}
    if w.pattern.kind == "exact":
        pat["graph"] = graph_to_json_dict(w.pattern.graph)
    return {
        "kind": "minor-witness",
        "pattern": pat,
        "ops": [
            {"op": op.kind, "target": op.target, "survivor": op.survivor}
            for op in w.ops
        ],
    }


def witness_from_json_dict(data: dict) -> MinorWitness:
    pat = data["pattern"]
    if pat["kind"] == "exact":
        pattern = MinorPattern.exact(graph_from_json_dict(pat["graph"]))
    else:
        pattern = MinorPattern.family(pat["kind"])
    ops = []
    for i, o in enumerate(data["ops"]):
        survivor = o.get("survivor")
        ops.append(MinorOp(o["op"], _int(o["target"], f"op {i} target"),
                           survivor if survivor is None else _int(survivor, f"op {i} survivor")))
    return MinorWitness(pattern, tuple(ops))


def certificate_to_json_dict(verdict: RealizabilityVerdict) -> dict:
    cert = verdict.certificate
    base = {
        "dimension": verdict.dimension_bound,
        "answer": "yes" if verdict.answer else "no",
    }
    if isinstance(cert, DecompositionTree):
        base["kind"] = "decomposition-tree"
        base["root"] = cert.to_json_dict()
    elif isinstance(cert, MinorWitness):
        base.update(witness_to_json_dict(cert))
    return base


def certificate_from_json_dict(data: dict) -> RealizabilityVerdict:
    """Read a certificate; a missing or ill-typed field raises CertificateError."""
    try:
        dim, answer = data["dimension"], data["answer"]
        if type(dim) is not int or dim not in (1, 2):
            raise CertificateError(f"certificate dimension must be 1 or 2, got {dim!r}")
        if answer not in ("yes", "no"):
            raise CertificateError(f'certificate answer must be "yes" or "no", got {answer!r}')
        kind = data.get("kind")
        if kind == "decomposition-tree":
            cert = DecompositionTree.from_json_dict(data["root"])
        elif kind == "minor-witness":
            cert = witness_from_json_dict(data)
        else:
            raise CertificateError(f"unknown certificate kind {kind!r}")
    except KeyError as exc:
        raise CertificateError(f"certificate misses field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CertificateError(f"certificate has an ill-typed field: {exc}") from None
    return RealizabilityVerdict(dim, answer == "yes", cert)
