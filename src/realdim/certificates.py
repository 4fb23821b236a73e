"""Certificates for realizability verdicts, and their verification.

A *yes* answer is certified by a decomposition tree: leaves are small
labelled graphs, internal nodes glue children by disjoint union, one-sum
(a single shared vertex), or balanced two-sum (a single shared edge, one
summand balanced).  Replaying the tree bottom-up builds a supergraph of
the input on the same vertex set, up to a switching; gluing of these
kinds never raises realizable dimension beyond the leaves'.  Every node
kind glues through :func:`realdim.graphs.union` once its shape is checked.

A *no* answer is certified, at any size, by a minor witness that replays
against the input (see :mod:`realdim.minors`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import RealdimError
from .graphs import GainEdge, GainGraph, union
from .minors import MinorOp, MinorPattern, MinorWitness

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
        if self.kind == LEAF:
            yield self
        else:
            for c in self.children:
                yield from c.leaves()

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
        """Build the glued graph bottom-up, checking each node's shape.

        Children are glued by :func:`realdim.graphs.union`.  They may carry
        the shared part under different edge ids; edges describing the same
        orbit collapse to one.  An id shared by two children must name the
        same orbit in both.
        """
        if self.kind == LEAF:
            if self.graph is None:
                raise CertificateError("leaf without a graph")
            return self.graph
        replays = [c.replay() for c in self.children]
        if self.kind == DISJOINT_UNION:
            if len(replays) < 2:
                raise CertificateError("disjoint union needs at least two children")
            seen: set = set()
            for r in replays:
                if seen & set(r.vertices):
                    raise CertificateError("disjoint union children share vertices")
                seen |= set(r.vertices)
        else:
            self._check_sum(replays)
        out = replays[0]
        try:
            for r in replays[1:]:
                out = union(out, r)
        except RealdimError as exc:
            raise CertificateError(f"glued parts disagree: {exc}") from None
        return out

    def _check_sum(self, replays):
        if len(replays) != 2:
            raise CertificateError(f"{self.kind} needs exactly two children")
        a, b = replays
        shared_vs = set(a.vertices) & set(b.vertices)
        if self.kind == ONE_SUM:
            if shared_vs != {self.shared_vertex}:
                raise CertificateError(
                    f"one-sum must share exactly vertex {self.shared_vertex}, got {sorted(shared_vs)}"
                )
            return
        if self.kind != BALANCED_TWO_SUM:
            raise CertificateError(f"unknown node kind {self.kind!r}")
        x, y = self.shared_pair
        if shared_vs != {x, y}:
            raise CertificateError(
                f"two-sum must share exactly {self.shared_pair}, got {sorted(shared_vs)}"
            )
        common = {f.gain_from(x) for f in a.edges_between(x, y)} & {
            f.gain_from(x) for f in b.edges_between(x, y)
        }
        if len(common) != 1:
            raise CertificateError(
                "two-sum sides must share exactly one edge between the shared pair"
            )
        for v in (x, y):
            la = {abs(e.label) for e in a.loops_at(v)}
            lb = {abs(e.label) for e in b.loops_at(v)}
            if la & lb:
                raise CertificateError("two-sum sides share a selfloop")
        if self.zero_child not in (0, 1):
            raise CertificateError("two-sum must name its balanced summand")
        if not replays[self.zero_child].is_balanced():
            raise CertificateError("the designated two-sum summand is not balanced")

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
        children = tuple(cls.from_json_dict(c) for c in data.get("children", ()))
        if kind == DISJOINT_UNION:
            return cls(DISJOINT_UNION, children=children)
        if kind == ONE_SUM:
            return cls(ONE_SUM, children=children, shared_vertex=data["shared_vertex"])
        if kind == BALANCED_TWO_SUM:
            return cls(
                BALANCED_TWO_SUM,
                children=children,
                shared_pair=tuple(data["shared_pair"]),
                zero_child=data.get("zero_child"),
            )
        raise CertificateError(f"unknown node kind {kind!r}")


def graph_to_json_dict(g: GainGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "label": e.label}
            for e in g.edges
        ],
    }


def graph_from_json_dict(data: dict) -> GainGraph:
    edges = [
        GainEdge(e["id"], e["tail"], e["head"], e["label"]) for e in data["edges"]
    ]
    return GainGraph(data["vertices"], edges)


# -- leaf families ----------------------------------------------------------------


def _is_k2_zero_like(g: GainGraph) -> bool:
    return g.n == 2 and g.m == 1 and not g.edges[0].is_loop


def _is_k3_zero_like(g: GainGraph) -> bool:
    return (
        g.n == 3
        and g.m == 3
        and not any(e.is_loop for e in g.edges)
        and g.underlying_simple_graph().is_complete()
        and g.is_balanced()
    )


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
        """Replay the certificate against the graph it was issued for."""
        cert = self.certificate
        if isinstance(cert, DecompositionTree):
            verify_decomposition(cert, original, self.dimension_bound)
            return True
        if isinstance(cert, MinorWitness):
            if not cert.verify(original):
                raise CertificateError("minor witness failed to replay")
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
        target, survivor = o["target"], o.get("survivor")
        # an exact type check, since a bool is no id
        if type(target) is not int or survivor is not None and type(survivor) is not int:
            raise CertificateError(f"certificate op {i} needs an integer target and an "
                                   f"integer or null survivor, got {target!r}, {survivor!r}")
        ops.append(MinorOp(o["op"], target, survivor))
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
        answer = data.get("answer") == "yes"
        dim = data["dimension"]
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
    return RealizabilityVerdict(dim, answer, cert)
