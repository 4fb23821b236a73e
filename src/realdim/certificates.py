"""Certificates for realizability verdicts, and their verification.

A *yes* answer is certified by a decomposition tree, held as one table of
rows in post-order.  A leaf row is a small labelled graph: its vertices
and its edges as ``(id, tail, head, label)`` tuples.  A node row glues the
subtrees that end just before it, as many as its child count, by
disjoint union, one-sum (a single shared vertex) or balanced two-sum (a
single shared edge, one summand balanced).  Two rows glue onto the
subtree just before them: a pendant row ``(id, tail, head, label)``, a
bridge or selfloop, stands for that one-edge leaf one-summed onto it, and
a series row ``(w, a, b, ga, gb)``, one step of the plane decider, for the
balanced triangle w-a (gain ga read from w), w-b (gb), a-b (gb - ga)
two-summed along a-b onto it.  Gluing the rows in order on a stack of
finished subtrees gives a supergraph of the input, in the input's own
frame, on the same vertex set; gluing of these kinds never raises
realizable dimension beyond the leaves' (for a one-sum, Belk and
Connelly, 2007).  Verifying a table is one pass over its rows that keys
each leaf and pendant edge once, checks the leaves' family, the nodes'
shapes and the pendant and series rows' integers, and builds no
graph; ``DecompositionTree.replay`` builds the glued graph from it.
Nothing recurses on a table, and its JSON is one list of flat rows, so a
tree of any depth is written, read and verified in linear time.

A *no* answer is certified, at any size, by a minor witness that replays
against the input to a minor forbidden for the dimension (see
:mod:`realdim.minors`); it deletes a vertex together with its edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import RealdimError
from .graphs import OP_KINDS, GainEdge, GainGraph, orbit_key
from .minors import FORBIDDEN_D1, FORBIDDEN_D2, MinorOp, MinorPattern, MinorWitness

LEAF = "leaf"
DISJOINT_UNION = "disjoint_union"
ONE_SUM = "one_sum"
BALANCED_TWO_SUM = "balanced_two_sum"
SERIES = "series"
PENDANT = "pendant"


class CertificateError(RealdimError):
    """A certificate failed structural validation or replay."""


class Row(NamedTuple):
    """One row of a decomposition table: a leaf, or a node gluing the
    ``children`` subtrees that end just before it."""

    kind: str
    vertices: tuple = ()  # a leaf's
    edges: tuple = ()  # a leaf's, or a pendant row's one, as (id, tail, head, label) tuples
    children: int = 0
    shared_vertex: int | None = None
    shared_pair: tuple | None = None
    zero_child: int | None = None  # index of the balanced summand of a two-sum
    step: tuple = ()  # a series row's (w, a, b, gain w->a, gain w->b)

    @classmethod
    def leaf(cls, vertices, edges) -> "Row":
        """A leaf on the given vertices and GainEdges."""
        return cls(LEAF, tuple(sorted(vertices)),
                   tuple((e.id, e.tail, e.head, e.label) for e in edges))

    @classmethod
    def one_sum(cls, shared_vertex: int) -> "Row":
        return cls(ONE_SUM, children=2, shared_vertex=shared_vertex)

    @classmethod
    def two_sum(cls, shared_pair, zero_child: int) -> "Row":
        return cls(BALANCED_TWO_SUM, children=2, shared_pair=tuple(sorted(shared_pair)),
                   zero_child=zero_child)

    @classmethod
    def series(cls, w: int, a: int, b: int, ga: int, gb: int) -> "Row":
        return cls(SERIES, children=1, step=(w, a, b, ga, gb))

    @classmethod
    def pendant(cls, e: GainEdge) -> "Row":
        return cls(PENDANT, edges=((e.id, e.tail, e.head, e.label),), children=1)


@dataclass(frozen=True)
class DecompositionTree:
    """A yes-certificate: its rows in post-order, the root last."""

    rows: tuple

    def switched(self, potentials) -> "DecompositionTree":
        """Apply a switching to every leaf and pendant edge and series step;
        selfloops keep their labels."""

        def gain(t, h, z):
            return z if t == h else z + potentials.get(t, 0) - potentials.get(h, 0)

        def move(row):
            if row.kind == SERIES:
                w, a, b, ga, gb = row.step
                return row._replace(step=(w, a, b, gain(w, a, ga), gain(w, b, gb)))
            if not row.edges:
                return row
            return row._replace(edges=tuple((i, t, h, gain(t, h, z)) for i, t, h, z in row.edges))

        return DecompositionTree(tuple(map(move, self.rows)))

    def replay(self) -> GainGraph:
        """The glued graph: the vertices and the first edge of each orbit of
        one pass over the rows (see :func:`verify_decomposition`).  A series
        row's new edge numbered j (see :func:`_fold`) takes the id top + 1 + j
        above every leaf and pendant edge id, and runs from the lesser end of
        its orbit."""
        top = max((e[0] for row in self.rows for e in row.edges), default=0)
        vertices, first = _fold(self.rows)
        edges = (GainEdge(*e) if type(e) is tuple else GainEdge(top + 1 + e, *key)
                 for key, e in first.items())
        return GainGraph(vertices, edges)

    # -- serialization -----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        rows = []
        for row in self.rows:
            if row.kind == LEAF:
                rows.append({"node": LEAF, "vertices": list(row.vertices),
                             "edges": [list(e) for e in row.edges]})
                continue
            if row.kind == SERIES:
                rows.append({"node": SERIES, "step": list(row.step)})
                continue
            if row.kind == PENDANT:
                rows.append({"node": PENDANT, "edge": list(row.edges[0])})
                continue
            out = {"node": row.kind, "children": row.children}
            if row.kind == ONE_SUM:
                out["shared_vertex"] = row.shared_vertex
            elif row.kind == BALANCED_TWO_SUM:
                out["shared_pair"] = list(row.shared_pair)
                out["zero_child"] = row.zero_child
            rows.append(out)
        return {"rows": rows}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DecompositionTree":
        """Read a table in one loop over its rows; an error names the row."""
        if "node" in data:
            raise CertificateError("certificate is a nested tree of format 1, which is no longer "
                                   "read: regenerate it from the graph with "
                                   "'realdim classify --cert-out'")
        rows = data["rows"]
        if type(rows) is not list or not rows:
            raise CertificateError(f"certificate rows must be a non-empty list, got {rows!r}")
        table = []
        for i, row in enumerate(rows):
            try:
                table.append(_row_from_json(row))
            except KeyError as exc:
                raise CertificateError(f"certificate row {i} misses field {exc}") from None
            except (AttributeError, TypeError, ValueError, CertificateError) as exc:
                raise CertificateError(f"certificate row {i}: {exc}") from None
        return cls(tuple(table))


def _fold(rows, dimension: int | None = None) -> tuple:
    """The glued vertex set and ``{orbit key: first edge}`` of one pass over
    the rows, checking each node's shape and, given a dimension, each
    leaf's family.  A finished subtree is kept on a stack as its vertex
    set, its orbit-key gains by vertex pair (loops under ``(v, v)``) and a
    balanced flag; a pendant or series row updates the top one in place.
    An edge id names one orbit across the whole table, and the edges of one
    orbit collapse to the first, or to the number 2i (w-a) or 2i + 1 (w-b)
    of the series row i that adds it.  An error names the row."""
    ids: dict = {}  # edge id -> orbit key
    first: dict = {}  # orbit key -> first edge
    done: list = []  # records of finished subtrees
    for i, row in enumerate(rows):
        try:
            if row.kind == LEAF:
                done.append(_leaf_record(row, ids, first, dimension))
                continue
            if row.kind in (PENDANT, SERIES) and not done:
                raise CertificateError(f"{row.kind} row has no finished subtree")
            if row.kind == PENDANT:
                done[-1] = _pendant(row.edges[0], done[-1], ids, first)
                continue
            if row.kind == SERIES:
                _series(i, row.step, done[-1], first, dimension)
                continue
            k = row.children
            if not 0 < k <= len(done):
                raise CertificateError(f"{row.kind} glues {k} subtrees, "
                                       f"{len(done)} are finished")
            parts = done[-k:]
            del done[-k:]
            done.append(_glue(row, parts))
        except CertificateError as exc:
            raise CertificateError(f"row {i}: {exc}") from None
    if len(done) != 1:
        raise CertificateError(f"the rows leave {len(done)} trees, not one")
    return done[0][0], first


def _leaf_record(row: Row, ids: dict, first: dict, dimension: int | None) -> tuple:
    """A leaf's vertex set, orbit-key gains by pair and balanced flag, each
    edge keyed once; given a dimension, the leaf must be in its family."""
    vertices = set(row.vertices)
    pairs: dict = {}
    for e in row.edges:
        eid, tail, head, label = e
        if tail not in vertices or head not in vertices:
            raise CertificateError(f"edge {eid} has an end outside its leaf")
        if tail == head and label == 0:
            raise CertificateError(f"edge {eid} is a selfloop with label 0")
        a, b, z = key = orbit_key(tail, head, label)
        if ids.setdefault(eid, key) != key:
            raise CertificateError(f"edge {eid} names two orbits in the tree")
        first.setdefault(key, e)
        pairs.setdefault((a, b), set()).add(z)
    if dimension is None:
        return vertices, pairs, _balanced(vertices, pairs)
    # d=1 allows single vertices and single edges, d=2 leaves on at most
    # two vertices and balanced triangles: no larger leaf needs a balance check.
    n, edges = len(row.vertices), row.edges
    balanced = n <= 3 and _balanced(vertices, pairs)
    if dimension == 1:
        fits = n == 1 or n == 2 and len(edges) == 1 and edges[0][1] != edges[0][2]
    elif dimension == 2:
        fits = n <= 2 or n == 3 and len(edges) == 3 and len(pairs) == 3 and balanced
    else:
        raise RealdimError("leaf families are defined for dimensions 1 and 2")
    if not fits:
        raise CertificateError(f"leaf outside the dimension-{dimension} family: "
                               f"vertices {list(row.vertices)}, edges {list(edges)}")
    return vertices, pairs, balanced


def _pendant(e: tuple, record: tuple, ids: dict, first: dict) -> tuple:
    """One-sum a one-edge leaf, which is in both families, onto the record of
    the subtree before it, in place: a selfloop of nonzero label at one of
    its vertices, which unbalances it, or an edge with exactly one end in it."""
    eid, tail, head, label = e
    vertices, pairs, balanced = record
    if tail == head and (label == 0 or tail not in vertices):
        raise CertificateError(f"edge {eid} is a selfloop with label 0" if label == 0 else
                               f"pendant selfloop {eid} is at vertex {tail}, outside the "
                               f"subtree before it")
    if tail != head and (tail in vertices) == (head in vertices):
        ends = "both ends" if tail in vertices else "no end"
        raise CertificateError(f"pendant edge {eid} has {ends} in the subtree before it")
    a, b, z = key = orbit_key(tail, head, label)
    if ids.setdefault(eid, key) != key:
        raise CertificateError(f"edge {eid} names two orbits in the tree")
    first.setdefault(key, e)
    vertices.update((tail, head))
    pairs.setdefault((a, b), set()).add(z)
    return vertices, pairs, balanced and tail != head


def _series(i: int, step: tuple, record: tuple, first: dict, dimension: int | None) -> None:
    """Glue a series step onto the record of the subtree before it, in place,
    with the checks of its triangle leaf (balanced by construction) and its
    two-sum, whose sides share the one a-b orbit of gain gb - ga."""
    if dimension == 1:
        raise CertificateError("a series row's triangle is outside the dimension-1 family")
    w, a, b, ga, gb = step
    vertices, pairs, _ = record
    if w == a or w == b or a == b:
        raise CertificateError(f"series step {list(step)} repeats a vertex")
    for v in (a, b):
        if v not in vertices:
            raise CertificateError(f"series vertex {v} is not in the subtree before it")
    if w in vertices:
        raise CertificateError(f"series vertex {w} is already in the subtree before it")
    p, q, z = orbit_key(a, b, gb - ga)
    if z not in pairs.get((p, q), ()):
        raise CertificateError(f"the subtree before it has no {a}-{b} edge of gain {gb - ga}")
    vertices.add(w)
    for v, gain, number in ((a, ga, 2 * i), (b, gb, 2 * i + 1)):
        p, q, z = key = orbit_key(w, v, gain)
        pairs[p, q] = {z}
        first.setdefault(key, number)


def _balanced(vertices: set, pairs: dict) -> bool:
    """Whether every cycle of a leaf has gain 0, read off its orbit keys: one
    gain per pair, no selfloop, and on three vertices a triangle of gain 0.
    A leaf on more vertices is in no family, and is checked as a graph."""
    if len(vertices) > 3:
        keys = [pair + (z,) for pair, zs in pairs.items() for z in zs]
        return GainGraph(vertices, [GainEdge(i, *k) for i, k in enumerate(keys)]).is_balanced()
    for (a, b), zs in pairs.items():
        if a == b or len(zs) > 1:
            return False
    if len(pairs) < 3:
        return True
    (ab,), (ac,), (bc,) = (pairs[p] for p in sorted(pairs))
    return ab + bc - ac == 0


def _glue(row: Row, parts: list) -> tuple:
    """Check a node's shape on its children's records, then merge them into
    the largest.  One- and two-sums of balanced graphs that pass these
    checks are balanced, so the flag is the AND of the children's."""
    kind = row.kind
    if kind == DISJOINT_UNION:
        if len(parts) < 2:
            raise CertificateError("disjoint union needs at least two children")
    elif kind not in (ONE_SUM, BALANCED_TWO_SUM):
        raise CertificateError(f"unknown node kind {kind!r}")
    elif len(parts) != 2:
        raise CertificateError(f"{kind} needs exactly two children")
    else:
        (va, pa, _), (vb, pb, _) = parts
        want = {row.shared_vertex} if kind == ONE_SUM else set(row.shared_pair)
        if va & vb != want:
            raise CertificateError(
                f"{kind} must share exactly {sorted(want)}, got {sorted(va & vb)}")
    if kind == BALANCED_TWO_SUM:
        x, y = sorted(row.shared_pair)
        if len(pa.get((x, y), set()) & pb.get((x, y), set())) != 1:
            raise CertificateError(
                "two-sum sides must share exactly one edge between the shared pair")
        if any(pa.get((v, v), set()) & pb.get((v, v), set()) for v in (x, y)):
            raise CertificateError("two-sum sides share a selfloop")
        if row.zero_child not in (0, 1):
            raise CertificateError("two-sum must name its balanced summand")
        if not parts[row.zero_child][2]:
            raise CertificateError("the designated two-sum summand is not balanced")
    parts.sort(key=lambda r: len(r[0]) + len(r[1]), reverse=True)
    vertices, pairs, balanced = parts[0]
    for vs, ps, flag in parts[1:]:
        if kind == DISJOINT_UNION and not vertices.isdisjoint(vs):
            raise CertificateError("disjoint union children share vertices")
        vertices |= vs
        for pair, zs in ps.items():
            pairs.setdefault(pair, set()).update(zs)
        balanced = balanced and flag
    return vertices, pairs, balanced


def _row_from_json(data: dict) -> Row:
    kind = data["node"]
    if kind == LEAF:
        return Row(LEAF, _vertices(data["vertices"], "vertex"), tuple(map(_edge, data["edges"])))
    if kind == PENDANT:
        return Row(PENDANT, edges=(_edge(data["edge"]),), children=1)
    if kind == SERIES:
        step = data["step"]
        if type(step) is not list or len(step) != 5 or {*map(type, step)} != {int}:
            raise CertificateError(f"a series step must be five integers [w, a, b, ga, gb], "
                                   f"got {step!r}")
        return Row.series(*step)
    children = _int(data["children"], "children")
    if kind == DISJOINT_UNION:
        return Row(kind, children=children)
    if kind == ONE_SUM:
        return Row(kind, children=children,
                   shared_vertex=_int(data["shared_vertex"], "shared_vertex"))
    if kind != BALANCED_TWO_SUM:
        raise CertificateError(f"unknown node kind {kind!r}")
    pair = data["shared_pair"]
    if type(pair) is not list or len(pair) != 2 or pair[0] == pair[1]:
        raise CertificateError(f"shared_pair must be two distinct integers, got {pair!r}")
    zero_child = data.get("zero_child")
    if type(zero_child) is not int or zero_child not in (0, 1):
        raise CertificateError(f"zero_child must be 0 or 1, got {zero_child!r}")
    return Row(kind, children=children, shared_pair=tuple(_int(v, "shared_pair") for v in pair),
               zero_child=zero_child)


def _edge(e) -> tuple:
    if type(e) is not list or len(e) != 4 or not (
            type(e[0]) is type(e[1]) is type(e[2]) is type(e[3]) is int):
        raise CertificateError(f"an edge must be four integers [id, tail, head, label], "
                               f"got {e!r}")
    return tuple(e)


def _vertices(values, what: str) -> tuple:
    """Sorted integer vertices; a repeated one raises CertificateError."""
    vs = sorted(_int(v, what) for v in values)
    if len(set(vs)) < len(vs):
        raise CertificateError(f"{what} list {values!r} repeats a vertex")
    return tuple(vs)


def _int(value, what: str) -> int:
    # an exact type check, since a bool is no integer here
    if type(value) is not int:
        raise CertificateError(f"{what} must be an integer, got {value!r}")
    return value


def graph_to_json_dict(g: GainGraph) -> dict:
    return {"vertices": list(g.vertices),
            "edges": [{"id": e.id, "tail": e.tail, "head": e.head, "label": e.label}
                      for e in g.edges]}


def graph_from_json_dict(data: dict) -> GainGraph:
    fields = ("id", "tail", "head", "label")
    edges = [GainEdge(*(_int(e[k], f"certificate edge {k}") for k in fields))
             for e in data["edges"]]
    return GainGraph(_vertices(data["vertices"], "certificate pattern vertex"), edges)


# -- checking a decomposition tree ------------------------------------------------


def covering_switch(original: GainGraph, first: dict):
    """The identity switching ``{}`` when the original, in its own frame, is
    covered by a replay whose first edge by orbit key is ``first``: every
    orbit key of the original (a loop's is ``(v, v, |label|)``) is among
    the replay's.  Else None."""
    return {} if all(orbit_key(e.tail, e.head, e.label) in first for e in original.edges) else None


def verify_decomposition(tree: DecompositionTree, original: GainGraph, dimension: int) -> None:
    """Full check of a yes-certificate in its input's frame, in one pass over
    its rows that builds no graph; raises CertificateError on failure."""
    vertices, first = _fold(tree.rows, dimension)
    if vertices != set(original.vertices):
        raise CertificateError("replayed graph is not on the same vertex set as the input")
    if covering_switch(original, first) is None:
        eid = next(e.id for e in original.edges if e.orbit_key() not in first)
        raise CertificateError(f"input edge {eid} has no orbit in the replay (a certificate "
                               f"is checked in its input's frame)")


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
            try:
                final = cert.replay(original)
            except RealdimError as exc:
                raise CertificateError(f"minor witness failed to replay: {exc}") from None
            if not cert.pattern.matches(final):
                raise CertificateError(f"minor witness replays to a graph that is not "
                                       f"{cert.pattern.describe()}")
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
        if o["op"] not in OP_KINDS:
            raise CertificateError(f"certificate op {i} has unknown kind {o['op']!r}")
        survivor = o.get("survivor")
        ops.append(MinorOp(o["op"], _int(o["target"], f"certificate op {i} target"),
                           survivor if survivor is None
                           else _int(survivor, f"certificate op {i} survivor")))
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
