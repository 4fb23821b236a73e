"""Line-oriented text documents for graphs and frameworks, plus JSON twins.

Graph document::

    gaingraph v1
    name optional free text
    vertices 3
    edge 1 2 0
    edge 3 1 +1

Edges are numbered e1, e2, ... in file order.  A framework document adds
a dimension, one position line per vertex, a lattice line, and optional
stress lines keyed by edge number or ``L`` for the lattice weight::

    framework v1
    dimension 2
    vertices 3
    edge 1 2 0
    position 1 4 0
    lattice 4 0
    stress e1 -1
    stress L -1

Lines starting with ``#`` and blank lines are ignored.  A document whose
first non-space character is ``{`` is parsed as the JSON equivalent.
Integers serialize exactly; reals use 17 significant digits, enough to
round-trip doubles.
"""

from __future__ import annotations

import contextlib
import json
import numbers
from dataclasses import dataclass, field

from .errors import DocumentError, SimplicityError
from .frameworks import QuotientFramework, StressVector
from .graphs import GainGraph

GRAPH_MAGIC = "gaingraph"
FRAMEWORK_MAGIC = "framework"
VERSION = "v1"


def _format_number(x) -> str:
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _parse_number(token: str, line: int):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise DocumentError(f"expected a number, got {token!r}", line=line) from None


def _parse_int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DocumentError(f"expected an integer {what}, got {token!r}", line=line) from None


@dataclass(frozen=True)
class GraphDocument:
    vertex_count: int
    edges: tuple  # of (tail, head, label)
    name: str | None = None
    version: str = VERSION
    edge_lines: tuple = field(default=(), compare=False)

    def to_graph(self) -> GainGraph:
        try:
            return GainGraph.of(self.vertex_count, self.edges)
        except SimplicityError as exc:
            raise DocumentError(self._describe_violations(exc)) from exc
        except Exception as exc:
            raise DocumentError(str(exc)) from exc

    def _describe_violations(self, exc: SimplicityError) -> str:
        parts = []
        for v in exc.violations:
            where = ""
            if self.edge_lines:
                lines = [self.edge_lines[i - 1] for i in v.edge_ids if i <= len(self.edge_lines)]
                where = f" (lines {', '.join(map(str, lines))})"
            parts.append(v.message + where)
        return "simplicity violation: " + "; ".join(parts)

    @classmethod
    def from_graph(cls, g: GainGraph, name: str | None = None) -> "GraphDocument":
        if g.vertices != tuple(range(1, g.n + 1)):
            mapping = {v: i for i, v in enumerate(g.vertices, start=1)}
            edges = tuple((mapping[e.tail], mapping[e.head], e.label) for e in g.edges)
        else:
            edges = tuple((e.tail, e.head, e.label) for e in g.edges)
        return cls(g.n, edges, name)


@dataclass(frozen=True)
class FrameworkDocument:
    graph: GraphDocument
    dimension: int
    positions: tuple  # of (vertex, coordinates tuple)
    lattice: tuple
    stress: tuple | None = None  # of (key, value); key is edge index or "L"

    def to_framework(self):
        g = self.graph.to_graph()
        pos = dict()
        for v, coords in self.positions:
            if v in pos:
                raise DocumentError(f"duplicate position for vertex {v}")
            if len(coords) != self.dimension:
                raise DocumentError(
                    f"position for vertex {v} has {len(coords)} coordinates, expected {self.dimension}"
                )
            pos[v] = [float(c) for c in coords]
        missing = [v for v in g.vertices if v not in pos]
        if missing:
            raise DocumentError(f"missing positions for vertices {missing}")
        extra = [v for v in pos if v not in set(g.vertices)]
        if extra:
            raise DocumentError(f"positions given for unknown vertices {extra}")
        if len(self.lattice) != self.dimension:
            raise DocumentError(
                f"lattice has {len(self.lattice)} coordinates, expected {self.dimension}"
            )
        if not any(float(c) != 0.0 for c in self.lattice):
            raise DocumentError("lattice vector must be nonzero")
        fw = QuotientFramework(g, pos, [float(c) for c in self.lattice])
        stress = None
        if self.stress is not None:
            stress = stress_from_items(g, self.stress)
        return fw, stress

    @classmethod
    def from_framework(
        cls,
        fw: QuotientFramework,
        stress: StressVector | None = None,
        name: str | None = None,
    ) -> "FrameworkDocument":
        gdoc = GraphDocument.from_graph(fw.graph, name)
        positions = tuple(
            (v, tuple(float(c) for c in fw.position(v))) for v in fw.graph.vertices
        )
        lattice = tuple(float(c) for c in fw.lattice)
        items = None
        if stress is not None:
            items = tuple(
                (i, stress.weights[e.id]) for i, e in enumerate(fw.graph.edges, start=1)
            ) + (("L", stress.lattice),)
        return cls(gdoc, fw.dim, positions, lattice, items)


def stress_from_items(g: GainGraph, items) -> StressVector:
    weights: dict = {}
    lattice = None
    for key, value in items:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            name = "L" if key == "L" else f"e{key}"
            raise DocumentError(f"stress entry {name} is not a number: {value!r}")
        if key == "L":
            if lattice is not None:
                raise DocumentError("duplicate lattice stress entry")
            lattice = value
        else:
            idx = int(key)
            if not 1 <= idx <= g.m:
                raise DocumentError(f"stress entry e{idx} is out of range")
            eid = g.edges[idx - 1].id
            if eid in weights:
                raise DocumentError(f"duplicate stress entry e{idx}")
            weights[eid] = value
    if lattice is None:
        raise DocumentError("stress record is missing the lattice entry (key L)")
    missing = [i for i, e in enumerate(g.edges, start=1) if e.id not in weights]
    if missing:
        raise DocumentError(f"stress record is missing entries for e{missing}")
    return StressVector(weights, lattice)


# -- text parsing -------------------------------------------------------------


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def document_kind(text: str):
    """The kind a document declares: the first word of a text document's
    header, or the ``kind`` field of a JSON one (None if there is none)."""
    if text.lstrip().startswith("{"):
        return _load_json(text).get("kind")
    return next((tokens[0] for _, tokens in _logical_lines(text)), None)


def parse_graph_document(text: str) -> GraphDocument:
    text_stripped = text.lstrip()
    if text_stripped.startswith("{"):
        return _graph_document_from_json(text)
    lines = list(_logical_lines(text))
    if not lines or lines[0][1][0] != GRAPH_MAGIC:
        raise DocumentError(f"expected a '{GRAPH_MAGIC} {VERSION}' header")
    return _parse_graph_lines(lines, expect=GRAPH_MAGIC)[0]


def _parse_graph_lines(lines, expect):
    lineno, header = lines[0]
    if header[0] != expect or len(header) != 2 or header[1] != VERSION:
        raise DocumentError(f"unsupported header {' '.join(header)!r}", line=lineno)
    name = None
    vertex_count = None
    edges = []
    edge_lines = []
    rest = []
    for lineno, tokens in lines[1:]:
        key = tokens[0]
        if key == "name":
            name = " ".join(tokens[1:]) or None
        elif key == "vertices":
            if len(tokens) != 2:
                raise DocumentError("vertices line takes one count", line=lineno)
            vertex_count = _parse_int(tokens[1], lineno, "vertex count")
        elif key == "edge":
            if len(tokens) != 4:
                raise DocumentError("edge line takes tail, head, label", line=lineno)
            t = _parse_int(tokens[1], lineno, "tail")
            h = _parse_int(tokens[2], lineno, "head")
            z = _parse_int(tokens[3], lineno, "label")
            edges.append((t, h, z))
            edge_lines.append(lineno)
        else:
            rest.append((lineno, tokens))
    if vertex_count is None:
        raise DocumentError("missing 'vertices' line")
    for t, h, _ in edges:
        if not (1 <= t <= vertex_count and 1 <= h <= vertex_count):
            raise DocumentError(f"edge ({t},{h}) uses vertices outside 1..{vertex_count}")
    doc = GraphDocument(vertex_count, tuple(edges), name, VERSION, tuple(edge_lines))
    return doc, rest


def parse_framework_document(text: str) -> FrameworkDocument:
    text_stripped = text.lstrip()
    if text_stripped.startswith("{"):
        return _framework_document_from_json(text)
    lines = list(_logical_lines(text))
    if not lines or lines[0][1][0] != FRAMEWORK_MAGIC:
        raise DocumentError(f"expected a '{FRAMEWORK_MAGIC} {VERSION}' header")
    gdoc, rest = _parse_graph_lines(lines, expect=FRAMEWORK_MAGIC)
    dimension = None
    positions = []
    lattice = None
    stress = []
    has_stress = False
    for lineno, tokens in rest:
        key = tokens[0]
        if key == "dimension":
            if len(tokens) != 2:
                raise DocumentError("dimension line takes one value", line=lineno)
            dimension = _parse_int(tokens[1], lineno, "dimension")
        elif key == "position":
            if len(tokens) < 3:
                raise DocumentError("position line takes a vertex and coordinates", line=lineno)
            v = _parse_int(tokens[1], lineno, "vertex")
            coords = tuple(_parse_number(t, lineno) for t in tokens[2:])
            positions.append((v, tuple(float(c) for c in coords)))
        elif key == "lattice":
            lattice = tuple(float(_parse_number(t, lineno)) for t in tokens[1:])
        elif key == "stress":
            has_stress = True
            if len(tokens) != 3:
                raise DocumentError("stress line takes a key and a value", line=lineno)
            key2 = tokens[1]
            if key2 == "L":
                stress.append(("L", _parse_number(tokens[2], lineno)))
            elif key2.startswith("e"):
                stress.append(
                    (_parse_int(key2[1:], lineno, "edge index"), _parse_number(tokens[2], lineno))
                )
            else:
                raise DocumentError(f"stress key must be e<k> or L, got {key2!r}", line=lineno)
        else:
            raise DocumentError(f"unknown directive {key!r}", line=lineno)
    if dimension is None:
        raise DocumentError("missing 'dimension' line")
    if lattice is None:
        raise DocumentError("missing 'lattice' line")
    return FrameworkDocument(
        gdoc, dimension, tuple(positions), lattice, tuple(stress) if has_stress else None
    )


# -- serialization ---------------------------------------------------------------


def serialize_graph_document(doc: GraphDocument, as_json: bool = False) -> str:
    if as_json:
        return json.dumps(_graph_document_to_json(doc), indent=2) + "\n"
    out = [f"{GRAPH_MAGIC} {doc.version}"]
    if doc.name:
        out.append(f"name {doc.name}")
    out.append(f"vertices {doc.vertex_count}")
    for t, h, z in doc.edges:
        out.append(f"edge {t} {h} {z}")
    return "\n".join(out) + "\n"


def serialize_framework_document(doc: FrameworkDocument, as_json: bool = False) -> str:
    if as_json:
        return json.dumps(_framework_document_to_json(doc), indent=2) + "\n"
    g = doc.graph
    out = [f"{FRAMEWORK_MAGIC} {g.version}"]
    if g.name:
        out.append(f"name {g.name}")
    out.append(f"dimension {doc.dimension}")
    out.append(f"vertices {g.vertex_count}")
    for t, h, z in g.edges:
        out.append(f"edge {t} {h} {z}")
    for v, coords in doc.positions:
        out.append("position " + str(v) + " " + " ".join(_format_number(c) for c in coords))
    out.append("lattice " + " ".join(_format_number(c) for c in doc.lattice))
    if doc.stress is not None:
        for key, value in doc.stress:
            label = "L" if key == "L" else f"e{key}"
            out.append(f"stress {label} {_format_number(value)}")
    return "\n".join(out) + "\n"


def parse_weights_document(text: str, g: GainGraph) -> StressVector:
    """A stress record on its own: 'stress e<k> <w>' lines plus 'stress L <w>'."""
    text_stripped = text.lstrip()
    items = []
    if text_stripped.startswith("{"):
        data = _load_json(text)
        with _json_fields("stress"):
            for key, value in data.get("stress", {}).items():
                items.append(("L" if key == "L" else int(key.lstrip("e")), value))
    else:
        for lineno, tokens in _logical_lines(text):
            if tokens[0] != "stress" or len(tokens) != 3:
                raise DocumentError("expected 'stress <e<k>|L> <value>' lines", line=lineno)
            key = tokens[1]
            if key == "L":
                items.append(("L", _parse_number(tokens[2], lineno)))
            else:
                items.append((_parse_int(key.lstrip("e"), lineno, "edge index"),
                              _parse_number(tokens[2], lineno)))
    return stress_from_items(g, items)


# -- JSON twins --------------------------------------------------------------------


def _load_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None


@contextlib.contextmanager
def _json_fields(kind: str):
    """A missing or ill-typed field of a JSON document raises DocumentError."""
    try:
        yield
    except KeyError as exc:
        raise DocumentError(f"{kind} document misses field {exc}", field=exc.args[0]) from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise DocumentError(f"{kind} document has an ill-typed field: {exc}") from None


def _graph_document_to_json(doc: GraphDocument) -> dict:
    out = {"kind": GRAPH_MAGIC, "version": doc.version, "vertices": doc.vertex_count,
           "edges": [list(e) for e in doc.edges]}
    if doc.name:
        out["name"] = doc.name
    return out


def _graph_document_from_json(text: str) -> GraphDocument:
    data = _load_json(text)
    if data.get("kind") != GRAPH_MAGIC:
        raise DocumentError(f"expected kind {GRAPH_MAGIC!r}")
    with _json_fields(GRAPH_MAGIC):
        edges = tuple(tuple(int(x) for x in e) for e in data.get("edges", []))
        return GraphDocument(int(data["vertices"]), edges, data.get("name"))


def _framework_document_to_json(doc: FrameworkDocument) -> dict:
    out = _graph_document_to_json(doc.graph)
    out["kind"] = FRAMEWORK_MAGIC
    out["dimension"] = doc.dimension
    out["positions"] = {str(v): list(coords) for v, coords in doc.positions}
    out["lattice"] = list(doc.lattice)
    if doc.stress is not None:
        out["stress"] = {
            ("L" if k == "L" else f"e{k}"): v for k, v in doc.stress
        }
    return out


def _framework_document_from_json(text: str) -> FrameworkDocument:
    data = _load_json(text)
    if data.get("kind") != FRAMEWORK_MAGIC:
        raise DocumentError(f"expected kind {FRAMEWORK_MAGIC!r}")
    with _json_fields(FRAMEWORK_MAGIC):
        edges = tuple(tuple(int(x) for x in e) for e in data.get("edges", []))
        gdoc = GraphDocument(int(data["vertices"]), edges, data.get("name"))
        positions = tuple(
            (int(v), tuple(float(c) for c in coords))
            for v, coords in sorted(data.get("positions", {}).items(), key=lambda kv: int(kv[0]))
        )
        lattice = tuple(float(c) for c in data["lattice"])
        stress = None
        if "stress" in data:
            stress = tuple(
                ("L" if k == "L" else int(k.lstrip("e")), v) for k, v in data["stress"].items()
            )
        return FrameworkDocument(gdoc, int(data["dimension"]), positions, lattice, stress)
