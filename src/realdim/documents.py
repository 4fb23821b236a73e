"""Line-oriented text documents for graphs and frameworks, plus JSON twins.

A graph document is a ``gaingraph v1`` header, an optional ``name`` line
of free text, a ``vertices`` count and ``edge tail head label`` lines,
numbered e1, e2, ... in file order.  A framework document adds a
dimension, one position line per vertex, a lattice line, and optional
stress lines keyed by edge number or ``L`` for the lattice weight::

    framework v1
    dimension 1
    vertices 2
    edge 1 2 0
    position 1 0
    position 2 1
    lattice 4
    stress e1 -1
    stress L -1

Lines starting with ``#`` and blank lines are ignored.  A document whose
first non-space character is ``{`` is parsed as the JSON equivalent.  A
text document is read line by line into that JSON twin, and one reader
checks the twin's fields for both forms: integers exact, reals finite,
stress keys ``e<k>`` or ``L``, and a ``version``, when given, ``v1``.
One writer renders a twin as JSON or as text.  Integers serialize
exactly; reals use 17 significant digits, enough to round-trip doubles.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DocumentError, SimplicityError
from .graphs import GainGraph

if TYPE_CHECKING:  # the numeric layer loads only when a framework is built
    from .frameworks import QuotientFramework, StressVector

GRAPH_MAGIC = "gaingraph"
FRAMEWORK_MAGIC = "framework"
VERSION = "v1"

_GRAPH_FIELDS = {"kind", "version", "name", "vertices", "edges"}
_FIELDS = {
    GRAPH_MAGIC: _GRAPH_FIELDS,
    FRAMEWORK_MAGIC: _GRAPH_FIELDS | {"dimension", "positions", "lattice", "stress"},
}

# text directive -> (twin field, fewest and most tokens after it, usage)
_DIRECTIVES = {
    "name": ("name", 0, None, "free text"),
    "dimension": ("dimension", 1, 1, "one value"),
    "vertices": ("vertices", 1, 1, "one count"),
    "edge": ("edges", 3, 3, "tail, head, label"),
    "position": ("positions", 2, None, "a vertex and coordinates"),
    "lattice": ("lattice", 0, None, "coordinates"),
    "stress": ("stress", 2, 2, "a key (e<k> or L) and a value"),
}
_DIRECTIVE_OF = {spec[0]: word for word, spec in _DIRECTIVES.items()}


class _GraphFields(NamedTuple):
    vertex_count: int
    edges: tuple  # of (tail, head, label)
    name: str | None = None


class GraphDocument(_GraphFields):
    """The tuple ``(vertex_count, edges, name)``.  A subclass of the
    NamedTuple, so that ``edge_lines``, the line of each edge in a text
    document, can be an attribute outside the tuple and out of equality:
    the reader sets it, and other documents and copies have none."""

    edge_lines: tuple = ()

    def to_graph(self) -> GainGraph:
        try:
            return GainGraph.of(self.vertex_count, self.edges)
        except SimplicityError as exc:
            lines = self.edge_lines
            parts = [v.message + (f" (lines {', '.join(str(lines[i - 1]) for i in v.edge_ids)})"
                                  if lines else "") for v in exc.violations]
            raise DocumentError("simplicity violation: " + "; ".join(parts)) from exc

    @classmethod
    def from_graph(cls, g: GainGraph) -> "GraphDocument":
        """The unnamed document of g on vertices 1..n, numbered in g.vertices order."""
        index = {v: i for i, v in enumerate(g.vertices, start=1)}
        return cls(g.n, tuple((index[e.tail], index[e.head], e.label) for e in g.edges))


class FrameworkDocument(NamedTuple):
    graph: GraphDocument
    dimension: int
    positions: tuple  # of (vertex, coordinates tuple)
    lattice: tuple
    stress: tuple | None = None  # of (key, value); key is edge index or "L"

    def to_framework(self):
        """The framework and its stress vector (or None), from a document the reader checked."""
        from .frameworks import QuotientFramework

        g = self.graph.to_graph()
        fw = QuotientFramework(g, dict(self.positions), self.lattice)
        return fw, None if self.stress is None else _stress_vector(g, self.stress)

    @classmethod
    def from_framework(cls, fw: QuotientFramework) -> "FrameworkDocument":
        """The unnamed, unstressed document of fw, its vertices numbered
        1..n as in from_graph."""
        g = fw.graph
        positions = tuple((i, tuple(map(float, fw.position(v))))
                          for i, v in enumerate(g.vertices, start=1))
        return cls(GraphDocument.from_graph(g), fw.dim, positions, tuple(map(float, fw.lattice)))


def _stress_vector(g: GainGraph, items) -> StressVector:
    """The stress vector of checked (k, weight) entries for each edge e<k> of g and ("L", weight)."""
    from .frameworks import StressVector

    weights = dict(items)
    return StressVector({e.id: weights[k] for k, e in enumerate(g.edges, start=1)}, weights["L"])


# -- text and JSON into one twin ------------------------------------------------------


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, tokens


def _number(token: str):
    """The JSON value a text token spells: an int, a float, or else the token."""
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            pass
    return token


def _twin(text: str):
    """A document's JSON twin, and the line number of each edge of a text
    document, whose first line may be a '<kind> v1' header."""
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text), []
        except (ValueError, RecursionError) as exc:
            raise DocumentError(f"invalid JSON: {exc}") from None
    data, edge_lines = {}, []
    for lineno, (word, *args) in _logical_lines(text):
        if word in _FIELDS and not data:
            if len(args) != 1:
                raise DocumentError(f"expected a '<kind> {VERSION}' header", line=lineno)
            data["kind"], data["version"] = word, args[0]
            continue
        if word not in _DIRECTIVES:
            raise DocumentError(f"unknown directive {word!r}", line=lineno)
        key, fewest, most, usage = _DIRECTIVES[word]
        if not fewest <= len(args) <= (most or len(args)):
            raise DocumentError(f"{word} line takes {usage}", line=lineno)
        values = [_number(t) for t in args]
        if word == "edge":
            data.setdefault(key, []).append(values)
            edge_lines.append(lineno)
            continue
        slot = data
        if word in ("position", "stress"):
            slot = data.setdefault(key, {})
            key, values = args[0], values[1] if word == "stress" else values[1:]
        elif word == "name":
            values = " ".join(args)
        elif most == 1:
            values = values[0]
        if key in slot:
            raise DocumentError(f"duplicate {word} {args[0] if slot is not data else 'line'}",
                                line=lineno)
        slot[key] = values
    return data, edge_lines


def _integer(x, what: str, line=None, least=None) -> int:
    if type(x) is not int or least is not None and x < least:
        bound = "" if least is None else f" of at least {least}"
        raise DocumentError(f"expected an integer {what}{bound}, got {x!r}", line=line)
    return x


def _floats(values, what: str, count: int) -> tuple:
    """A list of count finite reals (exact ints or finite floats, not bools) as floats."""
    if not isinstance(values, list) or len(values) != count:
        raise DocumentError(f"{what} must be a list of {count} numbers, got {values!r}")
    for x in values:
        if not (type(x) is int or type(x) is float and math.isfinite(x)):
            raise DocumentError(f"{what} must be a finite real, got {x!r}")
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise DocumentError(f"{what} is too large for a float") from None


def _stress_items(stress, m: int) -> tuple:
    """The entries of a stress record: (k, weight) for each of e1..e<m>, ("L", weight)."""
    if not isinstance(stress, dict):
        raise DocumentError(f"stress must map e<k> and L to weights, got {stress!r}")
    index = {**{f"e{k}": k for k in range(1, m + 1)}, "L": "L"}
    for key, value in stress.items():
        if key not in index:
            raise DocumentError(f"stress key must be e1..e{m} or L, got {key!r}")
        _floats([value], f"stress {key}", 1)  # a finite real that fits a float
    missing = [key for key in index if key not in stress]
    if missing:
        raise DocumentError(f"stress record misses entries {missing}")
    return tuple((index[key], value) for key, value in stress.items())


def _read(data: dict, edge_lines: list, kinds: tuple):
    """The GraphDocument or FrameworkDocument a twin describes, its fields
    checked; errors in a text document's edges name their lines."""
    kind = data.get("kind")
    if kind not in kinds:
        raise DocumentError(f"expected a '{kinds[0]} {VERSION}' document, got kind {kind!r}")
    if data.get("version", VERSION) != VERSION:
        raise DocumentError(f"unsupported version {data['version']!r}")
    unknown = set(data) - _FIELDS[kind]
    if unknown:
        raise DocumentError(f"{kind} document has unknown fields {sorted(unknown)}")
    missing = [f for f in ("vertices", "dimension", "lattice") if f in _FIELDS[kind] - set(data)]
    if missing:
        raise DocumentError(f"{kind} document misses field {missing[0]!r}", field=missing[0])
    n = _integer(data["vertices"], "vertex count", least=0)
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise DocumentError(f"edges must be a list of [tail, head, label], got {edges!r}")
    for i, edge in enumerate(edges):
        line = edge_lines[i] if edge_lines else None
        if not isinstance(edge, list) or len(edge) != 3:
            raise DocumentError(f"edge {i + 1} must be [tail, head, label], got {edge!r}",
                                line=line)
        t, h, _ = (_integer(x, what, line) for x, what in zip(edge, ("tail", "head", "label")))
        if not (1 <= t <= n and 1 <= h <= n):
            raise DocumentError(f"edge ({t},{h}) uses vertices outside 1..{n}", line=line)
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError(f"name must be text, got {name!r}")
    graph = GraphDocument(n, tuple(map(tuple, edges)), " ".join((name or "").split()) or None)
    graph.edge_lines = tuple(edge_lines)
    if kind == GRAPH_MAGIC:
        return graph
    d = _integer(data["dimension"], "dimension", least=1)
    positions = data.get("positions", {})
    if not isinstance(positions, dict):
        raise DocumentError(f"positions must map vertices to coordinates, got {positions!r}")
    pos: dict = {}
    for key, coords in positions.items():
        v = _integer(_number(key), "vertex")
        if v in pos or not 1 <= v <= n:
            raise DocumentError(f"position of vertex {v} repeats or is outside 1..{n}")
        pos[v] = _floats(coords, f"position of vertex {v}", d)
    if len(pos) < n:
        missing = [v for v in range(1, n + 1) if v not in pos]
        raise DocumentError(f"missing positions for vertices {missing}")
    lattice = _floats(data["lattice"], "lattice", d)
    if not any(lattice):
        raise DocumentError("lattice vector must be nonzero")
    stress = _stress_items(data["stress"], len(edges)) if "stress" in data else None
    return FrameworkDocument(graph, d, tuple(sorted(pos.items())), lattice, stress)


def parse_document(text: str) -> GraphDocument | FrameworkDocument:
    """A graph or a framework document, as its kind says."""
    return _read(*_twin(text), (GRAPH_MAGIC, FRAMEWORK_MAGIC))


def parse_graph_document(text: str) -> GraphDocument:
    """A graph document, or the graph part of a framework document (whose
    other fields are checked all the same)."""
    doc = parse_document(text)
    return doc.graph if isinstance(doc, FrameworkDocument) else doc


def parse_framework_document(text: str) -> FrameworkDocument:
    return _read(*_twin(text), (FRAMEWORK_MAGIC,))


def parse_weights_document(text: str, g: GainGraph) -> StressVector:
    """A stress record on its own: 'stress e<k> <w>' lines plus 'stress L <w>',
    or a JSON object whose one field ``stress`` maps the same keys to weights."""
    data, _ = _twin(text)
    if set(data) != {"stress"}:
        raise DocumentError(f"a weights document has the one field stress, got {sorted(data)}")
    return _stress_vector(g, _stress_items(data["stress"], g.m))


# -- one writer -----------------------------------------------------------------------


def _format_number(x) -> str:
    return str(x) if isinstance(x, (int, str)) else format(float(x), ".17g")


def _render(doc, as_json: bool) -> str:
    """A document's JSON twin as JSON, or as text: a line per field of the
    twin, and per edge, position and stress entry."""
    fw = doc if isinstance(doc, FrameworkDocument) else None
    g = fw.graph if fw else doc
    twin = {"kind": FRAMEWORK_MAGIC if fw else GRAPH_MAGIC, "version": VERSION,
            "name": g.name or None, "dimension": fw and fw.dimension,
            "vertices": g.vertex_count, "edges": [list(e) for e in g.edges]}
    if fw:
        twin["positions"] = {str(v): list(coords) for v, coords in fw.positions}
        twin["lattice"] = list(fw.lattice)
        if fw.stress is not None:
            twin["stress"] = {("L" if k == "L" else f"e{k}"): w for k, w in fw.stress}
    twin = {key: value for key, value in twin.items() if value is not None}
    if as_json:
        return json.dumps(twin, indent=2) + "\n"
    out = [f"{twin.pop('kind')} {twin.pop('version')}"]
    for key, value in twin.items():
        if key == "edges":
            rows = value
        elif isinstance(value, dict):
            rows = [[k, *(w if isinstance(w, list) else [w])] for k, w in value.items()]
        else:
            rows = [value if isinstance(value, list) else [value]]
        out += [" ".join([_DIRECTIVE_OF[key], *map(_format_number, row)]) for row in rows]
    return "\n".join(out) + "\n"


def serialize_graph_document(doc: GraphDocument, as_json: bool = False) -> str:
    return _render(doc, as_json)


def serialize_framework_document(doc: FrameworkDocument, as_json: bool = False) -> str:
    return _render(doc, as_json)
