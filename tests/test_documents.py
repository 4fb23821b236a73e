import pytest

from realdim.documents import (
    FrameworkDocument,
    GraphDocument,
    parse_document,
    parse_framework_document,
    parse_graph_document,
    parse_weights_document,
    serialize_framework_document,
    serialize_graph_document,
)
from realdim.errors import DocumentError
from test_frameworks import ladder_framework, ladder_stress
from test_graphs import ladder_graph

LADDER_TEXT = """\
framework v1
name worked-example
dimension 2
vertices 3
edge 1 2 0
edge 3 1 0
edge 3 1 1
edge 3 2 0
edge 3 2 1
position 1 4 0
position 2 4 2
position 3 6 1
lattice 4 0
stress e1 -1
stress e2 1
stress e3 1
stress e4 1
stress e5 1
stress L -1
"""


def test_graph_document_roundtrip_text():
    doc = GraphDocument.from_graph(ladder_graph())._replace(name="ladder")
    text = serialize_graph_document(doc)
    back = parse_graph_document(text)
    assert back == doc
    assert back.to_graph() == ladder_graph()


def test_graph_document_roundtrip_json():
    doc = GraphDocument.from_graph(ladder_graph())
    text = serialize_graph_document(doc, as_json=True)
    assert parse_graph_document(text) == doc


def test_framework_document_roundtrip_both_ways():
    doc = FrameworkDocument.from_framework(ladder_framework())
    stress = ladder_stress()
    doc = doc._replace(graph=doc.graph._replace(name="worked-example"),
                       stress=(*stress.weights.items(), ("L", stress.lattice)))
    for as_json in (False, True):
        text = serialize_framework_document(doc, as_json=as_json)
        back = parse_framework_document(text)
        assert back == doc


def test_parse_ladder_text():
    doc = parse_framework_document(LADDER_TEXT)
    fw, stress = doc.to_framework()
    assert fw.dim == 2 and fw.n == 3
    assert stress is not None
    assert stress.as_list(fw.graph) == [-1, 1, 1, 1, 1, -1]


def test_duplicate_edges_error_names_lines():
    text = "gaingraph v1\nvertices 2\nedge 1 2 0\nedge 1 2 0\n"
    doc = parse_graph_document(text)
    with pytest.raises(DocumentError) as err:
        doc.to_graph()
    assert "lines 3, 4" in str(err.value)


def test_copies_of_a_graph_document_have_no_edge_lines():
    doc = parse_graph_document("gaingraph v1\nvertices 2\nedge 1 1 0\n")
    for copy in (doc._replace(name="y"), GraphDocument._make(doc)):
        with pytest.raises(DocumentError, match="selfloop 1 at 1 has label 0$"):
            copy.to_graph()


def test_zero_lattice_rejected():
    text = LADDER_TEXT.replace("lattice 4 0", "lattice 0 0")
    with pytest.raises(DocumentError) as err:
        parse_framework_document(text).to_framework()
    assert "nonzero" in str(err.value)


def test_malformed_lines_carry_position():
    with pytest.raises(DocumentError) as err:
        parse_graph_document("gaingraph v1\nvertices 2\nedge 1 two 0\n")
    assert "line 3" in str(err.value)


def test_missing_header():
    with pytest.raises(DocumentError):
        parse_graph_document("vertices 2\n")


def test_unknown_directive_rejected():
    with pytest.raises(DocumentError):
        parse_framework_document(
            "framework v1\ndimension 1\nvertices 1\nlattice 1\nwibble 3\n"
        )


def test_weights_document():
    g = ladder_graph()
    text = "stress e1 -1\nstress e2 1\nstress e3 1\nstress e4 1\nstress e5 1\nstress L -1\n"
    sv = parse_weights_document(text, g)
    assert sv.as_list(g) == [-1, 1, 1, 1, 1, -1]
    with pytest.raises(DocumentError):
        parse_weights_document("stress e1 -1\n", g)  # missing entries


def test_position_coordinate_precision():
    import numpy as np

    from realdim.frameworks import QuotientFramework

    fw = ladder_framework()
    skewed = QuotientFramework(fw.graph, fw.positions + 1 / 3, fw.lattice * (1 / 7))
    text = serialize_framework_document(FrameworkDocument.from_framework(skewed))
    back, _ = parse_framework_document(text).to_framework()
    assert np.array_equal(back.positions, skewed.positions)
    assert np.array_equal(back.lattice, skewed.lattice)


def test_out_of_range_edge_vertices():
    with pytest.raises(DocumentError):
        parse_graph_document("gaingraph v1\nvertices 2\nedge 1 3 0\n")


def test_framework_on_sparse_vertex_ids_roundtrips():
    # from_graph numbers the vertices (2, 5) as 1, 2; the positions follow.
    import numpy as np

    from realdim.frameworks import QuotientFramework
    from realdim.graphs import GainEdge, GainGraph

    g = GainGraph((2, 5), [GainEdge(1, 2, 5, 0), GainEdge(2, 5, 5, 1)])
    fw = QuotientFramework(g, {2: (0.0, 1.0), 5: (3.0, 0.5)}, (2.0, 0.0))
    doc = FrameworkDocument.from_framework(fw)
    for as_json in (False, True):
        back, _ = parse_framework_document(serialize_framework_document(doc, as_json)).to_framework()
        assert back.graph.vertices == (1, 2)
        assert np.array_equal(back.positions, fw.positions)
        assert np.array_equal(back.lattice, fw.lattice)


def test_graph_reader_takes_the_graph_part_of_a_framework():
    lone = GraphDocument(1, ())
    assert parse_graph_document(serialize_graph_document(lone, as_json=True)) == lone
    with pytest.raises(DocumentError):
        parse_framework_document(serialize_graph_document(lone, as_json=True))
    assert parse_graph_document(LADDER_TEXT) == parse_framework_document(LADDER_TEXT).graph
    assert parse_document(serialize_graph_document(lone)) == lone
    assert parse_document(LADDER_TEXT) == parse_framework_document(LADDER_TEXT)
    with pytest.raises(DocumentError, match="position of vertex 1"):
        parse_graph_document(LADDER_TEXT.replace("position 1 4 0", "position 1 4 nan"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("gaingraph v1\nvertices 2\nedge 1 2 1.0\n", "line 3"),
        ("gaingraph v1\nvertices 2\nvertices 2\n", "duplicate vertices line"),
        ("gaingraph v1\nvertices 2\nposition 1 0\n", "unknown fields"),
        ("gaingraph v2\nvertices 2\n", "unsupported version"),
        ("gaingraph\nvertices 2\n", "header"),
        ('{"kind": "gaingraph", "vertices": 2, "comment": "x"}', "unknown fields"),
        ('{"kind": "gaingraph", "vertices": 2, "edges": [[1, 2]]}', "tail, head, label"),
        ('{"kind": "gaingraph", "vertices": -1}', "at least 0"),
        ('{"kind": "gaingraph", "vertices": 1' + "0" * 5000 + "}", "invalid JSON"),
        (LADDER_TEXT.replace("position 1 4 0", "position 1 1" + "0" * 400 + " 0"),
         "too large for a float"),
        (LADDER_TEXT.replace("stress L -1", "stress L -1\nstress 3 1"), "got '3'"),
    ],
)
def test_reader_checks_fields(text, message):
    with pytest.raises(DocumentError, match=message):
        parse_graph_document(text)


def test_names_are_normalized_text():
    doc = parse_graph_document('{"kind": "gaingraph", "name": " a\\n b ", "vertices": 1}')
    assert doc.name == "a b"
    assert parse_graph_document(serialize_graph_document(doc)) == doc


@pytest.mark.parametrize(
    "text",
    [
        "stress 1 -1\nstress 2 1\nstress 3 1\nstress 4 1\nstress 5 1\nstress L -1\n",
        "stress e1 -1\nstress e2 1\nstress e3 1\nstress e4 1\nstress e5 1\nstress e5 1\n"
        "stress L -1\n",
        "stress e1 -1\nstress e2 1\nstress e3 1\nstress e4 1\nstress e5 inf\nstress L -1\n",
        '{"stress": {"e1": -1, "e2": 1, "e3": 1, "e4": 1, "e5": 1, "L": true}}',
        '{"stress": {}}',
        '{"weights": {}}',
        "stress e1 1" + "0" * 400 + "\nstress e2 1\nstress e3 1\nstress e4 1\nstress e5 1\n"
        "stress L -1\n",
        '{"kind": "framework", "stress": {"e1": -1, "e2": 1, "e3": 1, "e4": 1, "e5": 1, "L": -1}}',
        "framework v1\nstress e1 -1\nstress e2 1\nstress e3 1\nstress e4 1\nstress e5 1\n"
        "stress L -1\n",
    ],
    ids=["bare-keys", "duplicate", "infinite", "bool", "empty", "no-stress", "beyond-float",
         "json-other-field", "text-header"],
)
def test_weights_document_rejects(text):
    with pytest.raises(DocumentError):
        parse_weights_document(text, ladder_graph())
