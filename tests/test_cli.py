import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import realdim
from realdim.certificates import SERIES, certificate_from_json_dict, certificate_to_json_dict
from realdim.cli import main
from realdim.documents import (
    parse_framework_document,
    parse_graph_document,
    parse_weights_document,
    serialize_framework_document,
    serialize_graph_document,
)
from realdim.errors import DocumentError
from realdim.graphs import GainGraph
from realdim.randgen import random_simple_gain_graph
from realdim.realizability import is_1_realizable, is_2_realizable
from test_replay import expand

LADDER = """\
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

COUNTEREXAMPLE_C = """\
gaingraph v1
vertices 4
edge 1 3 0
edge 3 2 0
edge 3 2 1
edge 1 2 0
edge 1 4 0
edge 4 2 1
"""

K2 = "gaingraph v1\nvertices 2\nedge 1 2 0\n"
# Its d=1 certificate is a witness whose pattern is the exact balanced triangle.
TRIANGLE = "gaingraph v1\nvertices 3\nedge 1 2 0\nedge 2 3 0\nedge 1 3 0\n"


@pytest.fixture
def ladder_file(tmp_path):
    p = tmp_path / "ladder.framework"
    p.write_text(LADDER)
    return p


@pytest.fixture
def cx_file(tmp_path):
    p = tmp_path / "c.graph"
    p.write_text(COUNTEREXAMPLE_C)
    return p


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_classify_counterexample(cx_file, tmp_path, capsys):
    prefix = tmp_path / "cert"
    code, out_text = run(capsys, "classify", cx_file, "--cert-out", prefix)
    assert code == 1
    assert "1-realizable: no" in out_text
    assert "2-realizable: no" in out_text
    assert "[3, 4]" in out_text
    for dim in (1, 2):
        cert = tmp_path / f"cert.d{dim}.json"
        assert cert.exists()
        code, out_text = run(capsys, "verify-cert", cx_file, cert)
        assert code == 0 and "valid" in out_text


def test_classify_yes_graph(tmp_path, capsys):
    p = tmp_path / "k2.graph"
    p.write_text(K2)
    code, out_text = run(capsys, "classify", p)
    assert code == 0
    assert "1-realizable: yes" in out_text
    assert "[1, 1]" in out_text


def test_classify_decides_once(cx_file, capsys, monkeypatch):
    import realdim.realizability

    calls = {"is_1_realizable": 0, "is_2_realizable": 0}
    for name in calls:
        decide = getattr(realdim.realizability, name)

        def counted(g, _decide=decide, _name=name):
            calls[_name] += 1
            return _decide(g)

        monkeypatch.setattr(realdim.realizability, name, counted)
    code, out_text = run(capsys, "classify", cx_file)
    assert code == 1 and "[3, 4]" in out_text
    assert calls == {"is_1_realizable": 1, "is_2_realizable": 1}


def test_forest_certificates_differ_only_in_dimension(tmp_path, capsys, monkeypatch):
    # A forest's d=1 table is its d=2 table: classify decides it once.
    import realdim.realizability

    def refuse(g):
        raise AssertionError("is_2_realizable ran on a forest")

    monkeypatch.setattr(realdim.realizability, "is_2_realizable", refuse)
    p = tmp_path / "forest.graph"
    p.write_text("gaingraph v1\nvertices 7\nedge 1 2 3\nedge 2 3 -1\nedge 2 4 0\n"
                 "edge 5 6 1\nedge 2 2 2\nedge 4 4 1\nedge 7 7 -3\n")
    prefix = tmp_path / "cert"
    code, out_text = run(capsys, "classify", p, "--cert-out", prefix)
    assert code == 0 and "[1, 1]" in out_text
    certs = [json.loads((tmp_path / f"cert.d{dim}.json").read_text()) for dim in (1, 2)]
    assert [cert.pop("dimension") for cert in certs] == [1, 2]
    assert certs[0] == certs[1]
    for dim in (1, 2):
        code, out_text = run(capsys, "verify-cert", p, tmp_path / f"cert.d{dim}.json")
        assert code == 0 and "valid" in out_text


def test_classify_batch(tmp_path, capsys):
    (tmp_path / "a.graph").write_text(K2)
    (tmp_path / "b.graph").write_text(COUNTEREXAMPLE_C)
    code, out_text = run(capsys, "--json", "classify", tmp_path)
    assert code == 1
    data = json.loads(out_text)
    assert len(data["results"]) == 2


@pytest.mark.parametrize("name", ["absent"])
def test_classify_batch_needs_a_directory(tmp_path, capsys, name):
    path = tmp_path / name
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and str(path) in err


def test_classify_batch_refuses_documents_sharing_a_stem(tmp_path, capsys):
    (tmp_path / "a.graph").write_text(K2)
    (tmp_path / "a.json").write_text(json.dumps({"kind": "gaingraph", "vertices": 2,
                                                 "edges": [[1, 2, 1]]}))
    prefix = tmp_path / "c"
    assert main(["classify", str(tmp_path), "--cert-out", str(prefix)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error")
    assert str(tmp_path / "a.graph") in err and str(tmp_path / "a.json") in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.graph", "a.json"]
    # Without certificates nothing is overwritten.
    assert main(["classify", str(tmp_path)]) == 0


def test_classify_batch_rerun_skips_its_own_certificates(tmp_path, capsys):
    (tmp_path / "a.graph").write_text(K2)
    (tmp_path / "b.graph").write_text(COUNTEREXAMPLE_C)
    argv = ["--json", "classify", str(tmp_path), "--cert-out", str(tmp_path / "c")]
    runs = []
    for _ in range(2):
        assert main(argv) == 1
        runs.append(json.loads(capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert [r["graph"] for r in runs[1]["results"]] == [str(tmp_path / n)
                                                        for n in ("a.graph", "b.graph")]
    for stem in ("a", "b"):
        for dim in (1, 2):
            cert = tmp_path / f"c.{stem}.d{dim}.json"
            assert main(["verify-cert", str(tmp_path / f"{stem}.graph"), str(cert)]) == 0


def test_stress_exact_output(ladder_file, capsys):
    code, out_text = run(capsys, "stress", ladder_file)
    assert code == 0
    assert "signature: (1, 0, 3)" in out_text
    assert "[-2, -2, 4, -2]" in out_text


def test_stress_kernel_mode(tmp_path, capsys):
    # strip the stress block: kernel mode
    p = tmp_path / "f.framework"
    p.write_text("\n".join(l for l in LADDER.splitlines() if not l.startswith("stress")) + "\n")
    code, out_text = run(capsys, "stress", p)
    assert code == 0
    assert "dimension: 1" in out_text


def test_superstable(ladder_file, capsys):
    code, out_text = run(capsys, "superstable", ladder_file)
    assert code == 0
    assert "certifies periodic universal rigidity" in out_text


def test_superstable_bad_weights(ladder_file, tmp_path, capsys):
    w = tmp_path / "w.stress"
    w.write_text("stress e1 0\nstress e2 0\nstress e3 0\nstress e4 0\nstress e5 0\nstress L 0\n")
    code, out_text = run(capsys, "superstable", ladder_file, "--weights", w)
    assert code == 1
    assert "verified: no" in out_text


def test_minor_pattern_search(cx_file, capsys):
    code, out_text = run(capsys, "minor", cx_file, "--pattern", "k3-bulletbullet")
    assert code == 1 and "found" in out_text
    code, out_text = run(capsys, "minor", cx_file, "--pattern", "k4-balanced")
    assert code == 0 and "none" in out_text


def test_minor_file_pattern(cx_file, tmp_path, capsys):
    p = tmp_path / "pat.graph"
    p.write_text(K2)
    code, out_text = run(capsys, "minor", cx_file, "--pattern", f"file:{p}")
    assert code == 1


def test_balance_command(tmp_path, capsys):
    p = tmp_path / "bal.graph"
    p.write_text("gaingraph v1\nvertices 3\nedge 1 2 5\nedge 2 3 -5\n")
    code, out_text = run(capsys, "balance", p)
    assert code == 0 and "balanced: yes" in out_text
    p.write_text("gaingraph v1\nvertices 2\nedge 1 2 0\nedge 1 2 1\n")
    code, out_text = run(capsys, "balance", p)
    assert code == 1 and "witness cycle" in out_text


def test_flatten_command(tmp_path, capsys):
    p = tmp_path / "k3.framework"
    p.write_text(
        "framework v1\ndimension 3\nvertices 3\nedge 1 2 0\nedge 1 3 0\nedge 2 3 0\n"
        "position 1 0.1 0.2 1.3\nposition 2 1.7 -0.4 0.2\nposition 3 -0.6 1.1 0.5\n"
        "lattice 0.9 1.2 -0.7\n"
    )
    out_file = tmp_path / "flat.framework"
    code, out_text = run(capsys, "flatten", p, "--out", out_file)
    assert code == 0 and "violated" in out_text
    flat_doc = parse_framework_document(out_file.read_text())
    fw, _ = flat_doc.to_framework()
    assert fw.dim == 3


def test_flatten_conic_holds(ladder_file, capsys):
    code, out_text = run(capsys, "flatten", ladder_file)
    assert code == 1 and "holds" in out_text


def test_lift_window_disjoint_edges(tmp_path, capsys):
    p = tmp_path / "k2.graph"
    p.write_text(K2)
    code, out_text = run(capsys, "lift", p, "--from", 0, "--to", 2)
    assert code == 0
    assert out_text.count("edge ") == 3
    assert "vertices 6" in out_text


def test_lift_with_framework_and_svg(ladder_file, tmp_path, capsys):
    svg = tmp_path / "win.svg"
    code, out_text = run(capsys, "lift", ladder_file, "--from", 0, "--to", 1, "--svg", svg)
    assert code == 0
    assert svg.read_text().startswith("<svg")
    assert "position" in out_text


def test_lift_svg_needs_a_framework_document(tmp_path, capsys):
    p = tmp_path / "k2.graph"
    p.write_text(K2)
    svg = tmp_path / "win.svg"
    assert main(["lift", str(p), "--from", "0", "--to", "1", "--svg", str(svg)]) == 2
    assert "--svg needs a framework document" in capsys.readouterr().err
    assert not svg.exists()


def test_lift_window_over_the_bound_exits_three(tmp_path, capsys):
    # A window of 10^15 shifts would need petabytes: the bound is checked first.
    p = tmp_path / "k2.graph"
    p.write_text(K2)
    assert main(["lift", str(p), "--from", "0", "--to", str(10**15)]) == 3
    captured = capsys.readouterr()
    assert "bound exceeded: lift window of" in captured.err
    assert captured.out == ""


def test_input_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("gaingraph v1\nvertices 2\nedge 1 2 0\nedge 1 2 0\n")
    assert main(["classify", str(p)]) == 2
    p2 = tmp_path / "zero.framework"
    p2.write_text(LADDER.replace("lattice 4 0", "lattice 0 0"))
    assert main(["stress", str(p2)]) == 2
    p3 = tmp_path / "bare.framework"
    p3.write_text(LADDER.replace("dimension 2", "dimension"))
    assert main(["stress", str(p3)]) == 2
    ladder = tmp_path / "ladder.framework"
    ladder.write_text(LADDER)
    weights = tmp_path / "w.json"
    for stress in ({"ex": 1, "L": -1}, [1, 2], {"e1": "one", "L": -1}):
        weights.write_text(json.dumps({"stress": stress}))
        assert main(["stress", str(ladder), "--weights", str(weights)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc",
    [
        ("classify", {"kind": "gaingraph", "edges": [[1, 2, 0]]}),
        ("classify", {"kind": "gaingraph", "vertices": "two", "edges": []}),
        ("classify", {"kind": "gaingraph", "vertices": 2, "edges": 5}),
        ("stress", {"kind": "framework", "vertices": 2, "edges": [[1, 2, 0]], "dimension": 1,
                    "positions": {"1": [0], "2": [1]}}),
        ("stress", {"kind": "framework", "vertices": 2, "edges": [[1, 2, 0]], "dimension": 1,
                    "positions": [[0], [1]], "lattice": [1]}),
        ("stress", {"kind": "framework", "vertices": 2, "edges": [[1, 2, 0]], "dimension": 1,
                    "positions": {"1": [0], "2": [1]}, "lattice": [1],
                    "stress": {"e1": [1], "L": 1}}),
        ("classify", {"kind": "gaingraph", "vertices": 2, "edges": [[1, 2, 0.6]]}),
        ("classify", {"kind": "gaingraph", "vertices": "2", "edges": [[1, 2, 0]]}),
        ("classify", {"kind": "gaingraph", "vertices": 2, "edges": [[True, 2, 0]]}),
        ("stress", {"kind": "framework", "vertices": 2, "edges": [[1, 2, 0]], "dimension": 1,
                    "positions": {"1": [float("nan")], "2": [1]}, "lattice": [1]}),
        ("stress", {"kind": "framework", "vertices": 2, "edges": [[1, 2, 0]], "dimension": 1,
                    "positions": {"1": "0", "2": [1]}, "lattice": [1]}),
        ("classify", {"kind": "gaingraph", "name": 5, "vertices": 2, "edges": [[1, 2, 0]]}),
        ("classify", {"kind": "gaingraph", "version": "v2", "vertices": 2,
                      "edges": [[1, 2, 0]]}),
    ],
)
def test_malformed_json_document_exit_code(tmp_path, capsys, command, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main([command, str(p)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text",
    [
        ("classify", K2.replace("edge 1 2 0", "edge 1 2 0.5")),
        ("stress", LADDER.replace("position 1 4 0", "position 1 nan 0")),
        ("flatten", LADDER.replace("position 1 4 0", "position 1 nan 0")),
        ("stress", LADDER.replace("lattice 4 0", "lattice inf 0")),
        ("stress", LADDER.replace("stress e1 -1", "stress e1 nan")),
    ],
    ids=["fractional-label", "nan-position", "nan-position-flatten", "inf-lattice",
         "nan-stress"],
)
def test_malformed_text_document_exit_code(tmp_path, capsys, command, text):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    assert main([command, str(p)]) == 2
    assert "input error" in capsys.readouterr().err


def test_unreadable_document_exit_code(tmp_path, capsys):
    binary = tmp_path / "binary.graph"
    binary.write_bytes(b"gaingraph v1\n\xd0\xff\n")
    for path in (tmp_path, binary, tmp_path / "absent.graph"):
        assert main(["classify", str(path)]) == 2
        assert "input error" in capsys.readouterr().err


def test_unwritable_output_exit_code(tmp_path, capsys):
    g = tmp_path / "k2.graph"
    g.write_text(K2)
    assert main(["classify", str(g), "--cert-out", str(tmp_path / "absent" / "cert")]) == 2
    err = capsys.readouterr().err
    assert "output error" in err and "input error" not in err


@pytest.mark.parametrize(
    "command, line, huge",
    [
        ("superstable", "position 1 4 0", "position 1 1e300 0"),
        ("flatten", "position 1 4 0", "position 1 1e300 0"),
        ("stress", "stress e1 -1", "stress e1 1e300"),
        ("superstable", "stress e1 -1", "stress e1 1e300"),
    ],
)
def test_values_near_the_float_limit_exit_code(tmp_path, capsys, command, line, huge):
    # Finite values whose squares overflow: the conic matrix holds inf, on
    # which the SVD may never return, and the equilibrium tolerance became
    # inf, which accepted a stress that is no equilibrium.
    p = tmp_path / "huge.framework"
    p.write_text(LADDER.replace(line, huge))
    assert main([command, str(p)]) == 2
    assert "too large for float arithmetic" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text",
    [
        ("named.json", json.dumps({"kind": "gaingraph", "name": "framework", "vertices": 2,
                                   "edges": [[1, 2, 0]]})),
        ("commented.framework", "# a comment first\n" + LADDER),
    ],
    ids=["json-graph-named-framework", "framework-after-comment"],
)
def test_document_read_by_declared_kind(tmp_path, capsys, name, text):
    p = tmp_path / name
    p.write_text(text)
    code, out_text = run(capsys, "classify", p)
    assert code in (0, 1)
    assert "2-realizable:" in out_text


# A triangle with its 1-2 pair doubled: 2-realizable, and not 1-realizable
# by a k2-bullet witness.  With a pendant edge at 3, its d=2 certificate
# ends in the pendant row [5, 3, 4, 0], after the balanced two-sum along
# 2-3 of the deletion step, whose piece on 1-2 carries a series row.
TRIANGLE_DOUBLED = "gaingraph v1\nvertices 3\nedge 1 2 0\nedge 1 2 1\nedge 2 3 0\nedge 1 3 0\n"
PANHANDLE = TRIANGLE_DOUBLED.replace("vertices 3", "vertices 4") + "edge 3 4 0\n"
# Two balanced triangles sharing vertex 3: its d=2 table ends in a one-sum.
BOWTIE = TRIANGLE.replace("vertices 3", "vertices 5") + "edge 3 4 0\nedge 4 5 0\nedge 3 5 0\n"
# Its d=2 table is a leaf on 4-5 and the series rows [3, 4, 5, 0, -3],
# [2, 3, 5, 1, -2] and [1, 2, 5, 0, -2].
CYCLE5 = "gaingraph v1\nvertices 5\nedge 1 2 0\nedge 2 3 1\nedge 3 4 0\nedge 4 5 -1\nedge 5 1 2\n"


def row(c, i):
    return c["root"]["rows"][i]


def set_step(i, *step):
    return lambda c: row(c, i).update(step=list(step))


def set_edge(i, *edge):
    return lambda c: row(c, i).update(edge=list(edge))


def two_sum(c):
    return next(r for r in c["root"]["rows"] if r["node"] == "balanced_two_sum")


def verify_mutated(tmp_path, capsys, graph, dim, mutate):
    """Exit code and output of verify-cert on the graph's mutated d=dim certificate."""
    g = tmp_path / "g.graph"
    g.write_text(graph)
    run(capsys, "classify", g, "--cert-out", tmp_path / "cert")
    cert = tmp_path / f"cert.d{dim}.json"
    data = json.loads(cert.read_text())
    mutate(data)
    cert.write_text(json.dumps(data))
    code = main(["verify-cert", str(g), str(cert)])
    return code, capsys.readouterr()


@pytest.mark.parametrize(
    "graph, dim, mutate",
    [
        pytest.param(COUNTEREXAMPLE_C, 1, lambda c: c["ops"][0].pop("target"),
                     id="op-no-target"),
        pytest.param(COUNTEREXAMPLE_C, 1, lambda c: c["ops"][0].update(target=[1]),
                     id="op-target-list"),
        pytest.param(COUNTEREXAMPLE_C, 1, lambda c: c["ops"][-1].update(survivor="1"),
                     id="op-survivor-string"),
        pytest.param(COUNTEREXAMPLE_C, 1, lambda c: c.update(ops=5), id="ops-not-list"),
        pytest.param(COUNTEREXAMPLE_C, 1, lambda c: c["ops"][0].update(op=["x"]),
                     id="op-unknown-kind"),
        pytest.param(COUNTEREXAMPLE_C, 1, lambda c: c.pop("dimension"), id="no-dimension"),
        pytest.param(K2, 1, lambda c: c.update(root=[]), id="root-not-object"),
        pytest.param(K2, 1, lambda c: row(c, 0).pop("edges"), id="leaf-no-graph"),
        pytest.param(K2, 1, lambda c: c.update(dimension=[1]), id="dimension-list"),
        pytest.param(K2, 1, lambda c: c.update(dimension=True), id="dimension-bool"),
        pytest.param(K2, 1, lambda c: c.update(dimension=3), id="dimension-3"),
        pytest.param(K2, 1, lambda c: c.pop("answer"), id="no-answer"),
        pytest.param(K2, 1, lambda c: c.update(answer="maybe"), id="answer-unknown"),
        pytest.param(K2, 1, lambda c: row(c, 0).update(edges=[[1, 1, 2, "0"]]),
                     id="edge-label-string"),
        pytest.param(K2, 1, lambda c: row(c, 0).update(vertices=[1, 2, 1]),
                     id="leaf-repeated-vertex"),
        pytest.param(TRIANGLE, 1, lambda c: c["pattern"]["graph"]["vertices"].append(1),
                     id="pattern-repeated-vertex"),
        pytest.param(BOWTIE, 2, lambda c: row(c, -1).pop("children"), id="no-children"),
        pytest.param(BOWTIE, 2, lambda c: row(c, -1).update(children={}),
                     id="children-not-list"),
        pytest.param(BOWTIE, 2, lambda c: row(c, -1).update(shared_vertex=[3]),
                     id="shared-vertex-list"),
        pytest.param(PANHANDLE, 2, lambda c: two_sum(c).update(shared_pair=[2]),
                     id="shared-pair-one"),
        pytest.param(PANHANDLE, 2, lambda c: two_sum(c).update(shared_pair=[2, 2]),
                     id="shared-pair-equal"),
        pytest.param(PANHANDLE, 2, lambda c: two_sum(c).update(shared_pair=[1, "2"]),
                     id="shared-pair-string"),
        pytest.param(PANHANDLE, 2, lambda c: two_sum(c).update(zero_child=2), id="zero-child-2"),
        pytest.param(PANHANDLE, 2, lambda c: two_sum(c).update(zero_child=False),
                     id="zero-child-bool"),
        pytest.param(CYCLE5, 2, lambda c: row(c, 1).pop("step"), id="series-no-step"),
        pytest.param(CYCLE5, 2, set_step(1, 3, 4, 5, 0), id="series-step-four"),
        pytest.param(CYCLE5, 2, set_step(1, 3, 4, 5, 0, -3, 1), id="series-step-six"),
        pytest.param(CYCLE5, 2, set_step(1, 3, 4, 5, 0, True), id="series-step-bool"),
        pytest.param(CYCLE5, 2, set_step(1, 3, 4, 5, 0, -3.0), id="series-step-float"),
        pytest.param(CYCLE5, 2, lambda c: row(c, 1).update(step="34503"),
                     id="series-step-string"),
        pytest.param(PANHANDLE, 2, lambda c: row(c, -1).pop("edge"), id="pendant-no-edge"),
        pytest.param(PANHANDLE, 2, set_edge(-1, 5, 3, 4), id="pendant-edge-three"),
        pytest.param(PANHANDLE, 2, set_edge(-1, 5, 3, 4, 0, 1), id="pendant-edge-five"),
        pytest.param(PANHANDLE, 2, set_edge(-1, 5, 3, 4, False), id="pendant-edge-bool"),
        pytest.param(PANHANDLE, 2, set_edge(-1, 5, 3, 4, 0.0), id="pendant-edge-float"),
        pytest.param(PANHANDLE, 2, lambda c: row(c, -1).update(edge="5340"),
                     id="pendant-edge-string"),
    ],
)
def test_malformed_certificate_exit_code(tmp_path, capsys, graph, dim, mutate):
    code, out = verify_mutated(tmp_path, capsys, graph, dim, mutate)
    assert code == 2
    assert "error: certificate" in out.err
    assert "Traceback" not in out.err


EXACT_K2 = {"kind": "exact", "graph": {"vertices": [1, 2], "edges": [
    {"id": 1, "tail": 1, "head": 2, "label": 0}]}}


def switch_leaves_at(c, v):
    """Switch every leaf edge of a tree certificate at vertex v by 1."""
    for r in c["root"]["rows"]:
        for e in r.get("edges", ()):
            e[3] += (e[1] == v) - (e[2] == v)


@pytest.mark.parametrize(
    "graph, dim, forge",
    [
        pytest.param(TRIANGLE_DOUBLED, 1, lambda c: c.update(dimension=2),
                     id="d1-witness-claims-d2"),
        pytest.param(TRIANGLE_DOUBLED, 2, lambda c: c.update(answer="no"),
                     id="yes-tree-claims-no"),
        pytest.param(TRIANGLE_DOUBLED, 1, lambda c: c.update(answer="yes"),
                     id="witness-claims-yes"),
        pytest.param(K2, 1, lambda c: c.update(kind="minor-witness", answer="no", ops=[],
                                               pattern=EXACT_K2), id="exact-k2-pattern"),
        pytest.param(TRIANGLE_DOUBLED, 2, lambda c: switch_leaves_at(c, 1),
                     id="tree-in-a-switched-frame"),
    ],
)
def test_forged_certificate_is_invalid(tmp_path, capsys, graph, dim, forge):
    code, out = verify_mutated(tmp_path, capsys, graph, dim, forge)
    assert code == 1
    assert "certificate: INVALID" in out.out


def test_certificate_not_json_exit_code(tmp_path, capsys):
    g = tmp_path / "k2.graph"
    g.write_text(K2)
    cert = tmp_path / "cert.json"
    cert.write_text("{not json")
    assert main(["verify-cert", str(g), str(cert)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def _nested_certificate(depth):
    """A d=1 certificate of format 1 whose root is a chain of one-child
    disjoint unions.

    Built as text, since json.dumps itself recurses once per level.
    """
    leaf = json.dumps({"node": "leaf", "graph": {
        "vertices": [1, 2], "edges": [{"id": 1, "tail": 1, "head": 2, "label": 0}]}})
    root = '{"node": "disjoint_union", "children": [' * depth + leaf + "]}" * depth
    return '{"dimension": 1, "answer": "yes", "kind": "decomposition-tree", "root": %s}' % root


def test_deeply_nested_certificate_exceeds_bound(tmp_path):
    # Too deep for the JSON parser, and of the old nested format besides.
    g = tmp_path / "k2.graph"
    g.write_text(K2)
    cert = tmp_path / "deep.json"
    cert.write_text(_nested_certificate(1200))
    src = str(Path(realdim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "realdim.cli", "verify-cert", str(g), str(cert)],
        capture_output=True, text=True, env={"PYTHONPATH": src},
    )
    assert proc.returncode in (2, 3)
    assert "certificate" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_nested_json_certificate_exits_two(tmp_path, capsys):
    g = tmp_path / "k2.graph"
    g.write_text(K2)
    cert = tmp_path / "deep.json"
    cert.write_text('{"dimension": 1, "answer": "yes", "kind": "decomposition-tree", '
                    '"root": {"rows": %s}}' % ("[" * 1200 + "]" * 1200))
    assert main(["verify-cert", str(g), str(cert)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: certificate")
    assert "Traceback" not in err


def test_format_1_certificate_is_refused(tmp_path, capsys):
    nested = json.loads(_nested_certificate(1))["root"]
    code, out = verify_mutated(tmp_path, capsys, K2, 1, lambda c: c.update(root=nested))
    assert code == 2
    assert "format 1" in out.err and "regenerate it from the graph" in out.err


def is_two_sum(r):
    return r["node"] == "balanced_two_sum"


def is_leaf(r):
    return r["node"] == "leaf"


def is_series(r):
    return r["node"] == "series"


@pytest.mark.parametrize(
    "find, mutate, expect",
    [
        pytest.param(is_two_sum, lambda r: r.update(shared_pair=[1, "x"]),
                     "error: certificate row {i}: shared_pair must be an integer",
                     id="reader"),
        pytest.param(is_series, lambda r: r["step"].__setitem__(4, True),
                     "error: certificate row {i}: a series step must be five integers "
                     "[w, a, b, ga, gb], got [3, 2, 1, 0, True]", id="reader-series"),
        pytest.param(is_two_sum, lambda r: r.update(shared_pair=[1, 2]),
                     "INVALID (row {i}: balanced_two_sum must share exactly [1, 2], got [2, 3])",
                     id="replay"),
        pytest.param(is_leaf, lambda r: r["vertices"].append(9),
                     "INVALID (row {i}: leaf outside the dimension-2 family", id="family"),
        pytest.param(is_leaf, lambda r: r["edges"][0].__setitem__(2, 9),
                     "INVALID (row {i}: edge {r[edges][0][0]} has an end outside its leaf)",
                     id="leaf-vertices"),
        pytest.param(is_leaf, lambda r: r["edges"].append([99, r["vertices"][0], r["vertices"][0], 0]),
                     "INVALID (row {i}: edge 99 is a selfloop with label 0)",
                     id="leaf-loop-label-0"),
        pytest.param(is_two_sum, lambda r: (r.clear(), r.update(node="disjoint_union", children=1)),
                     "INVALID (row {i}: disjoint union needs at least two children)",
                     id="union-of-one"),
    ],
)
def test_certificate_errors_name_the_row(tmp_path, capsys, find, mutate, expect):
    # The first row of the kind sought is found in the table, so the test
    # does not depend on the order in which the decider writes its rows.
    found = {}

    def mutate_found(c):
        found["i"], found["r"] = next((i, r) for i, r in enumerate(c["root"]["rows"]) if find(r))
        mutate(found["r"])

    _, out = verify_mutated(tmp_path, capsys, PANHANDLE, 2, mutate_found)
    assert expect.format(**found) in out.out + out.err


@pytest.mark.parametrize(
    "graph, dim, mutate, expect",
    [
        pytest.param(CYCLE5, 2, lambda c: c["root"]["rows"].insert(0, row(c, 1)),
                     "row 0: series row has no finished subtree", id="no-subtree"),
        pytest.param(K2, 1, lambda c: c["root"]["rows"].append(
                         {"node": "series", "step": [3, 1, 2, 0, 0]}),
                     "row 1: a series row's triangle is outside the dimension-1 family",
                     id="dimension-1"),
        pytest.param(CYCLE5, 2, set_step(1, 3, 4, 4, 0, -3),
                     "row 1: series step [3, 4, 4, 0, -3] repeats a vertex", id="repeated-vertex"),
        pytest.param(CYCLE5, 2, set_step(1, 3, 9, 5, 0, -3),
                     "row 1: series vertex 9 is not in the subtree before it", id="a-outside"),
        pytest.param(CYCLE5, 2, set_step(1, 3, 4, 9, 0, -3),
                     "row 1: series vertex 9 is not in the subtree before it", id="b-outside"),
        pytest.param(CYCLE5, 2, set_step(2, 4, 3, 5, 1, -2),
                     "row 2: series vertex 4 is already in the subtree before it",
                     id="w-inside"),
        pytest.param(CYCLE5, 2, set_step(1, 3, 4, 5, 0, -2),
                     "row 1: the subtree before it has no 4-5 edge of gain -2",
                     id="no-orbit"),
    ],
)
def test_series_row_refusals_name_the_row(tmp_path, capsys, graph, dim, mutate, expect):
    """One refusal per check of a series row: each is a check of the
    triangle leaf or the two-sum that the row stands for."""
    code, out = verify_mutated(tmp_path, capsys, graph, dim, mutate)
    assert code == 1
    assert f"certificate: INVALID ({expect})" in out.out


@pytest.mark.parametrize(
    "graph, dim, mutate, expect",
    [
        pytest.param(PANHANDLE, 2, lambda c: c["root"]["rows"].insert(0, row(c, -1)),
                     "row 0: pendant row has no finished subtree", id="no-subtree"),
        pytest.param(PANHANDLE, 2, set_edge(-1, 5, 2, 3, 1),
                     "row 4: pendant edge 5 has both ends in the subtree before it",
                     id="both-ends-inside"),
        pytest.param(PANHANDLE, 2, set_edge(-1, 5, 4, 9, 0),
                     "row 4: pendant edge 5 has no end in the subtree before it",
                     id="no-end-inside"),
        pytest.param(PANHANDLE, 2, set_edge(-1, 5, 4, 4, 1),
                     "row 4: pendant selfloop 5 is at vertex 4, outside the subtree before it",
                     id="loop-outside"),
        pytest.param(PANHANDLE, 2, set_edge(-1, 5, 3, 3, 0),
                     "row 4: edge 5 is a selfloop with label 0", id="loop-label-0"),
        pytest.param(PANHANDLE, 2, set_edge(-1, 1, 3, 4, 0),
                     "row 4: edge 1 names two orbits in the tree", id="id-two-orbits"),
    ],
)
def test_pendant_row_refusals_name_the_row(tmp_path, capsys, graph, dim, mutate, expect):
    """One refusal per check of a pendant row: each is a check of the
    one-edge leaf or the one-sum that the row stands for."""
    code, out = verify_mutated(tmp_path, capsys, graph, dim, mutate)
    assert code == 1
    assert f"certificate: INVALID ({expect})" in out.out


DATA = Path(__file__).parent / "data"


def orbits(g):
    return g.vertices, sorted(e.orbit_key() for e in g.edges)


@pytest.mark.parametrize("name, dim, refusal", [
    pytest.param("cycle6", 2, "leaf outside the dimension-2 family", id="cycle6"),
    pytest.param("necklace6", 2, "leaf outside the dimension-2 family", id="necklace6"),
    pytest.param("tree6", 1, "input edge 7 has no orbit in the replay", id="tree6-d1"),
    pytest.param("tree6", 2, "input edge 7 has no orbit in the replay", id="tree6-d2"),
])
def test_tables_of_triangle_leaves_still_verify(tmp_path, capsys, name, dim, refusal):
    """Tables written before the series and pendant rows still verify: a
    triangle leaf and a two-sum per step, a leaf and a one-sum per bridge,
    one leaf for all the selfloops at a vertex.  They replay to the orbits
    of the table written now, whose series rows stand for those steps."""
    graph_path, cert_path = DATA / f"{name}.graph", DATA / f"{name}.d{dim}.json"
    assert main(["verify-cert", str(graph_path), str(cert_path)]) == 0
    data = json.loads(cert_path.read_text())
    g = parse_graph_document(graph_path.read_text()).to_graph()

    def drop_fresh_ids(row):  # a triangle's ids and the added x-y edge's
        fresh = len(row.vertices) == 3
        edges = [(None if fresh or i > g.m else i, *rest) for i, *rest in row.edges]
        return row._replace(edges=sorted(edges, key=lambda e: e[1:]))

    old = certificate_from_json_dict(data).certificate
    new = (is_1_realizable if dim == 1 else is_2_realizable)(g).certificate
    assert orbits(old.replay()) == orbits(new.replay())
    if any(r.kind == SERIES for r in new.rows):
        assert list(map(drop_fresh_ids, expand(new.rows))) == list(map(drop_fresh_ids, old.rows))
    leaf = [r for r in data["root"]["rows"] if is_leaf(r)][-1]
    leaf["edges"][0][3] += 1
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify-cert", str(graph_path), str(cert_path)]) == 1
    assert refusal in capsys.readouterr().out


@pytest.mark.parametrize(
    "mutate, expect",
    [
        pytest.param(lambda c: c["ops"][1].update(target=9),
                     "INVALID (minor witness failed to replay: op 1 (delete_vertex 9): "
                     "not in the graph)", id="unknown-target"),
        pytest.param(lambda c: c["ops"].pop(),
                     "INVALID (minor witness replays to a graph that is not k2-bullet)",
                     id="not-the-pattern"),
    ],
)
def test_failed_witness_names_the_op(tmp_path, capsys, mutate, expect):
    code, out = verify_mutated(tmp_path, capsys, PANHANDLE, 1, mutate)
    assert code == 1
    assert expect in out.out


# Each breaks every table of two rows or more, where swapping two sibling
# subtrees of a one-sum would leave a valid certificate.
TAMPERS = (
    lambda rows, rng: {"rows": rows[1:]},  # drop the first row
    lambda rows, rng: {"rows": rows[:-1]},  # drop the last row
    lambda rows, rng: {"rows": [rows[-1], *rows[1:-1], rows[0]]},  # swap first and last
    lambda rows, rng: rng.choice(rows),  # one row as the root
)


def test_tampered_row_tables_never_verify(tmp_path, capsys):
    """The tree tampers of the nested format, on flat tables: a missing
    row, rows out of order, one row as the root."""
    rng = random.Random(11)
    g_path, cert_path = tmp_path / "g.graph", tmp_path / "cert.json"
    graphs = [random_simple_gain_graph(rng, max_vertices=7, max_edges=10) for _ in range(40)]
    tried = 0
    for g in graphs + [GainGraph.of(9, [(i, i % 9 + 1, i % 3 - 1) for i in range(1, 10)])]:
        g_path.write_text(f"gaingraph v1\nvertices {g.n}\n"
                          + "".join(f"edge {e.tail} {e.head} {e.label}\n" for e in g.edges))
        for verdict in (is_1_realizable(g), is_2_realizable(g)):
            if not verdict.answer or len(verdict.certificate.rows) < 2:
                continue
            for tamper in TAMPERS:
                data = certificate_to_json_dict(verdict)
                data["root"] = tamper(data["root"]["rows"], rng)
                cert_path.write_text(json.dumps(data))
                code = main(["verify-cert", str(g_path), str(cert_path)])
                out = capsys.readouterr()
                assert code in (1, 2), out
                assert "Traceback" not in out.err
                tried += 1
    assert tried > 100


def test_classify_long_cycle_without_certificates(tmp_path):
    # A d=2 certificate is one two-sum per reduction, but a flat table of
    # rows: --cert-out writes it and verify-cert replays it at any length.
    n = 700
    g = tmp_path / "cycle.graph"
    g.write_text("gaingraph v1\nvertices %d\n" % n
                 + "".join(f"edge {i} {i % n + 1} {i % 3 - 1}\n" for i in range(1, n + 1)))
    src = str(Path(realdim.__file__).resolve().parents[1])

    def classify(*extra):
        return subprocess.run(
            [sys.executable, "-m", "realdim.cli", "classify", str(g), *extra],
            capture_output=True, text=True, env={"PYTHONPATH": src},
        )

    plain = classify()
    assert plain.returncode == 0, plain.stderr
    assert "2-realizable: yes" in plain.stdout
    prefix = tmp_path / "cert"
    with_certs = classify("--cert-out", str(prefix))
    assert with_certs.returncode == 0, with_certs.stderr
    # The d=1 certificate is a minor witness of n - 2 contractions, replayed
    # in one pass.
    for dim in (2, 1):
        verified = subprocess.run(
            [sys.executable, "-m", "realdim.cli", "verify-cert", str(g), f"{prefix}.d{dim}.json"],
            capture_output=True, text=True, env={"PYTHONPATH": src},
        )
        assert verified.returncode == 0, verified.stderr
        assert "certificate: valid" in verified.stdout


def test_bound_exceeded_exit_code(tmp_path, capsys):
    lines = ["gaingraph v1", "vertices 9"] + [f"edge {i} {i+1} 0" for i in range(1, 9)]
    p = tmp_path / "big.graph"
    p.write_text("\n".join(lines) + "\n")
    assert main(["minor", str(p), "--pattern", "k2-bullet"]) == 3


def test_out_of_memory_exits_three(tmp_path):
    # 10^8 vertices do not fit in 512 MiB of address space: running out of
    # memory is an exceeded bound, not a negative verdict.
    resource = pytest.importorskip("resource")
    g = tmp_path / "huge.graph"
    g.write_text("gaingraph v1\nvertices 100000000\nedge 1 2 0\n")
    src = str(Path(realdim.__file__).resolve().parents[1])

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

    proc = subprocess.run(
        [sys.executable, "-m", "realdim.cli", "classify", str(g)],
        capture_output=True, text=True, env={"PYTHONPATH": src}, preexec_fn=limit,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("bound exceeded: out of memory")
    assert "Traceback" not in proc.stderr


def test_verify_cert_with_large_exact_pattern_exceeds_bound(tmp_path, capsys):
    # Matching a 12-vertex pattern would try every ordering of a 12-cycle;
    # the bounded canonical form refuses at once instead.
    n = 12
    g = tmp_path / "cycle.graph"
    g.write_text("gaingraph v1\nvertices %d\n" % n
                 + "".join(f"edge {i} {i % n + 1} 0\n" for i in range(1, n + 1)))
    edges = [{"id": i, "tail": i, "head": i % n + 1, "label": 0} for i in range(1, n + 1)]
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "dimension": 1, "answer": "no", "kind": "minor-witness", "ops": [],
        "pattern": {"kind": "exact", "graph": {"vertices": list(range(1, n + 1)),
                                               "edges": edges}}}))
    assert main(["verify-cert", str(g), str(cert)]) == 3
    assert "canonical_form bound is 8 vertices, graph has 12" in capsys.readouterr().err


IMPORT_PROBE = """\
import contextlib, io, json, sys
import realdim
bare = [m for m in sys.modules if m.startswith("realdim.")]
import realdim.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = realdim.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, bare, sorted(m[8:] for m in sys.modules if m.startswith("realdim.")),
                  [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]]))
"""

GRAPH_PATH = ["cli", "documents", "errors", "graphs"]
CERTIFICATE_PATH = sorted(GRAPH_PATH + ["certificates", "minors"])
FRAMEWORK_PATH = sorted(GRAPH_PATH + ["exactlinalg", "frameworks"])


def test_graph_commands_do_not_import_numpy(ladder_file, tmp_path):
    # Each command in a fresh interpreter: its exit code, the realdim
    # submodules a bare ``import realdim`` loaded, the realdim submodules
    # loaded after the command, and which of numpy, dataclasses and inspect
    # were (numpy itself imports inspect).
    graph = tmp_path / "ladder.graph"
    graph.write_text(serialize_graph_document(parse_graph_document(LADDER)))
    cert = str(tmp_path / "cert")
    src = str(Path(realdim.__file__).resolve().parents[1])
    expected = {
        ("classify", str(graph), "--cert-out", cert):
            [1, [], sorted(CERTIFICATE_PATH + ["realizability"]), []],
        ("balance", str(graph)): [1, [], GRAPH_PATH, []],
        ("minor", str(graph), "--pattern", "k3-bulletbullet"): [1, [], CERTIFICATE_PATH, []],
        ("verify-cert", str(graph), cert + ".d1.json"): [0, [], CERTIFICATE_PATH, []],
        ("verify-cert", str(graph), cert + ".d2.json"): [0, [], CERTIFICATE_PATH, []],
        ("lift", str(graph), "--from", "0", "--to", "1"): [0, [], GRAPH_PATH, []],
        ("lift", str(ladder_file), "--from", "0", "--to", "1"):
            [0, [], FRAMEWORK_PATH, ["numpy", "inspect"]],
        ("stress", str(ladder_file)): [0, [], FRAMEWORK_PATH, ["numpy", "inspect"]],
        ("superstable", str(ladder_file)): [0, [], FRAMEWORK_PATH, ["numpy", "inspect"]],
        ("flatten", str(ladder_file)): [1, [], FRAMEWORK_PATH, ["numpy", "inspect"]],
    }
    seen = {}
    for argv in expected:  # in order: classify writes the certificates
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)],
                              capture_output=True, text=True, env={"PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        seen[argv] = json.loads(proc.stdout)
    assert seen == expected


def test_cli_annotations_resolve_as_a_type_checker_reads_them(monkeypatch):
    # A fresh copy of the module, run with its TYPE_CHECKING imports.
    import importlib.util
    import inspect
    import typing

    monkeypatch.setattr(typing, "TYPE_CHECKING", True)
    spec = importlib.util.find_spec("realdim.cli")
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)
    for fn in vars(cli).values():
        if inspect.isfunction(fn) and fn.__module__ == cli.__name__:
            typing.get_type_hints(fn)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from realdim import *", namespace)
    assert set(realdim.__all__) <= set(namespace)
    assert {"rigidity_matrix", "QuotientFramework", "GainGraph", "is_2_realizable"} <= set(
        realdim.__all__)


def test_numeric_names_are_the_frameworks_objects():
    import realdim.frameworks

    assert realdim.rigidity_matrix is realdim.frameworks.rigidity_matrix
    assert realdim.StressVector is realdim.frameworks.StressVector
    assert "rigidity_matrix" not in vars(realdim)  # looked up afresh each time
    with pytest.raises(AttributeError, match="no_such_name"):
        realdim.no_such_name


def test_selftest_deterministic(capsys):
    code, out_text = run(capsys, "selftest", "--seed", 7, "--count", 10)
    assert code == 0
    code2, out_text2 = run(capsys, "selftest", "--seed", 7, "--count", 10)
    assert out_text == out_text2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tol_must_be_finite_and_positive(ladder_file, capsys, tol):
    # A tolerance that is not finite and positive cannot tell a residual from zero.
    with pytest.raises(SystemExit) as exc:
        main(["--tol", tol, "stress", str(ladder_file)])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_selftest_count_must_be_positive(capsys, count):
    # A count below one would run no checks and still report every suite as ok.
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--count", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--count" in captured.err and "ok" not in captured.out


FUZZ_VALUES = (0, 1, 2, 3, -1, True, None, "yes", "no", "leaf", "one_sum", "balanced_two_sum",
               "disjoint_union", "series", "pendant", "exact", "k2-bullet", "k3-bulletbullet",
               "delete_edge", "contract_edge", [], [1], [1, 2], {})


def fuzz_slots(data):
    """Every (container, key) of a JSON value, iteratively."""
    slots, stack = [], [data]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for k in keys:
            slots.append((node, k))
            if isinstance(node[k], (dict, list)):
                stack.append(node[k])
    return slots


def fuzz_mutate(rng, data, values=FUZZ_VALUES):
    slots = fuzz_slots(data)
    if not slots:
        return
    node, k = rng.choice(slots)
    move = rng.randrange(8)
    if type(node[k]) is int and move < 5:
        node[k] += rng.choice((-1, 1))
    elif move < 6:  # a fresh copy, since the lists and dicts may be mutated later
        node[k] = json.loads(json.dumps(rng.choice(values)))
    elif move == 6:  # a copy of another part of the certificate
        other, j = rng.choice(fuzz_slots(data))
        node[k] = json.loads(json.dumps(other[j]))
    elif isinstance(node, dict):
        del node[k]
    else:
        node.insert(k, node[k])


def test_verify_cert_fuzz(tmp_path, capsys):
    """Mutated certificates of small random graphs: every exit code is in
    0-3, nothing escapes, and a valid certificate agrees with the deciders."""
    rng = random.Random(20261018)
    g_path, cert_path = tmp_path / "g.graph", tmp_path / "cert.json"
    codes, issued = [], []
    for _ in range(50):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        g_path.write_text(f"gaingraph v1\nvertices {g.n}\n"
                          + "".join(f"edge {e.tail} {e.head} {e.label}\n" for e in g.edges))
        verdicts = {1: is_1_realizable(g), 2: is_2_realizable(g)}
        issued += verdicts.values()
        for _ in range(20):
            if rng.random() < 0.25:  # a certificate issued for another graph
                data, mutations = certificate_to_json_dict(rng.choice(issued)), (0, 1)
            else:
                data, mutations = certificate_to_json_dict(verdicts[rng.choice((1, 2))]), (1, 2, 3)
            for _ in range(rng.choice(mutations)):
                fuzz_mutate(rng, data)
            cert_path.write_text(json.dumps(data))
            code = main(["verify-cert", str(g_path), str(cert_path)])
            capsys.readouterr()
            assert code in (0, 1, 2, 3)
            if code == 0:
                assert (data["answer"] == "yes") == verdicts[data["dimension"]].answer
            codes.append(code)
    assert all(codes.count(c) > 25 for c in (0, 1, 2))


DOCUMENT_VALUES = (0, 1, 2, -1, 0.5, -2.5, 1e300, "1", "e1", "L", "v2", "framework", "gaingraph",
                   True, None, float("nan"), float("inf"), [], [1], [1, 2], {})
TEXT_TOKENS = ("0", "1", "-1", "+1", "0.5", "nan", "inf", "1e400", "e1", "L", "x")
WEIGHTS = "".join(line + "\n" for line in LADDER.splitlines() if line.startswith("stress"))


def mutate_text(rng, text):
    """Swap, drop or duplicate a line or a token, or put a stray token in."""
    lines = [line.split() for line in text.splitlines()]
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    move = rng.randrange(7)
    if move == 0:
        lines[i], lines[j] = lines[j], lines[i]
    elif move == 1:
        del lines[i]
    elif move == 2:
        lines.insert(i, list(lines[i]))
    elif lines[i] and lines[j]:
        a, b = rng.randrange(len(lines[i])), rng.randrange(len(lines[j]))
        if move == 3:
            lines[i][a], lines[j][b] = lines[j][b], lines[i][a]
        elif move == 4:
            del lines[i][a]
        elif move == 5:
            lines[i].insert(a, lines[i][a])
        else:
            lines[i][a] = rng.choice(TEXT_TOKENS)
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


def test_document_fuzz(tmp_path, capsys):
    """Mutated graph, framework and weights documents, text and JSON: every
    exit code is in 0-3, nothing escapes, a document the reader refuses
    exits 2, and one it accepts re-parses equal from either form."""
    rng = random.Random(20261019)
    ladder = tmp_path / "ladder.framework"
    ladder.write_text(LADDER)
    doc_path = tmp_path / "doc"
    graph, framework = parse_graph_document(COUNTEREXAMPLE_C), parse_framework_document(LADDER)
    bases = {  # kind: (text, JSON twin)
        "graph": (COUNTEREXAMPLE_C, serialize_graph_document(graph, as_json=True)),
        "framework": (LADDER, serialize_framework_document(framework, as_json=True)),
        "weights": (WEIGHTS, json.dumps({"stress": json.loads(
            serialize_framework_document(framework, as_json=True))["stress"]})),
    }
    outcomes = {}
    for _ in range(600):
        kind, as_json = rng.choice(sorted(bases)), rng.random() < 0.5
        if as_json:
            data = json.loads(bases[kind][1])
            for _ in range(rng.choice((1, 2, 3))):
                fuzz_mutate(rng, data, DOCUMENT_VALUES)
            text = json.dumps(data)
        else:
            text = bases[kind][0]
            for _ in range(rng.choice((1, 2))):
                text = mutate_text(rng, text)
        doc_path.write_text(text)
        if kind == "graph":
            argv = [rng.choice(("classify", "balance")), doc_path]
        elif kind == "framework":
            argv = [rng.choice(("stress", "superstable", "flatten")), doc_path]
        else:
            argv = ["stress", ladder, "--weights", doc_path]
        code = main([str(a) for a in argv])
        capsys.readouterr()
        assert code in (0, 1, 2, 3)
        try:
            if kind == "weights":
                parse_weights_document(text, framework.graph.to_graph())
            else:
                parse = parse_graph_document if kind == "graph" else parse_framework_document
                serialize = serialize_graph_document if kind == "graph" else \
                    serialize_framework_document
                doc = parse(text)
                for form in (False, True):
                    assert parse(serialize(doc, as_json=form)) == doc
        except DocumentError:
            assert code == 2
            outcomes[kind, as_json, "refused"] = outcomes.get((kind, as_json, "refused"), 0) + 1
        else:
            outcomes[kind, as_json, "read"] = outcomes.get((kind, as_json, "read"), 0) + 1
    assert len(outcomes) == 12, outcomes  # each kind and form both read and refused
