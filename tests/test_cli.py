import json

import pytest

from realdim.cli import main
from realdim.documents import parse_framework_document

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
    import realdim.cli
    import realdim.realizability

    calls = {"is_1_realizable": 0, "is_2_realizable": 0}
    for name in calls:
        decide = getattr(realdim.realizability, name)

        def counted(g, _decide=decide, _name=name):
            calls[_name] += 1
            return _decide(g)

        monkeypatch.setattr(realdim.realizability, name, counted)
        monkeypatch.setattr(realdim.cli, name, counted)
    code, out_text = run(capsys, "classify", cx_file)
    assert code == 1 and "[3, 4]" in out_text
    assert calls == {"is_1_realizable": 1, "is_2_realizable": 1}


def test_classify_batch(tmp_path, capsys):
    (tmp_path / "a.graph").write_text(K2)
    (tmp_path / "b.graph").write_text(COUNTEREXAMPLE_C)
    code, out_text = run(capsys, "--json", "classify", tmp_path, "--batch")
    assert code == 1
    data = json.loads(out_text)
    assert len(data["results"]) == 2


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
    code, out_text = run(
        capsys, "lift", ladder_file, "--from", 0, "--to", 1,
        "--framework", ladder_file, "--svg", svg,
    )
    assert code == 0
    assert svg.read_text().startswith("<svg")
    assert "position" in out_text


def test_input_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("gaingraph v1\nvertices 2\nedge 1 2 0\nedge 1 2 0\n")
    assert main(["classify", str(p)]) == 2
    p2 = tmp_path / "zero.framework"
    p2.write_text(LADDER.replace("lattice 4 0", "lattice 0 0"))
    assert main(["stress", str(p2)]) == 2


def test_bound_exceeded_exit_code(tmp_path, capsys):
    lines = ["gaingraph v1", "vertices 9"] + [f"edge {i} {i+1} 0" for i in range(1, 9)]
    p = tmp_path / "big.graph"
    p.write_text("\n".join(lines) + "\n")
    assert main(["minor", str(p), "--pattern", "k2-bullet"]) == 3


def test_selftest_deterministic(capsys):
    code, out_text = run(capsys, "selftest", "--seed", 7, "--count", 10)
    assert code == 0
    code2, out_text2 = run(capsys, "selftest", "--seed", 7, "--count", 10)
    assert out_text == out_text2
