"""The benchmark's view of the package still holds.

``bench/tracer.py`` looks each target up with ``owner.__dict__[attr]``; a
name deleted or moved out of its owner fails here instead of in the
traced benchmark run.  ``bench/checks.py`` reads every emitted
certificate; a format it cannot read fails here instead of counting every
benchmark operation as wrong.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from realdim.certificates import certificate_to_json_dict
from realdim.graphs import GainGraph
from realdim.realizability import is_1_realizable, is_2_realizable
from test_realizability import json_depth, long_cycle


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", Path(__file__).resolve().parents[1] / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _bench_module("tracer")


@pytest.mark.parametrize(
    "module, path",
    [(module, path) for module, paths in tracer.TARGETS.items() for path in paths],
    ids=lambda x: x,
)
def test_traced_target_resolves(module, path):
    owner = importlib.import_module(f"realdim.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__


def test_sparse_large_certificates_pass_the_bench_checks():
    checks, inputs = _bench_module("checks"), _bench_module("inputs")
    data = inputs.sparse_large(0, 4)
    plain = [item["graph"] for item in data["graphs"]] + [data["fault_cycle"], data["fault_tree"]]
    trees = 0
    for n, edges in plain:
        g = GainGraph.of(n, edges)
        for dim, verdict in ((1, is_1_realizable(g)), (2, is_2_realizable(g))):
            cert = json.loads(json.dumps(certificate_to_json_dict(verdict), indent=2))
            assert checks.certificate_shape(cert, dim, verdict.answer) is None
            nodes, depth = checks.tree_size(cert)
            trees += verdict.answer
            assert (nodes, depth) == ((1, 1) if verdict.answer else (0, 0))
    assert trees > 10


def test_long_cycle_certificate_nests_to_a_constant_depth():
    data = certificate_to_json_dict(is_2_realizable(long_cycle(10_000)))
    assert json_depth(data) <= 6
