"""Command-line interface.

Subcommands: classify, minor, balance, stress, superstable, flatten,
lift, verify-cert, selftest.  Exit codes: 0 for a positive/decided
outcome, 1 for a negative verdict or failed verification (still a
successful run; the JSON output carries the distinction), 2 for input
errors, 3 for exceeded size bounds or running out of memory.

Each ``cmd_*`` imports the modules it runs when it runs, so a process
compiles no more of the package than its command needs: ``balance`` and
``lift`` on a graph document load the document reader and the graphs;
``minor`` and ``verify-cert`` add the certificates and minors;
``classify`` adds the deciders.  The framework commands (stress,
superstable, flatten, and lift on a framework document) add only the
numeric layer, and with it numpy, which no graph command imports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import BoundExceededError, DocumentError, RealdimError

if TYPE_CHECKING:  # each command imports what it runs
    from .graphs import GainGraph

PATTERN_NAMES = ("k2-bullet", "k3-balanced", "k3-bulletbullet", "k4-balanced")


class _Output:
    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.lines: list = []
        self.data: dict = {}

    def say(self, text: str, **fields):
        self.lines.append(text)
        self.data.update(fields)

    def put(self, **fields):
        self.data.update(fields)

    def flush(self, exit_code: int):
        self.data.setdefault("exit_code", exit_code)
        if self.as_json:
            print(json.dumps(self.data, indent=2, default=_jsonable))
        else:
            for line in self.lines:
                print(line)
        return exit_code


def _jsonable(obj):
    if hasattr(obj, "tolist"):  # numpy arrays and scalars, without importing numpy
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a missing, unreadable or non-UTF-8 file
        raise DocumentError(str(exc)) from None


def _read_graph(path: str) -> GainGraph:
    from .documents import parse_graph_document

    # graph commands also accept framework documents, using their graph part
    return parse_graph_document(_read_text(path)).to_graph()


def _read_framework(path: str, weights: str | None = None) -> tuple:
    """The framework and its stress: the weights document's if one is given,
    else the framework's own (None if it has none)."""
    from .documents import parse_framework_document, parse_weights_document

    fw, stress = parse_framework_document(_read_text(path)).to_framework()
    if weights:
        stress = parse_weights_document(_read_text(weights), fw.graph)
    return fw, stress


def _matrix_lines(L) -> list:
    rows = []
    for row in L.tolist():
        rows.append("  [" + ", ".join(str(x) for x in row) + "]")
    return rows


# -- classify ---------------------------------------------------------------------


def _classify_one(path: str, out: _Output, cert_prefix: str | None) -> int:
    from .certificates import RealizabilityVerdict, certificate_to_json_dict
    from .realizability import is_1_realizable, is_2_realizable, realizable_dimension_bounds

    g = _read_graph(path)
    v1 = is_1_realizable(g)
    # A d=1 table is a d=2 table: its leaves have at most two vertices.
    v2 = RealizabilityVerdict(2, True, v1.certificate) if v1.answer else is_2_realizable(g)
    bounds = realizable_dimension_bounds(g, d1=v1, d2=v2)
    out.say(f"graph: {path}")
    out.say(f"1-realizable: {'yes' if v1.answer else 'no'}")
    out.say(f"2-realizable: {'yes' if v2.answer else 'no'}")
    out.say(f"realizable dimension bounds: [{bounds.lower}, {bounds.upper}]")
    out.put(
        graph=path,
        one_realizable=v1.answer,
        two_realizable=v2.answer,
        bounds=[bounds.lower, bounds.upper],
    )
    if out.as_json or cert_prefix:
        if v1.answer:  # one table serves both dimensions; its copies differ only in "dimension"
            certs = [certificate_to_json_dict(v1)]
            certs.append({**certs[0], "dimension": 2})
        else:
            certs = [certificate_to_json_dict(v) for v in (v1, v2)]
        out.put(certificate_d1=certs[0], certificate_d2=certs[1])
    if cert_prefix:
        tables: dict = {}
        for dim, cert in enumerate(certs, start=1):
            cert_path = Path(f"{cert_prefix}.d{dim}.json")
            cert_path.write_text(_certificate_text(cert, tables), encoding="utf-8")
            out.say(f"certificate (d={dim}): {cert_path}")
    return 0 if v2.answer else 1


def _certificate_text(cert: dict, tables: dict) -> str:
    """A certificate as JSON, a tree's table written one row per line.
    ``tables`` keeps each table's text by its root's id, so that a table
    two certificates share is written once."""
    if cert["kind"] != "decomposition-tree":
        return json.dumps(cert, indent=2) + "\n"
    head = json.dumps({k: v for k, v in cert.items() if k != "root"})[:-1]
    root = cert["root"]
    if id(root) not in tables:
        tables[id(root)] = ",\n".join(map(json.dumps, root["rows"]))
    return f'{head}, "root": {{"rows": [\n{tables[id(root)]}\n]}}}}\n'


def _batch(directory: str, cert_out: str | None) -> dict:
    """``{document: certificate prefix or None}`` for the graph documents in
    a directory.  The files this run writes certificates to are not read,
    and two documents that would write the same files are refused."""
    try:
        paths = sorted(Path(directory).iterdir())
    except OSError as exc:  # a missing path or a plain file cannot be listed
        raise DocumentError(f"cannot list {directory}: {exc.strerror}") from None
    files = {p: cert_out and f"{cert_out}.{p.stem}" for p in paths
             if p.suffix in (".graph", ".json", ".txt")}
    written = {Path(f"{q}.d{d}.json").resolve() for q in files.values() if q for d in (1, 2)}
    files = {p: q for p, q in files.items() if p.resolve() not in written}
    owner: dict = {}
    for p, q in files.items():
        if q and owner.setdefault(q, p) != p:
            raise DocumentError(f"{owner[q]} and {p} would both write {q}.d1.json and .d2.json")
    return files


def cmd_classify(args) -> int:
    out = _Output(args.json)
    if not Path(args.graph).is_dir():
        return out.flush(_classify_one(args.graph, out, args.cert_out))
    prefixes = _batch(args.graph, args.cert_out)
    if not prefixes:
        raise DocumentError(f"no graph documents found in {args.graph}")
    results = []
    worst = 0
    for p, prefix in prefixes.items():
        sub = _Output(args.json)
        worst = max(worst, _classify_one(str(p), sub, prefix))
        results.append(sub.data)
        out.lines.extend(sub.lines)
    out.put(results=results)
    return out.flush(worst)


# -- other commands ------------------------------------------------------------------


def cmd_minor(args) -> int:
    from .certificates import witness_to_json_dict
    from .minors import MinorPattern, balanced_complete_pattern, has_minor

    out = _Output(args.json)
    g = _read_graph(args.graph)
    if args.pattern.startswith("file:"):
        pattern = MinorPattern.exact(_read_graph(args.pattern[5:]))
    elif args.pattern in PATTERN_NAMES:  # k<n>-balanced, or a family
        pattern = (balanced_complete_pattern(int(args.pattern[1]))
                   if args.pattern.endswith("-balanced") else MinorPattern.family(args.pattern))
    else:
        raise DocumentError(
            f"unknown pattern {args.pattern!r}; use one of {sorted(PATTERN_NAMES)} or file:<path>"
        )
    witness = has_minor(g, pattern)
    if witness is None:
        out.say("minor: none", minor=False)
        return out.flush(0)
    out.say(f"minor: found ({len(witness.ops)} operations)", minor=True,
            ops=witness_to_json_dict(witness)["ops"])
    for op in witness.ops:
        extra = f" survivor {op.survivor}" if op.kind == "contract_edge" else ""
        out.say(f"  {op.kind} {op.target}{extra}")
    return out.flush(1)


def cmd_balance(args) -> int:
    out = _Output(args.json)
    g = _read_graph(args.graph)
    res = g.balance()
    if res.balanced:
        out.say("balanced: yes", balanced=True, potentials=res.potentials)
        switches = {v: s for v, s in sorted(res.potentials.items()) if s}
        out.say(f"normalizing switches: {switches if switches else 'none needed'}")
        return out.flush(0)
    walk = res.witness
    cycle = [str(x) if not hasattr(x, "id") else f"e{x.id}" for x in walk.sequence]
    out.say("balanced: no", balanced=False, witness_gain=walk.gain, witness=cycle)
    out.say(f"witness cycle: {' '.join(cycle)} (gain {walk.gain})")
    return out.flush(1)


def cmd_stress(args) -> int:
    from .frameworks import is_equilibrium_stress, signature, stress_kernel, stress_matrix

    out = _Output(args.json)
    fw, stress = _read_framework(args.framework, args.weights)
    if stress is None:
        kernel = stress_kernel(fw, args.tol)
        out.say(f"equilibrium stress space dimension: {kernel.shape[0]}",
                kernel_dimension=kernel.shape[0], kernel=kernel)
        for row in kernel:
            out.say("  " + " ".join(format(x, ".6g") for x in row))
        return out.flush(0)
    ok = is_equilibrium_stress(fw, stress, args.tol)
    L = stress_matrix(fw.graph, stress)
    sig = signature(L, args.tol)
    out.say(f"equilibrium: {'yes' if ok else 'no'}", equilibrium=ok)
    out.say("stress matrix:", stress_matrix=L)
    for line in _matrix_lines(L):
        out.say(line)
    out.say(
        f"signature: ({sig.n_plus}, {sig.n_minus}, {sig.n_zero})",
        signature=sig.as_tuple(),
    )
    return out.flush(0 if ok else 1)


def cmd_superstable(args) -> int:
    from .frameworks import verify_super_stable

    out = _Output(args.json)
    fw, stress = _read_framework(args.framework, args.weights)
    if stress is None:
        raise DocumentError("superstable needs stress weights (--weights or a stress block)")
    report = verify_super_stable(fw, stress, args.tol)
    out.put(**report.as_dict())
    out.say(f"equilibrium stress: {'yes' if report.equilibrium_ok else 'no'}")
    out.say(
        f"signature: {report.signature.as_tuple()} "
        f"(nonnegative and full: {'yes' if report.signature_ok else 'no'})"
    )
    out.say(f"conic condition: {'holds' if report.conic_ok else 'violated'}")
    if report.verified:
        out.say(f"verified: yes -- {report.note}")
        return out.flush(0)
    out.say("verified: no")
    return out.flush(1)


def cmd_flatten(args) -> int:
    from .documents import FrameworkDocument, serialize_framework_document
    from .frameworks import affine_dimension, conic_condition, flatten

    out = _Output(args.json)
    fw, _ = _read_framework(args.framework)
    res = conic_condition(fw, args.tol)
    if res.holds:
        out.say("conic condition: holds (nothing to flatten)", conic=True)
        return out.flush(1)
    flat = flatten(fw, res.witness, args.tol)
    doc = FrameworkDocument.from_framework(flat)
    text = serialize_framework_document(doc, as_json=args.json)
    out.put(conic=False, witness=res.witness,
            affine_dimension_before=affine_dimension(fw, args.tol),
            affine_dimension_after=affine_dimension(flat, args.tol),
            flattened=json.loads(text) if args.json else None)
    out.say("conic condition: violated; flattened framework follows")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        out.say(f"written to {args.out}")
    else:
        out.say(text.rstrip("\n"))
    return out.flush(0)


def cmd_lift(args) -> int:
    from .documents import (
        FrameworkDocument,
        GraphDocument,
        parse_document,
        serialize_framework_document,
        serialize_graph_document,
    )

    out = _Output(args.json)
    doc = parse_document(_read_text(args.document))
    if isinstance(doc, FrameworkDocument):
        fw, _ = doc.to_framework()
        g = fw.graph
    else:
        if args.svg:
            raise DocumentError("--svg needs a framework document for coordinates")
        fw, g = None, doc.to_graph()
    window = g.lift_window(args.start, args.end)
    order = sorted(window.vertices)
    index = {vs: i for i, vs in enumerate(order, start=1)}
    lines = [f"# lift window of {args.document} for shifts {args.start}..{args.end}"]
    for (v, s), i in sorted(index.items(), key=lambda kv: kv[1]):
        lines.append(f"# vertex {i} = orbit {v}, shift {s}")
    edges = sorted((*sorted(index[x] for x in e), 0) for e in window.edges)
    gdoc = GraphDocument(len(order), tuple(edges))
    if fw is None:
        body = serialize_graph_document(gdoc, as_json=args.json)
    else:
        positions = tuple((i, tuple(map(float, fw.position(v) + s * fw.lattice)))
                          for i, (v, s) in enumerate(order, start=1))
        fdoc = FrameworkDocument(gdoc, fw.dim, positions, tuple(float(c) for c in fw.lattice))
        body = serialize_framework_document(fdoc, as_json=args.json)
        if args.svg:
            if fw.dim != 2:
                raise DocumentError("svg output needs a 2-dimensional framework")
            Path(args.svg).write_text(_svg_window(window, fw, index), encoding="utf-8")
            lines.append(f"# svg written to {args.svg}")
    out.put(vertices=len(order), edges=window.m,
            mapping={str(i): [v, s] for (v, s), i in index.items()})
    if args.json:
        out.put(document=json.loads(body))
        return out.flush(0)
    print("\n".join(lines))
    print(body, end="")
    return 0


def _svg_window(window, fw, index) -> str:
    pts = {}
    for (v, s), i in index.items():
        pts[i] = fw.position(v) + s * fw.lattice
    xs = [p[0] for p in pts.values()]
    ys = [p[1] for p in pts.values()]
    pad = 1.0
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad
    scale = 60.0

    def sx(p):
        return (p[0] - x0) * scale

    def sy(p):
        return (h - (p[1] - y0)) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w * scale:.0f}" '
        f'height="{h * scale:.0f}" viewBox="0 0 {w * scale:.1f} {h * scale:.1f}">'
    ]
    for e in window.edges:
        a, b = tuple(e)
        pa, pb = pts[index[a]], pts[index[b]]
        parts.append(
            f'<line x1="{sx(pa):.1f}" y1="{sy(pa):.1f}" x2="{sx(pb):.1f}" '
            f'y2="{sy(pb):.1f}" stroke="black" stroke-width="2"/>'
        )
    for i, p in pts.items():
        parts.append(f'<circle cx="{sx(p):.1f}" cy="{sy(p):.1f}" r="5" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_verify_cert(args) -> int:
    from .certificates import CertificateError, certificate_from_json_dict

    out = _Output(args.json)
    g = _read_graph(args.graph)
    try:
        data = json.loads(_read_text(args.certificate))
    except (ValueError, RecursionError) as exc:
        raise CertificateError(f"certificate is not valid JSON: {exc}") from None
    verdict = certificate_from_json_dict(data)
    try:
        verdict.verify(g)
    except BoundExceededError:
        raise  # too large to check is no verdict on the certificate
    except RealdimError as exc:
        out.say(f"certificate: INVALID ({exc})", valid=False, reason=str(exc))
        return out.flush(1)
    out.say(
        f"certificate: valid ({verdict.certificate_kind}, dimension {verdict.dimension_bound}, "
        f"answer {'yes' if verdict.answer else 'no'})",
        valid=True,
        kind=verdict.certificate_kind,
    )
    return out.flush(0)


def cmd_selftest(args) -> int:
    import random

    import numpy as np

    from .certificates import certificate_from_json_dict, certificate_to_json_dict
    from .frameworks import affine_dimension, conic_condition, flatten, span_check
    from .graphs import GainGraph
    from .minors import contains_forbidden
    from .randgen import (
        random_framework,
        random_isomorphic_copy,
        random_simple_gain_graph,
    )
    from .realizability import is_1_realizable, is_2_realizable

    out = _Output(args.json)
    rng = random.Random(args.seed)

    failures = 0

    def suite(name, ok):
        nonlocal failures
        out.say(f"{name}: {'ok' if ok else 'FAIL'}", **{name.replace(" ", "_"): ok})
        if not ok:
            failures += 1

    ok = True
    for _ in range(args.count):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        for dim, decide in ((1, is_1_realizable), (2, is_2_realizable)):
            verdict = decide(g)
            if verdict.answer != (not contains_forbidden(g, dim)):
                ok = False
            text = json.dumps(certificate_to_json_dict(verdict))
            try:
                certificate_from_json_dict(json.loads(text)).verify(g)
            except RealdimError:
                ok = False
    suite("oracle agreement", ok)

    ok = True
    for _ in range(args.count):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        h = random_isomorphic_copy(rng, g)
        if g.canonical_form() != h.canonical_form():
            ok = False
        if g.is_balanced() != h.is_balanced():
            ok = False
    suite("isomorphism invariance", ok)

    ok = True
    for _ in range(args.count):
        g = random_simple_gain_graph(rng, max_vertices=5, max_edges=8)
        if not span_check(g).agrees():
            ok = False
    suite("span rank agreement", ok)

    ok = True
    for _ in range(max(3, args.count // 5)):
        g = GainGraph.of(3, [(1, 2, 0), (1, 3, 0), (2, 3, 0)])
        fw = random_framework(rng, g, 3)
        if affine_dimension(fw) != 3:
            continue
        res = conic_condition(fw)
        if res.holds:
            ok = False
            continue
        flat = flatten(fw, res.witness)
        if affine_dimension(flat) >= 3:
            ok = False
        if not np.allclose(flat.squared_lengths(), fw.squared_lengths(), rtol=1e-9, atol=1e-9):
            ok = False
    suite("flattening", ok)

    return out.flush(0 if failures == 0 else 1)


# -- parser ---------------------------------------------------------------------------


def _finite_positive(kind):
    """An argparse ``type`` that reads a ``kind`` number and refuses it
    unless it is finite and positive; argparse's error names it by its
    ``__name__``."""
    def parse(text: str):
        value = kind(text)
        if not 0 < value < math.inf:
            raise ValueError(text)
        return value
    parse.__name__ = f"finite positive {kind.__name__}"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="realdim",
        description="Realizable dimension of one-dimensionally periodic graphs: "
        "deciders with certificates and periodic framework numerics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--json", action="store_true", help="emit one JSON object on stdout")
    parser.add_argument("--tol", type=_finite_positive(float), default=None,
                        help="relative numeric tolerance (default 1e-8, scale-aware)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide 1- and 2-realizability with certificates")
    p.add_argument("graph", help="graph document, or a directory: classify each document in it")
    p.add_argument("--cert-out", help="prefix for emitted certificate files")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("minor", help="exhaustive labelled minor search")
    p.add_argument("graph")
    p.add_argument("--pattern", required=True,
                   help="k3-balanced | k4-balanced | k2-bullet | k3-bulletbullet | file:<path>")
    p.set_defaults(func=cmd_minor)

    p = sub.add_parser("balance", help="balance test with witness or normalizing switches")
    p.add_argument("graph")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("stress", help="equilibrium stress kernel, or verify given weights")
    p.add_argument("framework")
    p.add_argument("--weights", help="stress document (defaults to the framework's stress block)")
    p.set_defaults(func=cmd_stress)

    p = sub.add_parser("superstable", help="verify a super-stability certificate")
    p.add_argument("framework")
    p.add_argument("--weights")
    p.set_defaults(func=cmd_superstable)

    p = sub.add_parser("flatten", help="conic check; emit a lower-dimensional equivalent")
    p.add_argument("framework")
    p.add_argument("--out", help="write the flattened framework document here")
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("lift", help="materialize a finite window of the periodic lift")
    p.add_argument("document", help="graph document, or framework document for positions")
    p.add_argument("--from", dest="start", type=int, required=True, metavar="SHIFT")
    p.add_argument("--to", dest="end", type=int, required=True, metavar="SHIFT")
    p.add_argument("--svg", help="write a drawing here (2-dimensional framework documents)")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("verify-cert", help="replay a certificate emitted by classify")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("selftest", help="seeded randomized property sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_finite_positive(int), default=40)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BoundExceededError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("bound exceeded: out of memory for this input", file=sys.stderr)
        return 3
    except OSError as exc:  # _read_text reports input files, so a file being written
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except RealdimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
