"""One pass over each workload's fixed input set.

A pass times only calls into the package: ``decide_s`` sums the calls
that compute answers (deciders, bounds, certificates to JSON, minor
search, framework analysis, answering CLI commands) and ``verify_s``
the calls that check an emitted certificate (certificate replay,
super-stability verification, ``verify-cert`` and ``superstable``).
Every operation is checked right after it runs, untimed, by ``checks``.

Operations kept for a named fault are run untimed.  While the fault
stands they fail the same way on every pass; they count as attempted and
failed, and leave ``correct`` alone unless they return a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from inputs import MINOR_SUBSET_STEP, graph_json, graph_text

# Workloads whose timed calls fill no module cache repeat them in a second
# sweep of each pass: twice the samples per operation for the same set-up
# and the same untimed named-fault operations.
SWEEPS = 2

KNOWN_D2 = {"cycle": True, "two-tree": True, "necklace": True, "tree": True}

FAULTS = {
    "deep-recursion": "the d=2 recursion and certificate trees are as deep as the graph, "
                      "so they exhaust the default recursion limit",
    "reason-trace": "a d=2 'no' beyond 8 vertices / 16 edges carries a reason trace, "
                    "which cannot be replayed",
    "int64-overflow": "exact stress_matrix stores integer weights as int64",
    "cli-keyerror": "a missing JSON field exits 1 with a KeyError traceback, not 2",
}


class Fault(Exception):
    """An operation kept for a named fault failed the way the fault predicts."""


class Pass:
    """Operation accounting and timing for one pass."""

    def __init__(self):
        self.times = {"decide_s": {}, "verify_s": {}}  # metric -> operation -> seconds
        self._spent = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.faults = {}
        self.first_call = None
        self.untraced = contextlib.nullcontext  # the tracer's pause, in a traced pass
        self.json_bytes = 0
        self.tree_nodes = 0
        self.tree_depth = 0

    def time(self, metric, fn, *args):
        """Call ``fn`` and add its wall time to the current operation's
        ``metric`` (None: untimed)."""
        if metric is None:
            return fn(*args)
        if self.first_call is None:
            self.first_call = time.monotonic()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._spent[metric] = self._spent.get(metric, 0.0) + time.perf_counter() - start

    def op(self, name, body):
        """Run one operation; ``body`` returns None, or the reason it is wrong.

        An operation's time is the sum of its timed calls; an operation run
        again in a later sweep of the same pass keeps its fastest time."""
        self.attempted += 1
        self._spent = {}
        try:
            reason = body()
        except Exception as exc:  # an exception is a wrong result here
            reason = f"{type(exc).__name__}: {exc}"[:300]
        for metric, spent in self._spent.items():
            per_op = self.times[metric]
            per_op[name] = min(per_op.get(name, spent), spent)
        if reason:
            self.failed += 1
            self.wrong.append(f"{name}: {reason}")

    def fault_op(self, name, fault, body):
        """An operation kept for a named fault; passes once the fault is mended.
        It is neither timed nor traced."""
        self.attempted += 1
        try:
            with self.untraced():
                reason = body()
        except Exception as exc:  # the predicted failure, or another one
            self.failed += 1
            key = f"{name} [{type(exc).__name__}; {FAULTS[fault]}]"
            self.faults[key] = self.faults.get(key, 0) + 1
            return
        if reason:
            self.failed += 1
            self.wrong.append(f"{name}: {reason}")

    def note_certificates(self, texts):
        for text in texts:
            self.json_bytes += len(text)
            nodes, depth = checks.tree_size(json.loads(text))
            self.tree_nodes += nodes
            self.tree_depth = max(self.tree_depth, depth)


# -- graph operations ----------------------------------------------------------------


def _classify(ps, rd, g):
    """What ``realdim classify --cert-out`` computes for one graph."""
    certs = rd.certificates

    def run():
        v1 = rd.is_1_realizable(g)
        v2 = rd.is_2_realizable(g)
        bounds = rd.realizable_dimension_bounds(g)
        texts = [json.dumps(certs.certificate_to_json_dict(v), indent=2) for v in (v1, v2)]
        return v1, v2, bounds, texts

    return ps.time("decide_s", run)


def _classify_op(ps, rd, name, plain, g, known_d2, out):
    def body():
        v1, v2, bounds, texts = _classify(ps, rd, g)
        out[name] = (v1, v2, texts)
        ps.note_certificates(texts)
        for dim, verdict, text in ((1, v1, texts[0]), (2, v2, texts[1])):
            reason = checks.certificate_shape(json.loads(text), dim, verdict.answer)
            if reason:
                return reason
        return checks.verdicts(plain, v1.answer, v2.answer, bounds.as_tuple(), known_d2)

    ps.op(f"classify {name}", body)


def _verify_op(ps, rd, name, g, out):
    def body():
        if name not in out:
            return "nothing to verify: classify failed"
        for text in out[name][2]:
            data = json.loads(text)
            verdict = ps.time("verify_s", _replay, rd, data, g)
            if verdict is not True:
                return f"verify() returned {verdict!r}"
        return None

    ps.op(f"verify {name}", body)


def _replay(rd, data, g):
    return rd.certificates.certificate_from_json_dict(data).verify(g)


def sparse_large(ps, rd, data):
    graphs = [(f"{item['family']} n={item['graph'][0]}", item["family"], item["graph"],
               rd.GainGraph.of(*item["graph"])) for item in data["graphs"]]
    fault_cycle = rd.GainGraph.of(*data["fault_cycle"])
    fault_tree = rd.GainGraph.of(*data["fault_tree"])
    out = {}
    for _ in range(SWEEPS):
        for name, family, plain, g in graphs:
            _classify_op(ps, rd, name, plain, g, KNOWN_D2.get(family), out)
            _verify_op(ps, rd, name, g, out)

    def cycle_d2():
        v2 = rd.is_2_realizable(fault_cycle)
        return None if v2.answer else "a cycle answered d=2 'no'"

    ps.fault_op(f"is_2_realizable cycle n={fault_cycle.n}", "deep-recursion", cycle_d2)
    tree = {}

    def tree_json():
        tree["v1"] = rd.is_1_realizable(fault_tree)
        json.dumps(rd.certificates.certificate_to_json_dict(tree["v1"]))
        return None if tree["v1"].answer else "a tree answered d=1 'no'"

    def tree_verify():
        v1 = tree.get("v1") or rd.is_1_realizable(fault_tree)
        return None if v1.verify(fault_tree) is True else "verify() did not return True"

    ps.fault_op(f"d=1 certificate to JSON, tree n={fault_tree.n}", "deep-recursion", tree_json)
    ps.fault_op(f"d=1 verify, tree n={fault_tree.n}", "deep-recursion", tree_verify)


PATTERN_NAMES = ("k2-bullet", "k3-balanced", "k3-bulletbullet", "k4-balanced")


def _patterns(rd):
    return {
        "k2-bullet": rd.MinorPattern.family("k2-bullet"),
        "k3-balanced": rd.balanced_complete_pattern(3),
        "k3-bulletbullet": rd.MinorPattern.family("k3-bulletbullet"),
        "k4-balanced": rd.balanced_complete_pattern(4),
    }


def small_dense(ps, rd, data):
    patterns = _patterns(rd)
    corpus = [(f"corpus[{i}]", plain, rd.GainGraph.of(*plain))
              for i, plain in enumerate(data["corpus"])]
    hosts = [(h["name"], h["graph"], rd.GainGraph.of(*h["graph"])) for h in data["hosts"]]
    fault_hosts = [(h["name"], rd.GainGraph.of(*h["graph"])) for h in data["fault_hosts"]]
    out = {}
    for i, (name, plain, g) in enumerate(corpus):
        _classify_op(ps, rd, name, plain, g, None, out)
        _verify_op(ps, rd, name, g, out)

        def oracle(name=name, g=g):
            forbidden = ps.time("decide_s", lambda: (rd.contains_forbidden(g, 1),
                                                    rd.contains_forbidden(g, 2)))
            out[name + " oracle"] = forbidden
            if name not in out:
                return "no verdicts to compare: classify failed"
            v1, v2 = out[name][0].answer, out[name][1].answer
            if (v1, v2) != (not forbidden[0], not forbidden[1]):
                return f"verdicts {(v1, v2)} but forbidden minors {forbidden}"
            return None

        ps.op(f"oracle {name}", oracle)
        if i % MINOR_SUBSET_STEP == 0:

            def minors(name=name, g=g):
                found = ps.time("decide_s", lambda: {
                    p: rd.has_minor(g, patterns[p]) for p in PATTERN_NAMES})
                for p, witness in found.items():
                    if witness is not None and not witness.verify(g):
                        return f"{p} witness does not replay"
                forbidden = out.get(name + " oracle")
                if forbidden is None:
                    return "no oracle answer to compare"
                has = {p: w is not None for p, w in found.items()}
                if (has["k2-bullet"] or has["k3-balanced"]) != forbidden[0]:
                    return f"d=1 patterns {has} disagree with the oracle"
                if (has["k3-bulletbullet"] or has["k4-balanced"]) != forbidden[1]:
                    return f"d=2 patterns {has} disagree with the oracle"
                return None

            ps.op(f"has_minor {name}", minors)
    for name, plain, g in hosts:
        _classify_op(ps, rd, name, plain, g, False, out)
        _verify_op(ps, rd, name, g, out)
    for name, g in fault_hosts:

        def replay(g=g):
            v2 = rd.is_2_realizable(g)
            if v2.answer:
                return "a two-connected min-degree-three graph answered d=2 'yes'"
            data2 = json.loads(json.dumps(rd.certificates.certificate_to_json_dict(v2)))
            verdict = rd.certificates.certificate_from_json_dict(data2).verify(g)
            return None if verdict is True else "verify() did not return True"

        ps.fault_op(f"d=2 certificate replay {name}", "reason-trace", replay)
    # Untimed and last, so the caches these calls fill cannot speed a timed call.
    for (name, plain, _), copy in zip(corpus, data["copies"]):

        def iso(name=name, copy=copy):
            h = rd.GainGraph.of(*copy)
            if name not in out:
                return "no verdicts to compare: classify failed"
            got = (rd.is_1_realizable(h).answer, rd.is_2_realizable(h).answer)
            want = (out[name][0].answer, out[name][1].answer)
            return None if got == want else f"isomorphic copy answers {got}, original {want}"

        ps.op(f"isomorphic copy {name}", iso)


# -- frameworks ---------------------------------------------------------------------------


def _framework(rd, item):
    g = rd.GainGraph.of(*item["graph"])
    return g, rd.QuotientFramework(g, item["positions"], item["lattice"])


def frameworks(ps, rd, data):
    for _ in range(SWEEPS):
        _frameworks_sweep(ps, rd, data)
    fault = data["fault_overflow"]
    gf = rd.GainGraph.of(*fault["graph"])

    def overflow():
        L = rd.stress_matrix(gf, rd.StressVector.from_sequence(gf, fault["weights"]))
        own = checks.exact_stress_matrix(fault["graph"], fault["weights"])
        return None if [[int(x) for x in row] for row in L.tolist()] == own else \
            "exact stress matrix with a large weight is wrong"

    ps.fault_op("exact stress_matrix, weight 10^19", "int64-overflow", overflow)


def _frameworks_sweep(ps, rd, data):
    for item in data["complete"]:
        n, dim = item["graph"][0], len(item["lattice"])
        g, fw = _framework(rd, item)
        weights = item["weights"]

        def analyse(item=item, g=g, fw=fw):
            def run():
                return rd.rigidity_matrix(fw), rd.stress_kernel(fw), rd.construct_psd_stress(fw)

            R, kernel, stress = ps.time("decide_s", run)
            if stress is None:
                return "no PSD stress for a complete-type quotient"
            report = ps.time("verify_s", rd.verify_super_stable, fw, stress)
            span = ps.time("verify_s", rd.span_check, g)
            place = (item["graph"], item["positions"], item["lattice"])
            own_R = checks.rigidity(*place)
            if R.shape != own_R.shape or not abs(R - own_R).max() <= checks.TOL * max(
                    1.0, abs(own_R).max()):
                return "rigidity matrix differs from I-weighted edge vectors"
            for omega in list(kernel) + [stress.as_array(g)]:
                reason = checks.equilibrium(*place, omega)
                if reason:
                    return reason
            if not report.verified:
                return f"constructed PSD stress does not verify: {report.as_dict()}"
            if span.rank != checks.indicator_span_rank(item["graph"]):
                return f"span_check rank {span.rank} differs from numpy's"
            return None

        ps.op(f"analyse complete n={n} d={dim}", analyse)

        def exact(item=item, g=g, weights=weights):
            stress = rd.StressVector.from_sequence(g, weights)
            L = ps.time("decide_s", rd.stress_matrix, g, stress)
            sig = ps.time("decide_s", rd.signature, L)
            own = checks.exact_stress_matrix(item["graph"], weights)
            if L.tolist() != own:
                return "exact stress matrix differs from I^T diag(w) I"
            if sig.as_tuple() != checks.inertia(own):
                return f"signature {sig.as_tuple()} differs from eigvalsh {checks.inertia(own)}"
            return None

        ps.op(f"exact stress n={n} d={dim}", exact)
    for item in data["flatten"]:
        n = item["graph"][0]
        _, fw = _framework(rd, item)

        def flatten(item=item, fw=fw, n=n):
            start = (item["positions"], item["lattice"])
            if checks.affine_dimension(*start) != n:
                return "input is not in general position"
            current = fw
            for _ in range(n):
                if checks.affine_dimension(current.positions, current.lattice) <= n - 1:
                    break
                res = ps.time("decide_s", rd.conic_condition, current)
                if res.holds:
                    return f"conic condition holds at ambient dimension {current.dim}"
                current = ps.time("decide_s", lambda c=current, w=res.witness:
                                  rd.restrict_to_affine_span(rd.flatten(c, w)))
            end = (current.positions, current.lattice)
            reason = checks.lengths_kept(item["graph"], start, end)
            if reason:
                return reason
            got = checks.affine_dimension(*end)
            if got != n - 1 or current.dim != n - 1:
                return f"flattening ended at affine dimension {got}, ambient {current.dim}"
            return None

        ps.op(f"flatten non-spanning n={n}", flatten)
    worked = data["worked"]
    g, fw = _framework(rd, worked)

    def worked_example():
        stress = rd.StressVector.from_sequence(g, worked["stress"])
        L = ps.time("decide_s", rd.stress_matrix, g, stress)
        sig = ps.time("decide_s", rd.signature, L)
        report = ps.time("verify_s", rd.verify_super_stable, fw, stress)
        if L.tolist() != worked["stress_matrix"]:
            return f"stress matrix {L.tolist()} differs from the published one"
        if sig.as_tuple() != tuple(worked["signature"]):
            return f"signature {sig.as_tuple()} differs from the published {worked['signature']}"
        return None if report.verified else "worked example does not verify as super-stable"

    ps.op("worked example", worked_example)


# -- command line ---------------------------------------------------------------------------


class Cli:
    """Runs ``realdim`` commands as processes, or in-process for the traced run."""

    def __init__(self, in_process, rd):
        self.in_process = in_process
        self.rd = rd
        if in_process:
            import realdim.cli  # noqa: F401  (makes rd.cli available)

    def __call__(self, ps, metric, argv):
        if not self.in_process:
            proc = ps.time(metric, lambda: subprocess.run(
                [sys.executable, "-m", "realdim.cli", *argv],
                capture_output=True, text=True, timeout=120))
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ps.time(metric, self.rd.cli.main, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # what an uncaught exception does to a process
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()


def _expect(code, want, stdout, stderr):
    if code != want:
        return f"exit {code}, expected {want}: {(stderr or stdout).strip()[-200:]}"
    return None


def cli(ps, rd, data, workdir: Path, in_process: bool):
    run = Cli(in_process, rd)
    docs = {}
    for name, graph, fmt, known in data["graphs"]:
        path = workdir / (f"{name}.json" if fmt == "json" else f"{name}.graph")
        path.write_text(graph_json(graph, name) if fmt == "json" else graph_text(graph, name))
        docs[name] = (path, graph, known)
    fw_paths = {}
    for name, text in data["frameworks"].items():
        fw_paths[name] = workdir / f"{name}.framework"
        fw_paths[name].write_text(text)
    bad_doc = workdir / "no-vertices.json"
    bad_doc.write_text(data["no_vertices"])
    bad_cert = workdir / "no-target.cert.json"
    bad_cert.write_text(data["no_target_cert"])

    for name, (path, graph, known) in docs.items():
        def classify(name=name, path=path, graph=graph, known=known):
            prefix = workdir / f"{name}.cert"
            code, stdout, stderr = run(ps, "decide_s",
                                       ["--json", "classify", str(path), "--cert-out", str(prefix)])
            reason = _expect(code, 0 if known else 1, stdout, stderr)
            if reason:
                return reason
            res = json.loads(stdout)
            for dim, key in ((1, "one_realizable"), (2, "two_realizable")):
                cert = json.loads(Path(f"{prefix}.d{dim}.json").read_text())
                reason = checks.certificate_shape(cert, dim, res[key])
                if reason:
                    return reason
            return checks.verdicts(graph, res["one_realizable"], res["two_realizable"],
                                   tuple(res["bounds"]), known)

        ps.op(f"cli classify {name}", classify)
    for name in ("ladder", "two-tree", "K4", "tree"):
        def verify(name=name):
            cert = workdir / f"{name}.cert.d2.json"
            code, stdout, stderr = run(ps, "verify_s",
                                       ["--json", "verify-cert", str(docs[name][0]), str(cert)])
            return _expect(code, 0, stdout, stderr) or (
                None if json.loads(stdout).get("valid") is True else "certificate not valid")

        ps.op(f"cli verify-cert {name}", verify)
    for name in ("two-tree", "cycle"):
        def balance(name=name):
            path, graph, _ = docs[name]
            code, stdout, stderr = run(ps, "decide_s", ["--json", "balance", str(path)])
            return _expect(code, 0 if checks.balanced(graph) else 1, stdout, stderr)

        ps.op(f"cli balance {name}", balance)
    for pattern, want in (("k3-bulletbullet", 1), ("k4-balanced", 0)):
        def minor(pattern=pattern, want=want):
            code, stdout, stderr = run(ps, "decide_s", ["--json", "minor", str(docs["ladder"][0]),
                                                        "--pattern", pattern])
            return _expect(code, want, stdout, stderr)

        ps.op(f"cli minor ladder {pattern}", minor)
    worked = data["worked"]

    def stress_worked():
        code, stdout, stderr = run(ps, "decide_s", ["--json", "stress", str(fw_paths["worked"])])
        reason = _expect(code, 0, stdout, stderr)
        if reason:
            return reason
        res = json.loads(stdout)
        if res["stress_matrix"] != worked["stress_matrix"]:
            return f"stress matrix {res['stress_matrix']} differs from the published one"
        if tuple(res["signature"]) != tuple(worked["signature"]):
            return f"signature {res['signature']} differs from the published one"
        return None

    ps.op("cli stress worked", stress_worked)

    def stress_kernel():
        code, stdout, stderr = run(ps, "decide_s", ["--json", "stress", str(fw_paths["complete"])])
        reason = _expect(code, 0, stdout, stderr)
        if reason:
            return reason
        place = data["framework_inputs"]["complete"]
        kernel = json.loads(stdout)["kernel"]
        R = checks.rigidity(*place)
        expected = R.shape[0] - int(np.linalg.matrix_rank(R))
        if len(kernel) != expected:
            return f"stress space of dimension {len(kernel)}, numpy says {expected}"
        for omega in kernel:
            reason = checks.equilibrium(*place, omega)
            if reason:
                return reason
        return None

    ps.op("cli stress complete", stress_kernel)
    for name, want in (("worked", 0), ("perturbed", 1)):
        def superstable(name=name, want=want):
            code, stdout, stderr = run(ps, "verify_s",
                                       ["--json", "superstable", str(fw_paths[name])])
            return _expect(code, want, stdout, stderr)

        ps.op(f"cli superstable {name}", superstable)

    def flatten_flat():
        code, stdout, stderr = run(ps, "decide_s", ["--json", "flatten", str(fw_paths["flat"])])
        reason = _expect(code, 0, stdout, stderr)
        if reason:
            return reason
        graph, positions, lattice = data["framework_inputs"]["flat"]
        doc = json.loads(stdout)["flattened"]
        after = ([doc["positions"][str(v)] for v in range(1, graph[0] + 1)], doc["lattice"])
        reason = checks.lengths_kept(graph, (positions, lattice), after)
        if reason:
            return reason
        got = checks.affine_dimension(*after)
        return None if got == graph[0] - 1 else f"flattened to affine dimension {got}"

    ps.op("cli flatten non-spanning", flatten_flat)

    def flatten_worked():
        code, stdout, stderr = run(ps, "decide_s", ["--json", "flatten", str(fw_paths["worked"])])
        return _expect(code, 1, stdout, stderr)

    ps.op("cli flatten worked", flatten_worked)

    def exit_two(argv):
        def body():
            code, stdout, stderr = run(ps, None, argv)
            if code == 0:
                return "malformed input accepted"
            if code != 2 or "Traceback" in stderr:
                raise Fault(f"exit {code}")
            return None

        return body

    ps.fault_op("cli classify, JSON graph without 'vertices'", "cli-keyerror",
                exit_two(["classify", str(bad_doc)]))
    ps.fault_op("cli verify-cert, certificate op without 'target'", "cli-keyerror",
                exit_two(["verify-cert", str(docs["ladder"][0]), str(bad_cert)]))


def peak_rss_mib(children):
    """Peak resident set of this process, or of its largest child process."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cli_import_probe():
    """Import time and module count of ``realdim.cli`` in a fresh interpreter."""
    code = ("import sys, time; before = len(sys.modules); t = time.perf_counter(); "
            "import realdim.cli; print(time.perf_counter() - t, len(sys.modules) - before)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=os.environ.copy())
    seconds, count = proc.stdout.split()
    return float(seconds), int(count)
