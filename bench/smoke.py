"""Smoke test of the benchmark itself.

Run from the repository root::

    python3 bench/smoke.py

1. Every workload runs end to end at a reduced size, untraced and traced,
   and reports exactly the metrics ``BENCHMARK.json`` names, with their
   units, and a correct result.
2. A deliberately wrong answer is reported as a failed operation and
   never as a pass: a flipped verdict, a perturbed stress and a tampered
   certificate are each injected into a pass run in this process.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCALE = 4


def run_workloads(spec):
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, names in ((0, e2e), (1, layers)):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
                   "--seconds", "0", "--trace", str(trace), "--scale", str(SCALE)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
            assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, proc.stdout[-2000:]
            assert result["attempted"] >= 1
            assert list(result["metrics"]) == names, (workload, trace, list(result["metrics"]))
            for name, metric in result["metrics"].items():
                assert metric["unit"] == units[name], (name, metric)
                if not trace:
                    assert metric["value"] > 0, (workload, name, metric)
            print(f"ok  {workload} trace={trace}: {result['failed']}/{result['attempted']} "
                  f"failed as named")


def run_pass(rd, workload, data):
    import workloads

    ps = workloads.Pass()
    getattr(workloads, workload)(ps, rd, data)
    return ps


def injected_faults():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import inputs
    import realdim as rd

    def flip(original):
        def decide(g):
            verdict = original(g)
            return dataclasses.replace(verdict, answer=not verdict.answer)
        return decide

    def perturb(original):
        def construct(fw, tol=None):
            stress = original(fw, tol)
            first = next(iter(stress.weights))
            weights = {**stress.weights, first: stress.weights[first] + 0.5}
            return rd.StressVector(weights, stress.lattice)
        return construct

    def tamper(original):
        def to_json(verdict):
            data = original(verdict)
            if data["kind"] == "minor-witness" and data["ops"]:
                data["ops"] = data["ops"][:-1]
            elif data["kind"] == "decomposition-tree" and data["root"].get("children"):
                data["root"] = data["root"]["children"][0]
            return data
        return to_json

    cases = [
        ("flipped d=2 verdict", "sparse_large", inputs.sparse_large(0, SCALE),
         rd, "is_2_realizable", flip),
        ("flipped d=2 verdict", "small_dense", inputs.small_dense(0, SCALE),
         rd, "is_2_realizable", flip),
        ("perturbed PSD stress", "frameworks", inputs.frameworks(0, SCALE),
         rd, "construct_psd_stress", perturb),
        ("tampered certificate", "sparse_large", inputs.sparse_large(0, SCALE),
         rd.certificates, "certificate_to_json_dict", tamper),
    ]
    for label, workload, data, owner, attr, make in cases:
        clean = run_pass(rd, workload, data)
        assert not clean.wrong, clean.wrong
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        try:
            bad = run_pass(rd, workload, data)
        finally:
            setattr(owner, attr, original)
        assert bad.attempted == clean.attempted
        assert bad.wrong and bad.failed > clean.failed, (label, bad.failed, clean.failed)
        print(f"ok  {label} in {workload}: {bad.failed - clean.failed} more operations failed, "
              f"e.g. {bad.wrong[0][:100]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_workloads(spec)
    injected_faults()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
