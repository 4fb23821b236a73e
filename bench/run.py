"""Benchmark for realdim: one workload, a fixed run length, one JSON result.

Run from the repository root::

    python3 bench/run.py --workload sparse-large --seed 1 --seconds 20 --trace 0

Workloads: sparse-large, small-dense, frameworks, cli (see README.md).
The run repeats whole passes over the workload's fixed input set until
``--seconds`` have passed (at least three passes), each pass in a fresh
interpreter (``worker.py``), one process computing at a time.  With
``--trace 0`` the result holds the end-to-end metrics: ``decide_s`` and
``verify_s`` sum each operation's fastest time over the run, the others
are medians over the passes.  With ``--trace 1`` the passes run with
spans around the package's public callables and the result holds the
per-module metrics instead, as medians over the passes.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("sparse-large", "small-dense", "frameworks", "cli")
END_TO_END = ("setup_s", "decide_s", "verify_s", "peak_rss_mib")
MIN_PASSES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_search"):
        return "ratio"
    return "count"


def pass_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_pass(args, root: Path, env: dict, budget: float) -> dict:
    started = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--scale", str(args.scale),
           "--started", repr(started), "--out", str(root / ".bench_out")]
    # A session of its own, so that a pass that overruns is stopped together
    # with any command process it started.
    with subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, budget))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}:\n{stderr[-3000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1,
                        help="divide input sizes by this factor (smoke test only)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "realdim" / "__init__.py").is_file():
        print(f"error: no realdim sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    env = pass_env(root)
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"workload {args.workload}, seed {args.seed}, trace {args.trace}", flush=True)

    passes = []
    begin = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - begin
        if len(passes) >= MIN_PASSES and elapsed >= args.seconds:
            break
        if passes and elapsed + longest > RUN_LIMIT_S:
            break
        t0 = time.monotonic()
        try:
            res = run_pass(args, root, env, RUN_LIMIT_S - elapsed)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        longest = max(longest, time.monotonic() - t0)
        if not Path(res["realdim"]).resolve().is_relative_to(root / "src"):
            print(f"error: realdim imported from {res['realdim']}, not from {root / 'src'}",
                  file=sys.stderr)
            return 1
        passes.append(res)
        for metric, per_op in res.pop("times").items():
            res[metric] = sum(per_op.values())
            res.setdefault("per_op", {})[metric] = per_op
        print(f"pass {len(passes)}: setup {res['setup_s']:.3f} s, decide {res['decide_s']:.3f} s,"
              f" verify {res['verify_s']:.3f} s, rss {res['peak_rss_mib']:.1f} MiB,"
              f" {res['failed']}/{res['attempted']} failed", flush=True)

    first = passes[0]
    print(f"numpy {first['numpy']}, inputs digest {first['digest']}")
    for name, count in sorted(first["faults"].items()):
        print(f"failed as named: {name} x{count}")
    wrong = [w for p in passes for w in p["wrong"]]
    for line in wrong[:20]:
        print(f"WRONG: {line}")
    same_inputs = len({p["digest"] for p in passes}) == 1
    same_ops = len({(p["attempted"], p["failed"]) for p in passes}) == 1
    if not same_inputs or not same_ops:
        print("WRONG: passes differ in their inputs or operation counts")

    if args.trace:
        names = list(first["layers"])
        samples = {k: [p["layers"][k] for p in passes] for k in names}
    else:
        names = list(END_TO_END)
        samples = {k: [p[k] for p in passes] for k in names}
    metrics = {k: {"value": statistics.median(v), "unit": unit(k)} for k, v in samples.items()}
    if not args.trace:
        # Interference from other processes only ever adds time, so each
        # operation's fastest pass is its least disturbed measurement.
        for metric in ("decide_s", "verify_s"):
            per_op = [p["per_op"][metric] for p in passes]
            common = set.intersection(*(set(ops) for ops in per_op))
            metrics[metric]["value"] = sum(min(ops[o] for ops in per_op) for o in common)
    result = {
        "correct": not wrong and same_inputs and same_ops,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
