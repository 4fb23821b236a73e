"""One pass of one workload, in a fresh interpreter; prints one JSON line.

``run.py`` starts this script once per pass, so the package's module
caches (``minors._canonical``, ``minors._VERDICT_CACHE``) start empty
on every pass, as they do for each command a user runs.  ``--started``
is the ``time.monotonic()`` reading taken just before the process was
started; set-up time runs from there to the first timed call.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1, help="divide input sizes (smoke test)")
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--out", required=True, help="scratch directory for documents and spans")
    args = parser.parse_args()

    import numpy

    import realdim

    import inputs
    import workloads
    from tracer import Tracer

    data = inputs.BUILDERS[args.workload](args.seed, args.scale)
    digest = inputs.digest(data)

    ps = workloads.Pass()
    out = Path(args.out)
    workdir = out / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        ps.untraced = tracer.paused
    try:
        if args.workload == "cli":
            workloads.cli(ps, realdim, data, workdir, in_process=bool(args.trace))
        else:
            getattr(workloads, args.workload.replace("-", "_"))(ps, realdim, data)
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "setup_s": ps.first_call - args.started,
        "times": ps.times,
        "peak_rss_mib": workloads.peak_rss_mib(
            children=args.workload == "cli" and not args.trace),
        "attempted": ps.attempted,
        "failed": ps.failed,
        "wrong": ps.wrong,
        "faults": ps.faults,
        "digest": digest,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "realdim": realdim.__file__,
    }
    if tracer:
        layers = tracer.metrics()
        layers["certificates.json_bytes"] = ps.json_bytes
        layers["certificates.tree_nodes"] = ps.tree_nodes
        layers["certificates.tree_depth"] = ps.tree_depth
        layers["cli.import_s"], layers["cli.modules_imported"] = workloads.cli_import_probe()
        result["layers"] = layers
        tracer.write_spans(out / f"spans-{args.workload}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
