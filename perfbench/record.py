"""Record the exact-output digests that the benchmark's correctness gate checks.

    python3 perfbench/record.py

Runs every op whose exact outputs are gated (every saddle z any seed can
draw, every verify/oracle op and every onepoint CSV, at full and tiny size)
and writes ``perfbench/digests.json``.  Run it only at a commit whose outputs
are trusted; an op that fails here is left out, so the benchmark counts it as
failed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import workloads
from worker import DIGESTS, import_cli, op_failure, run_op

ROOT = Path(__file__).resolve().parent.parent


def gated_ops() -> list:
    ops = []
    for tiny in (False, True):
        ops += workloads.all_saddle_ops(tiny)
        ops += workloads.exact_verify(0, tiny)
        ops += [op for op in workloads.profile_artifacts(0, tiny) if op.exact_csv]
    return ops


def main() -> int:
    cli = import_cli(ROOT)
    digests = {}
    failed = 0
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as tmp:
        workdir = Path(tmp)
        os.chdir(workdir)
        for i, op in enumerate(gated_ops()):
            result = run_op(cli, op, workdir)
            failure = op_failure(result, {result["key"]: result["exact"]})
            if failure:
                failed += 1
                print(f"FAILED {op.key}: {failure}", file=sys.stderr)
                continue
            digests[op.key] = result["exact"]
            if i % 50 == 0:
                print(f"{i} ops recorded", file=sys.stderr)
        os.chdir(ROOT)
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests, {failed} ops failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
