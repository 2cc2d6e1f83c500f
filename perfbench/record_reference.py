"""Record the expected verdicts of the seven verify batteries.

    python3 perfbench/record_reference.py

Writes ``perfbench/verify_reference.json``: per battery, its argv, the exit
code, the ``[name, pass]`` list of its checks, and the sha256 of the report.
The verify workload fails an operation whose exit code or verdicts differ;
the sha256 is only reported.  Regenerate it when a change is meant to alter
the verify battery, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, workloads  # noqa: E402

COMMAND = "python3 perfbench/record_reference.py"


def main() -> int:
    batteries = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "verify.json"
        for name, args in workloads.BATTERIES.items():
            code, stderr = workloads.run_cli(["verify", *args, "-o", str(out)])
            if stderr:
                raise SystemExit(f"battery {name} failed: {stderr}")
            raw = out.read_bytes()
            batteries[name] = {
                "argv": args,
                "exit_code": code,
                "checks": workloads.verdicts(json.loads(raw)),
                "report_sha256": hashlib.sha256(raw).hexdigest(),
            }
    doc = {"command": COMMAND, "git_commit": run.git_commit(), "batteries": batteries}
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
