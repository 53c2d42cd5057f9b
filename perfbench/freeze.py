"""Re-freeze the per-property verdict list in ``expected/verdicts.json``.

Usage, from the repository root: ``python3 perfbench/freeze.py``.  Runs
one whole-corpus campaign with the ``corpus-prove`` engine settings, in
the corpus's order, and records every property's status, plus the depth
for ``cex``/``covered``.  The list covers the heavy designs that
workload leaves out, and the service workload checks against it too: it
runs the same engine settings, only with ``frames`` of 30 or more.  Run
this only on purpose, when a verdict is meant to change.
"""

from __future__ import annotations

import json
import sys

import cli
import common


def main() -> int:
    sys.path.insert(0, str(common.SRC))
    child = common.run_child(["perfbench/campaign_proc.py",
                              ",".join(cli.corpus_order())], 600.0)
    doc = child.document()
    if doc is None or any(job["status"] != "ok"
                          for job in doc["jobs"].values()):
        print("freeze: campaign failed", file=sys.stderr)
        return 1
    frozen = {"corpus-prove": {
        job_id: {name: common.frozen_form(status, depth)
                 for name, _, status, depth in job["properties"]}
        for job_id, job in doc["jobs"].items()}}
    path = common.HERE / "expected" / "verdicts.json"
    path.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
