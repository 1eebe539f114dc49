"""Record the reference enclosures of limit-anchored: reference/limit-anchored.json.

    python3 perfbench/record_reference.py

Solves every fixture and pool game of limit-anchored once through the
CLI and records, per game, the SHA-256 of its file ("" for fixtures) and
its value and radius.  The workload's gate requires every later
enclosure to intersect the recorded one, since both are proofs, so
record only at a commit whose answers are trusted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import program
from workloads import WORKLOADS


def main() -> int:
    workload = WORKLOADS["limit-anchored"]
    source = subprocess.run(["git", "rev-parse", "HEAD"], cwd=program.ROOT,
                            capture_output=True, text=True).stdout.strip()
    mods = program.import_program()
    workdir = program.ROOT / ".perfbench" / "reference-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        solves = workload.build(0, workdir, mods)
        games = {}
        for solve in solves:
            outcome = program.call_cli(mods["cli"], list(solve.argv))
            if outcome.code != 0:
                raise SystemExit(f"{solve.argv}: exit {outcome.code}: {outcome.error}")
            payload = json.loads(outcome.stdout)
            games[solve.key] = {"value": payload["value"], "radius": payload["radius"],
                                "sha256": solve.sha256}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    body = {"command": " ".join((workload.command, "FILE", *workload.argv_tail)),
            "games": games, "source_commit": source}
    workload.reference_path.write_text(json.dumps(body, indent=0, sort_keys=True) + "\n",
                                       encoding="utf-8")
    print(f"{workload.name}: recorded {len(games)} games")
    return 0


if __name__ == "__main__":
    sys.exit(main())
