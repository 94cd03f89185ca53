"""Set-up probe: a fresh interpreter imports orbitrig and loads every
input of a workload.  ``run.py`` times whole runs of this script.

    python3 perfbench/setup_probe.py perfbench/out/<workload>-seed<n>/ops.json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orbitrig.cli import parse_framework  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as fh:
    ops = json.load(fh)
for op in ops:
    if op["input"] is not None:
        with open(op["input"], encoding="utf-8") as fh:
            parse_framework(json.load(fh))
