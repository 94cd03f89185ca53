"""Record the expected verdicts and per-character ranks of the default
seed, which ``run.py`` checks every op of that seed against.

    python3 perfbench/record_expected.py            # all workloads
    python3 perfbench/record_expected.py analyze-mix

Run it only on a commit whose results are trusted; the files it writes are
committed with the benchmark.
"""

import json
import sys

import checks
import run
import workloads


def record(cli, workload: str) -> None:
    ops = workloads.generate(workload, run.DEFAULT_SEED)
    listing = run.write_inputs(ops, run.OUT / f"{workload}-seed{run.DEFAULT_SEED}")
    expected = {}
    for op, entry in zip(ops, listing):
        code, stdout, error, _ = run.run_once(cli, entry["argv"])
        problems = checks.check_op(op, code, stdout, error, None)
        if problems:
            raise SystemExit(f"{entry['name']}: {problems}")
        expected[entry["name"]] = checks.summary(op.command, json.loads(stdout), code)
    run.EXPECTED.mkdir(exist_ok=True)
    path = run.EXPECTED / f"{workload}.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(expected)} ops)")


if __name__ == "__main__":
    cli = run.import_orbitrig()
    for name in sys.argv[1:] or sorted(workloads.BUILDERS):
        record(cli, name)
