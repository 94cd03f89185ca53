"""orbitrig benchmark: one workload per process, one thread, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 36 --trace 0

The workload's operation list is generated from ``--seed`` and written as
schema-1 JSON files under ``perfbench/out/``; the program sees only those
files.  Each op calls ``orbitrig.cli.main(argv)`` in this process with
stdout captured, the same path the console script runs, and starts only
after the previous op has finished.  Ops go round the list in order until
``--seconds`` have passed; every instance runs at least once, and all but
the few largest run several times, spread over the run.

End-to-end metrics (``--trace 0``) are taken over the instance list, one
value per instance: the mean of its op times.  The host's other tenants
slow the CPU down by up to 1.7x in phases of several seconds; an instance's
runs are spread over the whole run, so its mean, and every metric taken
from it, averages over the phases of the run instead of catching one.

* ``instances_per_s``: list length divided by the sum of the instance
  times, i.e. ops per second over one pass of the fixed list.
* ``op_p50_s``: median instance time.
* ``op_tail_s``: the highest percentile of instance times that still has
  at least 10 instances beyond it (the percentile and sample count are
  printed with it and written to the results file).
* ``setup_s``: median wall time of fresh interpreters that import
  ``orbitrig`` and load every input.
* ``peak_rss_mb``: peak resident memory of this process.

``fail_ratio`` (failed ops / attempted ops) is printed with them; the
result line carries it as ``failed`` and ``attempted``.

``--trace 1`` runs each op twice in turn, untraced and traced, and reports
per-layer self time (seconds per pass over the list), counts and ratios,
plus ``trace.overhead_ratio``; it also writes the spans and a per-layer
table.  The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy can be imported; PYTHONHASHSEED only takes effect at
# interpreter start, so the process re-executes itself when it differs.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import platform
import resource
import statistics
import subprocess
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected"
DEFAULT_SEED = 1
SETUP_PROBES = 7
TAIL_BEYOND = 10
REPEAT_SHARE = 40

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (kind, source key, unit); kinds: self time per pass,
# calls per pass, counter per pass, counter maximum, ratio of two counters
PER_LAYER = {
    "cli.self_s": ("self", "cli", "s"),
    "cli.parse_framework_s": ("self", "cli.parse_framework", "s"),
    "cli.emit_s": ("self", "cli.emit", "s"),
    "gaingraph.lift_cover_s": ("self", "gaingraph.lift_cover", "s"),
    "gaingraph.remove_zero_loops_s": ("self", "gaingraph.remove_zero_loops", "s"),
    "gaingraph.multiply_edges_s": ("self", "gaingraph.multiply_edges", "s"),
    "genframe.random_generic_bars_s": ("self", "genframe.random_generic_bars", "s"),
    "genframe.lift_bars_s": ("self", "genframe.lift_bars", "s"),
    "symmetry.tau_hat2_j_s": ("self", "symmetry.tau_hat2_j", "s"),
    "symmetry.tau_hat2_j_calls": ("calls", "symmetry.tau_hat2_j", "count"),
    "symmetry.trivial_motion_dim_s": ("self", "symmetry.trivial_motion_dim", "s"),
    "rigidity.orbit_matrix_s": ("self", "rigidity.orbit_matrix", "s"),
    "rigidity.orbit_matrix_calls": ("calls", "rigidity.orbit_matrix", "count"),
    "rigidity.orbit_cells": ("sum", "rigidity.orbit_cells", "count"),
    "rigidity.rigidity_matrix_s": ("self", "rigidity.rigidity_matrix", "s"),
    "rigidity.lifted_cells": ("sum", "rigidity.lifted_cells", "count"),
    "linalg.rank_exact_s": ("self", "linalg.rank_exact", "s"),
    "linalg.rank_exact_calls": ("calls", "linalg.rank_exact", "count"),
    "linalg.rank_exact_cells": ("sum", "linalg.rank_exact_cells", "count"),
    "linalg.entry_bits_max": ("max", "linalg.entry_bits_max", "bits"),
    "linalg.rank_complex_s": ("self", "linalg.rank_complex", "s"),
    "linalg.rank_complex_calls": ("calls", "linalg.rank_complex", "count"),
    "linalg.full_rank_ratio": ("ratio", ("linalg.blocks_full_rank", "linalg.blocks_ranked"), "ratio"),
    "matroid.union_s": ("self", "matroid.union", "s"),
    "matroid.union_calls": ("calls", "matroid.union", "count"),
    "matroid.union_elements": ("sum", "matroid.union_elements", "count"),
    "matroid.union_rank_ratio": ("ratio", ("matroid.union_rank", "matroid.union_elements"), "ratio"),
    "matroid.labeled_signed_graphs_s": ("self", "matroid.labeled_signed_graphs", "s"),
    "matroid.validate_s": ("self", "matroid.validate", "s"),
    "matroid.verdict_self_s": ("self", "matroid.verdict", "s"),
    "hinge.random_generic_hinges_s": ("self", "hinge.random_generic_hinges", "s"),
    "hinge.hinge_to_bars_s": ("self", "hinge.hinge_to_bars", "s"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_orbitrig():
    """Import the package from this checkout's ``src``, never from
    anywhere else on the path."""
    if not (SRC / "orbitrig" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'orbitrig'} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import orbitrig.cli

    if Path(orbitrig.cli.__file__).resolve().parent != (SRC / "orbitrig").resolve():
        raise SystemExit(f"error: imported orbitrig from {orbitrig.cli.__file__}, not {SRC}")
    return orbitrig.cli


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "orbitrig").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest()[:16],
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# ---------------------------------------------------------------------------
# inputs


def write_inputs(ops, workdir: Path) -> list[dict]:
    """Write each op's input file and the op list; returns the op list."""
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    listing = []
    for i, op in enumerate(ops):
        name = f"{i:02d}-{op.name}"
        path = None
        if op.doc is not None:
            path = str(inputs / f"{name}.json")
            Path(path).write_bytes(workloads.dump(op.doc))
        listing.append({"name": name, "input": path, "argv": op.argv(path)})
    (workdir / "ops.json").write_text(json.dumps(listing, indent=1) + "\n", encoding="utf-8")
    return listing


def input_problems(cli, workload: str, seed: int, ops, listing) -> list[str]:
    """The generator's own checks: one seed gives byte-identical inputs,
    and every input passes ``parse_framework``."""
    problems = []
    again = workloads.generate(workload, seed)
    if [workloads.dump(o.doc) if o.doc else o.args for o in again] != [
        workloads.dump(o.doc) if o.doc else o.args for o in ops
    ]:
        problems.append("the same seed generated different inputs")
    for entry in listing:
        if entry["input"] is None:
            continue
        try:
            with open(entry["input"], "rb") as fh:
                cli.parse_framework(json.load(fh))
        except Exception as exc:  # any failure here is a generator bug to report
            problems.append(f"{entry['name']}: parse_framework failed: {exc!r}")
    return problems


def measure_setup(workdir: Path) -> list[float]:
    """Wall time of fresh interpreters that import orbitrig and load the inputs."""
    env = {**os.environ, **PINNED_ENV}
    times = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(workdir / "ops.json")],
            check=True, env=env,
        )
        times.append(time.perf_counter() - t)
    return times


# ---------------------------------------------------------------------------
# the closed loop


def run_once(cli, argv, tracer=None, op_id=-1):
    """Run one command in-process; returns (exit code, stdout, error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.run_op(op_id, lambda: cli.main(argv))
    except (Exception, SystemExit) as exc:  # an exception escaping main fails the op
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return code, out.getvalue(), error, time.perf_counter() - t


def load_expected(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    path = EXPECTED / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def closed_loop(cli, ops, listing, seconds: float, expected: dict | None, tracer=None):
    """Run every op once, then go round the ops that are cheap enough to
    repeat until ``seconds`` have passed.  Returns per-op untraced and
    traced times, traced profiles, and (attempted, failed, problem log).

    An op is repeated when its first run took at most 1/REPEAT_SHARE of
    ``seconds``; the few large ops run once, since they only enter
    ``instances_per_s``.  A repeat starts only if its first run would still
    fit before the deadline, so a run ends close to ``seconds``."""
    n = len(ops)
    untraced = [[] for _ in ops]
    traced = [[] for _ in ops]
    profiles = [[] for _ in ops]
    first_out: list[str | None] = [None] * n
    attempted = failed = 0
    log = []

    def record(k, code, stdout, error):
        nonlocal attempted, failed
        attempted += 1
        name = listing[k]["name"]
        # an op missing from the expectations gets {} and fails the comparison
        problems = checks.check_op(
            ops[k], code, stdout, error, None if expected is None else expected.get(name, {})
        )
        if first_out[k] is None:
            first_out[k] = stdout
        elif stdout != first_out[k]:
            problems.append("output differs from this op's first run")
        if problems:
            failed += 1
            log.append({"op": name, "problems": problems})

    def step(k, op_id):
        code, stdout, error, dt = run_once(cli, listing[k]["argv"])
        untraced[k].append(dt)
        record(k, code, stdout, error)
        if tracer is not None:
            tracer.install()
            try:
                code, stdout, error, dt = run_once(cli, listing[k]["argv"], tracer, op_id)
            finally:
                tracer.uninstall()
            traced[k].append(dt)
            profiles[k].append(tracer.take())
            record(k, code, stdout, error)

    deadline = time.perf_counter() + seconds
    for k in range(n):
        step(k, k)
    cost = [untraced[k][0] + (traced[k][0] if tracer is not None else 0.0) for k in range(n)]
    repeat = [k for k in range(n) if untraced[k][0] <= seconds / REPEAT_SHARE]
    for op_id, k in enumerate(itertools.cycle(repeat), start=n):
        if time.perf_counter() + cost[k] > deadline:
            break
        step(k, op_id)
    return untraced, traced, profiles, (attempted, failed, log)


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count): the highest percentile of ``values``
    that still has at least TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(untraced, setup_times) -> tuple[dict, dict]:
    means = [statistics.fmean(t) for t in untraced]
    tail_value, tail_pct, count = tail(means)
    values = {
        "instances_per_s": len(means) / sum(means),
        "op_p50_s": statistics.median(means),
        "op_tail_s": tail_value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "op_tail_percentile": tail_pct,
        "instances": count,
        "ops_measured": sum(len(t) for t in untraced),
        "runs_per_instance": sorted(len(t) for t in untraced),
        "setup_probes": setup_times,
    }
    return values, info


def per_pass(profiles) -> dict[str, dict[str, float]]:
    """Self time, calls and counters per pass over the list: each
    instance's mean over its traced ops, summed over instances."""
    totals = {"self": {}, "calls": {}, "sum": {}, "max": {}}
    for runs in profiles:
        for part, key in ((0, "self"), (1, "calls"), (2, "sum")):
            for name in {k for r in runs for k in r[part]}:
                mean = sum(r[part].get(name, 0) for r in runs) / len(runs)
                totals[key][name] = totals[key].get(name, 0.0) + mean
        for r in runs:
            for name, v in r[2].items():
                totals["max"][name] = max(totals["max"].get(name, 0), v)
    return totals


def layer_metrics(profiles, untraced, traced) -> dict:
    totals = per_pass(profiles)
    out = {}
    for metric, (kind, key, unit) in PER_LAYER.items():
        if kind == "ratio":
            num, den = (totals["sum"].get(k, 0.0) for k in key)
            value = num / den if den else 0.0
        else:
            value = totals[kind].get(key, 0.0)
        out[metric] = {"value": value, "unit": unit}
    t_mean = sum(statistics.fmean(t) for t in traced)
    u_mean = sum(statistics.fmean(t) for t in untraced)
    out["trace.overhead_ratio"] = {"value": t_mean / u_mean - 1.0, "unit": "ratio"}
    return out


def layer_table(profiles) -> list[str]:
    totals = per_pass(profiles)
    self_time, calls = totals["self"], totals["calls"]
    total = sum(self_time.values())
    lines = [f"{'layer':34s} {'self s/pass':>12s} {'share':>7s} {'calls/pass':>11s}"]
    for name, v in sorted(self_time.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:34s} {v:12.4f} {v / total:7.1%} {calls.get(name, 0):11.1f}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_orbitrig()
    env = environment()
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    ops = workloads.generate(args.workload, args.seed)
    listing = write_inputs(ops, workdir)
    setup_problems = input_problems(cli, args.workload, args.seed, ops, listing)
    expected = load_expected(args.workload, args.seed)
    setup_times = measure_setup(workdir)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    # warm-up: the smallest op of each kind, so lazy imports and caches are filled
    smallest: dict[str, int] = {}
    for k, op in enumerate(ops):
        kind = op.name.split("-")[0]
        if kind not in smallest or op.n < ops[smallest[kind]].n:
            smallest[kind] = k
    for k in sorted(smallest.values()):
        run_once(cli, listing[k]["argv"])

    untraced, traced, profiles, (attempted, failed, log) = closed_loop(
        cli, ops, listing, args.seconds, expected, tracer
    )
    correct = failed == 0 and not setup_problems
    result = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_problems": setup_problems,
        "failures": log[:50],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "per_op": {
            listing[k]["name"]: {"untraced_s": untraced[k], "traced_s": traced[k]}
            for k in range(len(ops))
        },
    }
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    for p in setup_problems:
        print(f"# input check failed: {p}")
    for entry in log[:10]:
        print(f"# failed op {entry['op']}: {entry['problems']}")

    if tracer is None:
        metrics, info = end_to_end(untraced, setup_times)
        result.update(metrics=metrics, info=info)
        for name, unit in END_TO_END_UNITS.items():
            note = ""
            if name == "op_tail_s":
                note = f"  (p{info['op_tail_percentile']:.1f} of {info['instances']} instances, "
                note += f"{info['ops_measured']} ops)"
            print(f"{args.workload:18s} {name:16s} {metrics[name]:12.6g} {unit}{note}")
        print(f"{args.workload:18s} {'fail_ratio':16s} {failed / attempted:12.6g} "
              f"ratio  ({failed}/{attempted})")
        shown = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        shown = layer_metrics(profiles, untraced, traced)
        table = layer_table(profiles)
        tracer.write_spans(workdir / "spans.jsonl")
        (workdir / "layers.txt").write_text("\n".join(table) + "\n", encoding="utf-8")
        result.update(metrics={k: v["value"] for k, v in shown.items()}, layers=table)
        for line in table:
            print(f"# {line}")
        for name, m in shown.items():
            print(f"{args.workload:18s} {name:34s} {m['value']:14.6g} {m['unit']}")

    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        script = os.path.abspath(__file__)
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    sys.exit(main())
