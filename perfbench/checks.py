"""Output checks for one benchmark op.

``check_op`` returns a list of problems; an op with any problem counts as
failed.  ``summary`` reduces an op's output to the verdict and the
per-character ranks that the committed expectations record for the
default seed.
"""

from __future__ import annotations

import json

EXIT_RIGID, EXIT_FLEXIBLE = 0, 1


def summary(command: str, doc: dict, exit_code: int) -> dict:
    if command == "analyze":
        return {
            "exit": exit_code,
            "rigid": doc["rigid"],
            "ranks": [r["rank"] for r in doc["irreps"]],
        }
    if command == "certify":
        return {
            "exit": exit_code,
            "rigid": [c["rigid"] for c in doc["certificates"]],
            "ranks": [c["rank"] for c in doc["certificates"]],
        }
    return {"exit": exit_code, "ok": doc["ok"]}


def _conjugate(irrep: list[int], orders: list[int]) -> list[int]:
    return [(-x) % k for x, k in zip(irrep, orders)]


def _check_analyze(doc: dict, rigid_exit: int) -> list[str]:
    problems = []
    if rigid_exit != (EXIT_RIGID if doc["rigid"] else EXIT_FLEXIBLE):
        problems.append(f"exit code {rigid_exit} does not match rigid={doc['rigid']}")
    numeric = doc.get("numeric", doc)
    if numeric.get("samples_agree") is not True:
        problems.append("samples_agree is not true")
    if doc.get("consistent") is False:
        problems.append("consistent is false")
    orders = numeric["group"]["orders"]
    ranks = {tuple(r["irrep"]): r["rank"] for r in numeric["irreps"]}
    for irrep, rank in ranks.items():
        conj = tuple(_conjugate(list(irrep), orders))
        if ranks.get(conj, rank) != rank:
            problems.append(f"conjugate characters {list(irrep)} and {list(conj)} differ in rank")
    return problems


def check_op(op, exit_code: int | None, stdout: str, error: str | None, expected: dict | None) -> list[str]:
    """Problems with one op's result; ``expected`` is the committed
    summary for this op, or None when the seed has none."""
    if error is not None:
        return [f"exception escaped main: {error}"]
    if exit_code not in (EXIT_RIGID, EXIT_FLEXIBLE):
        return [f"exit code {exit_code}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON document: {exc}"]
    problems = []
    if op.command == "analyze":
        problems += _check_analyze(doc, exit_code)
    elif op.command == "certify":
        rigid = all(c["rigid"] for c in doc["certificates"])
        if exit_code != (EXIT_RIGID if rigid else EXIT_FLEXIBLE):
            problems.append(f"exit code {exit_code} does not match the certificates")
    elif op.command == "crosscheck":
        if doc.get("ok") is not True or exit_code != EXIT_RIGID:
            problems.append(f"crosscheck reported ok={doc.get('ok')}")
    if op.flexible_by_count and exit_code != EXIT_FLEXIBLE:
        problems.append("under-braced input was not reported flexible")
    if expected is not None:
        got = summary(op.command, doc, exit_code)
        if got != expected:
            problems.append(f"result {got} differs from the expected {expected}")
    return problems
