"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the production algorithms: independence
goes through exact incidence-matrix ranks, union ranks through exhaustive
subset enumeration, and tree packings through the partition criterion.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from orbitrig.linalg import rank_exact
from orbitrig.matroid import SignedGraph, incidence_matrix


def incidence_rank(sg: SignedGraph, ids=None) -> int:
    """Rank of the incidence rows of a subset: the linear-algebra side of
    signed-graphic independence."""
    emap = sg.edge_map()
    ids = [e.id for e in sg.edges] if ids is None else list(ids)
    all_rows = incidence_matrix(sg)
    order = [e.id for e in sg.edges]
    rows = [all_rows[order.index(eid)] for eid in ids]
    return rank_exact(rows) if rows else 0


def independent_by_incidence(sg: SignedGraph, ids=None) -> bool:
    ids = [e.id for e in sg.edges] if ids is None else list(ids)
    return incidence_rank(sg, ids) == len(ids)


def tree_path_bfs(adjacency, u, v):
    """Edge ids of the path from u to v in a forest given as adjacency lists
    of (edge id, neighbour) pairs, by breadth-first search from u; None when
    v is in another tree."""
    prev = {u: None}
    q = deque([u])
    while q and v not in prev:
        x = q.popleft()
        for eid, y in adjacency.get(x, ()):
            if y not in prev:
                prev[y] = (eid, x)
                q.append(y)
    if v not in prev:
        return None
    path = []
    cur = v
    while cur != u:
        eid, cur = prev[cur]
        path.append(eid)
    path.reverse()
    return path


def max_independent_bruteforce(sg: SignedGraph) -> int:
    """Largest independent subset by exhaustive enumeration (incidence rank)."""
    ids = [e.id for e in sg.edges]
    for size in range(len(ids), -1, -1):
        for subset in combinations(ids, size):
            if independent_by_incidence(sg, subset):
                return size
    return 0


def union_rank_bruteforce(labeled_sgs, ids) -> int:
    """Maximum size of a subset partitionable into per-matroid independent
    parts, by depth-first assignment with a simple bound."""
    sgs = [sg for _, sg in labeled_sgs]
    n = len(ids)
    best = 0

    def dfs(idx: int, parts: list[list], count: int) -> None:
        nonlocal best
        if count + (n - idx) <= best:
            return
        if idx == n:
            best = max(best, count)
            return
        e = ids[idx]
        for i, part in enumerate(parts):
            if independent_by_incidence(sgs[i], part + [e]):
                part.append(e)
                dfs(idx + 1, parts, count + 1)
                part.pop()
        dfs(idx + 1, parts, count)

    dfs(0, [[] for _ in labeled_sgs], 0)
    return best


def union_rank_minformula(labeled_sgs, ids) -> int:
    """Exhaustive evaluation of min over X of |S \\ X| + sum_i r_i(X)."""
    ids = list(ids)
    best = None
    for mask in range(1 << len(ids)):
        x = [ids[i] for i in range(len(ids)) if mask >> i & 1]
        val = len(ids) - len(x)
        for _, sg in labeled_sgs:
            val += incidence_rank(sg, x)
        if best is None or val < best:
            best = val
    return best


def set_partitions(items):
    """All partitions of a list, as lists of blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def tree_packing_exists(vertices, edges, k: int) -> bool:
    """Whether k edge-disjoint spanning trees exist, by the partition
    criterion: every partition P of the vertices must see at least
    k(|P| - 1) crossing edges."""
    vertices = list(vertices)
    for part in set_partitions(vertices):
        block_of = {}
        for bi, block in enumerate(part):
            for v in block:
                block_of[v] = bi
        crossing = sum(1 for (u, v) in edges if block_of[u] != block_of[v])
        if crossing < k * (len(part) - 1):
            return False
    return True
