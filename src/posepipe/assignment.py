"""Minimum-cost assignment: an augmenting-path Hungarian solver and the
greedy baseline it is compared against.

Both solvers take a rectangular cost matrix and return a partial row-to-column
map covering min(rows, cols) pairs. The Hungarian result is the minimum-total-
cost maximum matching of the zero-padded square problem; among equal-cost
optima it returns the lexicographically smallest assignment vector (row 0's
column first, then row 1's, ...).

The Hungarian solver solves once, then breaks ties row by row with one
O(n^2) shortest-path pass over the reduced costs, O(n^3) in all. A column
qualifies for a row when forcing the row to it raises the optimum of the rows
and columns not yet fixed by at most a tolerance of
1e-9 * max(1, max |cost|) * n; the row takes the smallest qualifying column.
The greedy solver is one stable sort of the cells and a walk over them
(``greedy_walk``, which ``evaluation.match_poses`` shares).
"""

from __future__ import annotations

import numpy as np

from .errors import PoseError


def _validate(cost) -> np.ndarray:
    a = np.asarray(cost, dtype=np.float64)
    if a.ndim != 2:
        raise PoseError(f"cost matrix must be 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise PoseError("cost matrix must be finite")
    return a


def _solve_square(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-for-row assignment of an n x n matrix, minimum total cost, with
    the row and column potentials ``u, v`` that prove it optimal: every
    reduced cost ``cost[i, j] - u[i] - v[j]`` is nonnegative and the chosen
    cells' are zero.

    Shortest-augmenting-path formulation with row/column potentials; scans
    are in ascending index order so the result is deterministic.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=np.int64)   # match[j]: row held by column j (1-based, 0 = free)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        way = np.zeros(n + 1, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            reach = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(reach)) + 1
            delta = reach[j1 - 1]
            u[match[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    col_of_row = np.zeros(n, dtype=np.int64)
    for j in range(1, n + 1):
        col_of_row[match[j] - 1] = j - 1
    return col_of_row, u[1:], v[1:]


def solve_hungarian(cost) -> dict:
    """Minimum-total-cost maximum matching as a row -> column partial map.

    Rectangular inputs are zero-padded to square; pairs involving padding are
    dropped from the result. Ties between optimal assignments break toward the
    lexicographically smallest (row, col) choice.

    One solve gives an optimal matching and its potentials. Real rows are then
    fixed in order (padding rows are never reported): a Dijkstra over the
    reduced costs of the rows and columns not yet fixed, backward from the
    row's column along alternating paths, gives for each column how much the
    remaining optimum rises if the row is forced to it. The search stops once
    every column before the row's own is settled or no column left can rise by
    at most the tolerance. A column qualifies when its rise is at most the
    tolerance; the row takes the smallest qualifying column, the matching is
    rotated along the path to it and the potentials are shifted by the path
    lengths, so they stay feasible and tight. Each row costs O(n^2), O(n^3) in
    all.
    """
    a = _validate(cost)
    r, c = a.shape
    if r == 0 or c == 0:
        return {}
    n = max(r, c)
    padded = np.zeros((n, n), dtype=np.float64)
    padded[:r, :c] = a
    lo = padded.min()
    if lo < 0:
        padded = padded - lo   # keep reduced costs nonnegative for the path search

    tol = 1e-9 * max(1.0, float(np.abs(padded).max())) * n

    col_of, u, v = _solve_square(padded)
    row_of = np.empty(n, dtype=np.int64)
    row_of[col_of] = np.arange(n)
    live = np.ones(n, dtype=bool)   # columns not yet fixed to a row
    for r0 in range(r):   # padding rows are never reported
        cols = np.flatnonzero(live)
        m = int(np.searchsorted(cols, col_of[r0]))
        if m:   # some smaller column may also admit an optimal completion
            owners = row_of[cols]
            # step[a, b]: reduced cost of moving column a's owner to column b
            step = padded[np.ix_(owners, cols)] - u[owners, None] - v[cols]
            g = np.full(len(cols), np.inf)   # rise of the other rows' optimum if r0 takes b
            g[m] = 0.0
            nxt = np.full(len(cols), m)   # next column on b's path to column m
            done = np.zeros(len(cols), dtype=bool)
            while not done[:m].all():
                b = int(np.argmin(np.where(done, np.inf, g)))
                if g[b] > tol:   # no column left can qualify
                    break
                done[b] = True
                via = step[:, b] + g[b]
                better = ~done & (via < g)
                g[better] = via[better]
                nxt[better] = b
            if not done.all():   # clamp unsettled columns; the potentials stay feasible
                g = np.minimum(g, g[~done].min())
            fits = np.flatnonzero(done[:m] & (step[m, :m] + g[:m] <= tol))
            b = int(fits[0]) if len(fits) else m
            u[owners] += g
            v[cols] -= g
            row = r0
            while True:   # rotate along the path from column b to column m
                col_of[row] = cols[b]
                row_of[cols[b]] = row
                if b == m:
                    break
                row, b = owners[b], nxt[b]
        live[col_of[r0]] = False

    return {i: int(col_of[i]) for i in range(r) if col_of[i] < c}


def greedy_walk(rows, cols, limit=None) -> np.ndarray:
    """Walk the pairs ``(rows[n], cols[n])`` in order and take each whose row
    and column are both still free, stopping once limit pairs are taken;
    returns the taken pairs' positions n."""
    used_rows, used_cols, taken = set(), set(), []
    for n, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
        if i not in used_rows and j not in used_cols:
            used_rows.add(i)
            used_cols.add(j)
            taken.append(n)
            if len(taken) == limit:
                break
    return np.array(taken, dtype=np.intp)


def solve_greedy(cost) -> dict:
    """Repeatedly take the globally cheapest remaining cell, ties by (row, col).

    One stable sort of the cells by cost keeps row-major order among equal
    costs; ``greedy_walk`` then takes each cell whose row and column are both
    free, until min(rows, cols) are taken.
    """
    a = _validate(cost)
    r, c = a.shape
    rows, cols = np.divmod(np.argsort(a, axis=None, kind="stable"), c)
    taken = greedy_walk(rows, cols, min(r, c))
    return dict(sorted(zip(rows[taken].tolist(), cols[taken].tolist())))
