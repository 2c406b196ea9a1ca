"""Minimum-cost assignment: an augmenting-path Hungarian solver and the
greedy baseline it is compared against.

Both solvers take an r x c cost matrix and return a partial row-to-column map
covering min(r, c) pairs. The Hungarian result is the minimum-total-cost
maximum matching of the zero-padded n x n square, n = max(r, c); among
equal-cost optima it returns the lexicographically smallest assignment vector
(row 0's column first, then row 1's, ...), where a padding column is larger
than every real one.

The Hungarian solver never builds that square. It runs scalar loops over the
rows of the r x c matrix, in two passes of O(min(r, c)^2 * max(r, c)) each:
one shortest-augmenting-path solve over the smaller side, then a tie-break
that fixes the rows in order. A column qualifies for a row when forcing the
row to it raises the optimum of the rows and columns not yet fixed by at most
a tolerance; the row takes the smallest qualifying column. The tolerance is
that of the padded square: let lo be its smallest cell (the smallest cost, or
0 if r != c and no cost is negative); if lo < 0 every cell, padding included,
is shifted by -lo; then tol = 1e-9 * max(1, M) * n, M the largest |cell| of
the shifted square. So ``[[-5, 1]]`` (cells 0 and 6, padding 5) gets
tol = 1e-9 * 6 * 2 = 1.2e-8. A matrix whose shifted cells overflow, such as
1.7e308 beside -1.7e308, has no defined optimum and is a PoseError.

The greedy solver is one stable sort of the cells and a walk over them
(``greedy_walk``, which ``evaluation.match_poses`` shares).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PoseError


def _validate(cost) -> np.ndarray:
    a = np.asarray(cost, dtype=np.float64)
    if a.ndim != 2:
        raise PoseError(f"cost matrix must be 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise PoseError("cost matrix must be finite")
    return a


def _solve(rows: list, width: int) -> tuple[list, list, list]:
    """Match each of the h <= width cost lists in ``rows`` to its own
    position in 0..width-1 at minimum total cost, by h shortest augmenting
    paths (Jonker and Volgenant, Computing 1987; Crouse, IEEE TAES 2016).

    Returns ``held`` (the row at each position, -1 where free) and the
    potentials ``u`` (rows) and ``v`` (positions) that prove it optimal: every
    reduced cost ``rows[i][j] - u[i] - v[j]`` is nonnegative and the matched
    cells' are zero; a free position's v is 0, every other v at most 0. Scans
    go in ascending position order, so the result is deterministic.
    O(h^2 * width).
    """
    u = [0.0] * len(rows)
    v = [0.0] * width
    held = [-1] * width
    for start in range(len(rows)):
        dist = [math.inf] * width
        back = [-1] * width   # the position before j on its path, -1 for start's own
        unsettled = list(range(width))
        settled = []
        i, base, prev = start, 0.0, -1
        while True:   # Dijkstra over reduced costs until a free position
            row, ui = rows[i], u[i]
            best, k = math.inf, unsettled[0]
            for j in unsettled:
                d = row[j] - ui - v[j] + base
                dj = dist[j]
                if d < dj:
                    dist[j] = dj = d
                    back[j] = prev
                if dj < best:
                    best, k = dj, j
            unsettled.remove(k)
            if held[k] < 0:
                break
            settled.append(k)
            i, base, prev = held[k], best, k
        u[start] += best
        for j in settled:
            t = best - dist[j]
            u[held[j]] += t
            v[j] -= t
        while k >= 0:   # each position on the path takes the row of the one before
            p = back[k]
            held[k] = held[p] if p >= 0 else start
            k = p
    return held, u, v


def _tie_break(cells: list, tol: float, col_of: list, row_of: list, u: list, v: list):
    """Turn the optimal matching ``col_of``/``row_of`` (-1 for unmatched) of
    the r x c matrix ``cells``, with its potentials ``u, v``, into the
    lexicographically smallest one within ``tol``, in place.

    The padding is one node X of the path search: the free rows when r > c
    (a row that leaves its column for X becomes unmatched; X hands a column
    on through its cheapest free row), or the free columns when r < c (a row
    enters X through its cheapest free column; X hands a column on by
    freeing it). Its potential, ``free``, is the free rows' u or the free
    columns' v.

    Rows are fixed in order. For row r0, a Dijkstra over the reduced costs of
    the rows and columns not yet fixed, backward from r0's column m (X if r0
    is unmatched), gives for each column how much the remaining optimum
    rises if r0 is forced to it. The search stops once every column before m
    is settled or no column left can rise by at most tol. The row takes the
    smallest settled column whose rise is at most tol, or keeps m; the
    matching is rotated along the path to it and the potentials are shifted
    by the path lengths, so they stay feasible and tight. A row's search
    costs O(min(r, c)^2), plus O(r * c) when it passes through X; when r > c
    only the at most c matched rows do, so the pass is
    O(min(r, c)^2 * max(r, c)).
    """
    r, c = len(col_of), len(row_of)
    tall = r > c
    X = c
    free = 0.0
    live = list(range(c))   # columns not yet fixed to a row, ascending
    for r0 in range(r):
        if not live:   # every later row is unmatched
            break
        m = col_of[r0]
        if m == live[0]:   # no column before r0's own
            live.pop(0)
            continue
        target = m if m >= 0 else X
        if tall:
            nodes = live
            others = [w for w in range(r0 + 1, r) if col_of[w] < 0] \
                if m >= 0 and r - r0 > len(live) else []
            has_x = m < 0 or bool(others)
            pending = len(live) if m < 0 else live.index(m)
        else:
            nodes = [j for j in live if row_of[j] >= 0]
            frees = [j for j in live if row_of[j] < 0]
            has_x = bool(frees)
            pending = nodes.index(m) + (frees[0] < m if frees else 0)
        g = [math.inf] * (c + 1)
        nxt = [target] * (c + 1)   # the next node on each node's path to target
        done = [False] * (c + 1)
        via = {}   # X's row on the way out (r > c), a row's way into X (r < c)
        g[target] = 0.0
        unsettled = nodes[:]
        x_open = has_x
        x_wanted = not tall and has_x and frees[0] < m   # a free column before m
        while True:
            b = min(unsettled, key=g.__getitem__) if unsettled else X
            if x_open and g[X] < g[b]:
                b = X
            gb = g[b]
            if gb > tol:   # no column left can qualify
                break
            done[b] = True
            if b == X:
                x_open = False
                pending -= x_wanted
                for a in unsettled:
                    x = row_of[a]
                    if tall:
                        e = free - u[x]
                    else:
                        row = cells[x]
                        f = min(frees, key=row.__getitem__)
                        e = row[f] - u[x] - free
                    d = e + gb
                    if d < g[a]:
                        g[a] = d
                        nxt[a] = X
                        if not tall:
                            via[a] = f
            else:
                unsettled.remove(b)
                pending -= b != target and (b < m or m < 0)
                vb = v[b]
                for a in unsettled:
                    x = row_of[a]
                    d = cells[x][b] - u[x] - vb + gb
                    if d < g[a]:
                        g[a] = d
                        nxt[a] = b
                if x_open:
                    if tall:
                        w = min(others, key=lambda w: cells[w][b])
                        e = cells[w][b] - free - vb
                    else:
                        e = free - vb
                    d = e + gb
                    if d < g[X]:
                        g[X] = d
                        nxt[X] = b
                        if tall:
                            via[X] = w
            if not pending:
                break

        pick = target
        ur = u[r0] if m >= 0 else free
        row = cells[r0]
        for j in live:
            if j == m:
                break
            node = j if row_of[j] >= 0 else X
            if done[node] and row[j] - ur - (v[j] if node != X else free) + g[node] <= tol:
                pick = j
                break

        # clamp the unsettled nodes' g; the potentials stay feasible
        top = min([g[a] for a in unsettled] + ([g[X]] if x_open else []), default=math.inf)
        for a in nodes:
            ga = min(g[a], top)
            u[row_of[a]] += ga
            v[a] -= ga
        if has_x:
            ga = min(g[X], top)
            free = free + ga if tall else free - ga

        if pick != target:   # rotate along the path from pick to m
            cur = pick if row_of[pick] >= 0 else X
            mover = row_of[pick]   # -1: a padding row leaves X
            row_of[pick] = r0
            col_of[r0] = pick
            while cur != target:
                t = nxt[cur]
                if t == X:
                    if tall:   # mover becomes unmatched; X's free row moves on
                        col_of[mover] = -1
                        mover = via.get(X, -1)
                        if mover >= 0:
                            u[mover] = free
                    else:   # mover takes its free column; X frees the next
                        f = via[cur]
                        row_of[f] = mover
                        col_of[mover] = f
                        v[f] = free
                        mover = -1
                    cur = X
                    continue
                old = row_of[t]
                row_of[t] = mover
                if mover >= 0:
                    col_of[mover] = t
                cur, mover = t, old
        if col_of[r0] >= 0:
            live.remove(col_of[r0])


def solve_hungarian(cost) -> dict:
    """Minimum-total-cost maximum matching as a row -> column partial map:
    the minimum-cost matching of the zero-padded square with the pairs that
    involve padding dropped, lexicographically smallest among the optima
    within the module's tolerance (see the module docstring).

    Costs are shifted as the padded square's would be, then read once into
    lists; a matrix whose shifted cells overflow (``1.7e308`` beside
    ``-1.7e308``) has no defined optimum and is a PoseError. ``_solve``
    matches the smaller side (the rows if r <= c, else the columns), and
    ``_tie_break`` fixes the rows in order on the r x c matrix.
    O(min(r, c)^2 * max(r, c)) in all, memory O(r * c).
    """
    a = _validate(cost)
    r, c = a.shape
    if r == 0 or c == 0:
        return {}
    lo, hi = float(a.min()), float(a.max())
    if r != c:
        lo, hi = min(lo, 0.0), max(hi, 0.0)   # the padding's zeros
    top = hi - lo if lo < 0 else hi   # the largest cell of the shifted square
    if top == math.inf:
        raise PoseError(f"cost matrix range must be finite when shifted, got {lo!r} to {hi!r}")
    if lo < 0:
        a = a - lo   # keep reduced costs nonnegative for the path search
    tol = 1e-9 * max(1.0, top) * max(r, c)

    cells = a.tolist()
    if r <= c:
        row_of, u, v = _solve(cells, c)
        col_of = [-1] * r
        for j, i in enumerate(row_of):
            if i >= 0:
                col_of[i] = j
    else:
        col_of, v, u = _solve([list(col) for col in zip(*cells)], r)
        row_of = [-1] * c
        for i, j in enumerate(col_of):
            if j >= 0:
                row_of[j] = i
    _tie_break(cells, tol, col_of, row_of, u, v)
    return {i: j for i, j in enumerate(col_of) if j >= 0}


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
