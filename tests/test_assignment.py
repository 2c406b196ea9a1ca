import itertools
import tracemalloc

import numpy as np
import pytest

from posepipe import PoseError, tracking
from posepipe.assignment import solve_greedy, solve_hungarian
from posepipe.config import PipelineConfig
from posepipe.pipeline import load_manifest, run_pipeline
from posepipe.scenes import generate_scene

from oracles import (
    assignment_total,
    brute_force_assignment,
    reference_greedy_assignment,
    reference_lex_hungarian,
)


def test_two_by_two_example():
    assert solve_hungarian([[1, 2], [2, 1]]) == {0: 0, 1: 1}
    assert assignment_total([[1, 2], [2, 1]], {0: 0, 1: 1}) == 2.0


def test_zero_diagonal():
    cost = np.ones((4, 4))
    np.fill_diagonal(cost, 0.0)
    assert solve_hungarian(cost) == {i: i for i in range(4)}


def test_single_cell():
    assert solve_hungarian([[7.0]]) == {0: 0}
    assert solve_greedy([[7.0]]) == {0: 0}


def test_greedy_divergence_case():
    cost = [[0, 1], [1, 10]]
    g = solve_greedy(cost)
    h = solve_hungarian(cost)
    assert g == {0: 0, 1: 1} and assignment_total(cost, g) == 10.0
    assert h == {0: 1, 1: 0} and assignment_total(cost, h) == 2.0


def test_greedy_matches_hungarian_on_agreeing_case():
    assert solve_greedy([[1, 2], [2, 1]]) == solve_hungarian([[1, 2], [2, 1]])


def test_rejects_bad_input():
    with pytest.raises(PoseError):
        solve_hungarian([[np.inf, 1.0]])
    with pytest.raises(PoseError):
        solve_hungarian(np.zeros(3))


def test_empty_matrix():
    assert solve_hungarian(np.zeros((0, 3))) == {}
    assert solve_greedy(np.zeros((3, 0))) == {}


def test_hungarian_matches_brute_force_square():
    rng = np.random.default_rng(7)
    for trial in range(120):
        n = int(rng.integers(1, 7))
        if trial % 2:
            cost = rng.integers(0, 7, (n, n)).astype(float)   # heavy ties
        else:
            cost = rng.normal(size=(n, n)) * 5
        got = solve_hungarian(cost)
        want, want_total = brute_force_assignment(cost)
        assert got == want
        assert assignment_total(cost, got) == pytest.approx(want_total, abs=1e-9)


def test_hungarian_matches_brute_force_rectangular():
    rng = np.random.default_rng(8)
    for _ in range(80):
        r = int(rng.integers(1, 6))
        c = int(rng.integers(1, 6))
        cost = rng.integers(-5, 9, (r, c)).astype(float)
        got = solve_hungarian(cost)
        want, want_total = brute_force_assignment(cost)
        assert got == want
        assert len(got) == min(r, c)


def test_brute_force_oracle_matches_permutation_loop():
    # The batched oracle against its definition: a plain loop over
    # itertools.permutations keeping the first permutation that is cheaper
    # than the best so far by more than 1e-12.
    def loop_oracle(cost):
        a = np.asarray(cost, dtype=np.float64)
        r, c = a.shape
        n = max(r, c)
        padded = np.zeros((n, n))
        padded[:r, :c] = a
        best_total, best_perm = None, None
        for perm in itertools.permutations(range(n)):
            total = sum(padded[i, perm[i]] for i in range(n))
            if best_total is None or total < best_total - 1e-12:
                best_total, best_perm = total, perm
        real = {i: j for i, j in enumerate(best_perm) if i < r and j < c}
        return real, float(sum(a[i, j] for i, j in real.items()))

    rng = np.random.default_rng(11)
    for trial in range(400):
        r = int(rng.integers(1, 6))
        c = r if trial % 2 else int(rng.integers(1, 6))
        cost = rng.integers(0, 3, (r, c)).astype(float)   # heavy ties
        if trial % 4 >= 2:   # near-ties inside the 1e-12 tolerance
            cost += rng.integers(-3, 4, (r, c)) * 1e-13
        assert brute_force_assignment(cost) == loop_oracle(cost), cost


def test_hungarian_never_worse_than_greedy():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        cost = rng.random((n, n)) * 10
        h = assignment_total(cost, solve_hungarian(cost))
        g = assignment_total(cost, solve_greedy(cost))
        assert h <= g + 1e-9


def test_hungarian_equals_greedy_on_diagonal_dominant():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        cost = rng.uniform(5, 9, (n, n))
        cost[np.arange(n), np.arange(n)] = rng.uniform(0, 1, n)
        h = solve_hungarian(cost)
        g = solve_greedy(cost)
        assert assignment_total(cost, h) == pytest.approx(
            assignment_total(cost, g))


def test_lexicographic_tie_break():
    # every assignment costs 2: the lexicographically smallest must win
    cost = np.ones((3, 3)) * (2 / 3)
    assert solve_hungarian(cost) == {0: 0, 1: 1, 2: 2}
    # two optimal assignments: {0:0, 1:1} and {0:1, 1:0}; prefer 0 -> 0
    cost = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert solve_hungarian(cost) == {0: 0, 1: 1}


@pytest.mark.parametrize("row", [
    [-5 + 1.6e-8, -5, 1],   # shifted by 5: cells (1.6e-8, 0, 6), tol 1.8e-8, not 1.5e-8
    [-5 + 5e-9, -5, -4],   # the padding cell 5 is the largest: tol 1.5e-8, not 3e-9
])
def test_tolerance_is_read_off_the_shifted_padded_square(row):
    # column 0 is within the tolerance of the optimum only as the module
    # docstring computes it
    for cost in (np.array([row]), np.array([row]).T):
        assert solve_hungarian(cost) == {0: 0} == reference_lex_hungarian(cost)


def test_hungarian_rejects_costs_whose_shift_overflows():
    # shifting by the smallest cost overflows to inf, so no optimum is
    # defined: a one-line contract error, before any solving
    h, b = 1.7e308, 1e308
    cost = np.array([[h, h, 1, 0, h, b], [-h, h, b, 0, h, h], [b, 1, b, b, -h, 0],
                     [-h, h, -h, h, h, 0], [b, b, 1, -h, h, 1], [1, 0, h, -h, b, 1]])
    for m in (cost, cost[:4], cost[:, :3], np.array([[h, -h]]), np.array([[-h], [h]])):
        with pytest.raises(PoseError) as err:
            solve_hungarian(m)
        assert str(err.value) == (f"cost matrix range must be finite when shifted, "
                                  f"got {-h!r} to {h!r}")
    # a spread that fits, or one shift by the padding's zero, still solves
    for m, want in (([[0.8e308, -0.8e308]], {0: 1}), ([[-h, -h]], {0: 0}),
                    ([[h], [h]], {0: 0}), ([[b, -0.7e308], [-0.7e308, b]], {0: 1, 1: 0})):
        assert solve_hungarian(np.array(m)) == want


def test_greedy_tie_break_by_row_col():
    cost = np.zeros((2, 2))
    assert solve_greedy(cost) == {0: 0, 1: 1}


_KINDS = ["int", "oks", "negative", "near-tie", "oks-tall", "oks-wide"]


def _tie_heavy_matrix(rng, kind, r, c):
    """One of the cost shapes the solvers see: small integers, 1 - OKS as
    tracking builds it (most cells exactly 1.0), negative entries, integers
    with near-ties of k * 1e-13, 1 - OKS of more live tracks than
    detections, where tracks that reach no detection are whole rows of 1.0,
    or of fewer live tracks than detections, where detections that reach no
    track are whole columns of 1.0."""
    if kind == "int":
        return rng.integers(0, 3, (r, c)).astype(float)
    if kind.startswith("oks"):
        if kind == "oks-tall":
            r, c = max(r, c), min(r, c)
        if kind == "oks-wide":
            r, c = min(r, c), max(r, c)
        cost = np.ones((r, c))
        near = rng.random((r, c)) < 2.0 / max(r, c)
        cost[near] = 1.0 - rng.choice([0.25, 0.5, 0.75, 0.9, rng.random()], near.sum())
        if kind == "oks-tall":
            cost[rng.random(r) < 0.5] = 1.0
        if kind == "oks-wide":
            cost[:, rng.random(c) < 0.5] = 1.0
        return cost
    if kind == "negative":
        return rng.integers(-3, 3, (r, c)).astype(float)
    return rng.integers(0, 3, (r, c)) + rng.integers(-3, 4, (r, c)) * 1e-13


@pytest.mark.parametrize("kind", _KINDS)
def test_hungarian_matches_re_solving_reference(kind):
    rng = np.random.default_rng(_KINDS.index(kind))
    for trial in range(30):
        r = int(rng.integers(1, 31))
        c = r if trial % 2 else int(rng.integers(1, 31))
        cost = _tie_heavy_matrix(rng, kind, r, c)
        assert solve_hungarian(cost) == reference_lex_hungarian(cost), cost


def test_hungarian_matches_re_solving_reference_on_the_tracker_s_matrices(tmp_path,
                                                                         monkeypatch):
    # 10 persons over 12 frames, some too fast to track, with vote fusion:
    # the one-frame tracks of the fast persons pile up, so the matrices grow
    # from 10 x 10 to 31 x 10
    manifest, _ = generate_scene(str(tmp_path), num_frames=12, num_persons=10, seed=3)
    seen = []

    def recording(cost):
        seen.append(np.array(cost))
        return solve_hungarian(cost)

    monkeypatch.setitem(tracking.MATCHERS, "hungarian", recording)
    run_pipeline(PipelineConfig(fusion="vote"), load_manifest(manifest))
    assert len(seen) == 11 and seen[0].shape == (10, 10) and seen[-1].shape == (31, 10)
    for cost in seen:
        assert solve_hungarian(cost) == reference_lex_hungarian(cost), cost


@pytest.mark.parametrize("shape", [(1, 2000), (2000, 1)])
def test_hungarian_never_builds_the_padded_square(shape):
    cost = np.random.default_rng(13).integers(0, 50, shape).astype(float)   # tied minima
    tracemalloc.start()
    try:
        got = solve_hungarian(cost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20   # the padded 2000 x 2000 float64 square alone is 32 MB
    first = int(np.argmin(cost.ravel()))   # the lexicographically smallest argmin
    assert got == ({0: first} if shape[0] == 1 else {first: 0})


def test_greedy_matches_cell_scan_reference():
    rng = np.random.default_rng(12)
    for trial in range(300):
        r = int(rng.integers(1, 12))
        c = r if trial % 2 else int(rng.integers(1, 12))
        cost = _tie_heavy_matrix(rng, _KINDS[trial % 4], r, c)
        if trial % 3 == 0:   # signed zeros compare equal: (row, col) order decides
            cost[rng.random((r, c)) < 0.5] = -0.0
        assert solve_greedy(cost) == reference_greedy_assignment(cost), cost
