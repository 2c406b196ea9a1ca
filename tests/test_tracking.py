import collections.abc
import dataclasses

import numpy as np
import pytest

from posepipe import PoseError, builtin_joint_set
from posepipe.config import PipelineConfig
from posepipe.instances import InstanceStack, PersonInstance
from posepipe.suppression import OksConstants
from posepipe.tracking import (
    PROPAGATORS,
    constant_velocity,
    finalize,
    identity,
    similarity,
)

from oracles import reference_oks, reference_propagate

JS = builtin_joint_set("posetrack")
# uniform fall-off keeps the similarity arithmetic in the scenarios simple
CONSTS = OksConstants.for_joint_set(
    "posetrack", overrides={n: 0.2 for n in JS.joints})


def pose_at(x, y, box_wh=(25.0, 40.0)):
    base = np.linspace(0, 1, JS.count)
    coords = np.column_stack([x + 3 * base, y + 5 * base])
    return PersonInstance(
        box=np.array([x - 5, y - 5, box_wh[0], box_wh[1]]),
        box_score=0.9,
        coords=coords,
        scores=np.full(JS.count, 0.8),
        annotated=np.ones(JS.count, bool),
        joint_set="posetrack",
    )


def S(instances):
    """The InstanceStack of posetrack instances."""
    return InstanceStack.of(JS, instances)


def tracker(**settings):
    """A fresh TrackerState on CONSTS at the pipeline's default settings but
    for the ones given."""
    return dataclasses.replace(PipelineConfig().tracker(), consts=CONSTS, **settings)


def similarity1(history, candidate, frame, prop):
    """One track's similarity to one candidate, as a 1 x 1 stack."""
    return similarity([history], S([candidate]), frame, prop, CONSTS)[0, 0]


def test_identity_propagator_same_pose_similarity_one():
    t = {3: pose_at(10, 10)}
    assert similarity1(t, pose_at(10, 10), 4, identity) == 1.0


def test_similarity_requires_future_frame():
    t = {3: pose_at(10, 10)}
    with pytest.raises(PoseError):
        similarity1(t, pose_at(10, 10), 3, identity)


def test_velocity_propagator_tracks_linear_motion_exactly():
    t = {0: pose_at(0, 0), 1: pose_at(6, 2)}
    for gap in range(1, 9):
        cand = pose_at(6 + 6 * gap, 2 + 2 * gap)
        s = similarity1(t, cand, 1 + gap, constant_velocity)
        assert s == pytest.approx(1.0)


def test_velocity_propagator_gap_zero_is_identity():
    t = {0: pose_at(0, 0), 1: pose_at(6, 2)}
    p = constant_velocity([t], [0])
    assert np.array_equal(p.coords[0], t[1].coords)


def test_velocity_falls_back_with_single_observation():
    t = {0: pose_at(4, 4)}
    p = constant_velocity([t], [3])
    assert np.array_equal(p.coords[0], pose_at(4, 4).coords)


def test_step_opens_tracks_with_fresh_ids():
    state = tracker()
    ids = state.step(0, S([pose_at(0, 0), pose_at(100, 100)]))
    assert ids == [0, 1]
    assert state.next_id == 2


def test_step_preserves_ids_on_repeat():
    state = tracker(propagator="identity")
    state.step(0, S([pose_at(0, 0), pose_at(100, 100)]))
    ids = state.step(1, S([pose_at(0, 0), pose_at(100, 100)]))
    assert ids == [0, 1]


def test_tracker_takes_only_named_settings_in_range():
    # a propagator is a key of PROPAGATORS; the function itself is not
    for bad in ({"propagator": identity}, {"propagator": "flow"},
                {"matcher": "exhaustive"}, {"sim_threshold": 1.5}, {"lookback": 0}):
        with pytest.raises(PoseError):
            tracker(**bad)


def test_step_rejects_non_monotone_frames():
    state = tracker()
    state.step(2, S([pose_at(0, 0)]))
    with pytest.raises(PoseError):
        state.step(2, S([pose_at(0, 0)]))
    with pytest.raises(PoseError):
        state.step(1, S([pose_at(0, 0)]))


def _run_two_lane_scenario(propagator, sim_threshold):
    """Two persons in separate lanes; one slow first step (2 px) then fast
    constant motion (6 px/frame) for 10 frames. Returns ids per frame."""
    state = tracker(sim_threshold=sim_threshold, propagator=propagator)
    per_frame = []
    xs = [0.0, 2.0] + [2.0 + 6.0 * k for k in range(1, 9)]
    for t in range(10):
        dets = [pose_at(xs[t], 0.0), pose_at(200.0 - xs[t], 60.0)]
        per_frame.append(state.step(t, S(dets)))
    return state, per_frame


def _count_id_changes(per_frame):
    changes = 0
    for person in range(2):
        for t in range(1, len(per_frame)):
            if per_frame[t][person] != per_frame[t - 1][person]:
                changes += 1
    return changes


def test_velocity_propagator_zero_switches_on_constant_motion():
    state, per_frame = _run_two_lane_scenario("velocity", 0.7)
    assert _count_id_changes(per_frame) == 0
    assert all(ids == [0, 1] for ids in per_frame)
    assert len(finalize(state, 2)) == 2


def test_identity_propagator_documented_switch_count():
    # hand simulation: OKS of a 2 px step is exp(-4/(2*1000*0.04)) ~ 0.95
    # (match), of a 6 px step ~ exp(-36/80) ~ 0.64 (below the 0.7 threshold),
    # so ids survive only the first, slow step: each person changes ids at
    # frames 2..9, i.e. 8 changes per person, 16 total.
    state, per_frame = _run_two_lane_scenario("identity", 0.7)
    assert per_frame[1] == per_frame[0]
    assert _count_id_changes(per_frame) == 16
    kept = finalize(state, 2)
    assert len(kept) == 2   # only the two 2-frame tracks survive pruning


def test_ground_truth_identity_motion_never_switches_or_prunes():
    state = tracker(propagator="identity")
    dets = [pose_at(10, 10), pose_at(120, 40), pose_at(60, 150)]
    ids_per_frame = [state.step(t, S(dets)) for t in range(6)]
    assert all(ids == ids_per_frame[0] for ids in ids_per_frame)
    kept = finalize(state, 2)
    assert kept == [0, 1, 2] and all(len(state.tracks[t]) == 6 for t in kept)


def test_step_is_deterministic():
    runs = []
    for _ in range(2):
        state = tracker(propagator="identity")
        out = []
        rng = np.random.default_rng(0)
        for t in range(6):
            dets = [pose_at(rng.uniform(0, 50), rng.uniform(0, 50))
                    for _ in range(3)]
            out.append(state.step(t, S(dets)))
        runs.append(out)
    assert runs[0] == runs[1]


def test_tracks_retire_after_lookback():
    state = tracker(propagator="identity", lookback=2)
    state.step(0, S([pose_at(0, 0)]))
    state.step(1, S([]))
    state.step(2, S([]))
    state.step(3, S([]))   # gap 3 > lookback 2: track retires
    ids = state.step(4, S([pose_at(0, 0)]))
    assert ids == [1]


class _Unreadable(collections.abc.Mapping):
    """A history that fails the test on any read."""

    def _read(self, *args):
        raise AssertionError("a retired history was read")

    __getitem__ = __iter__ = __len__ = __reversed__ = __contains__ = _read


def test_a_retired_history_is_never_read_again():
    state = tracker(propagator="identity", lookback=2)
    state.step(0, S([pose_at(0, 0)]))
    state.step(1, S([pose_at(100, 100)]))
    state.step(3, S([pose_at(100, 100)]))   # track 0's gap 3 > lookback 2: it retires
    assert state.live == [1]
    state.tracks[0] = _Unreadable()
    for t in range(4, 20):
        # a person back at track 0's place opens a new track
        assert state.step(t, S([pose_at(100, 100), pose_at(0, 0)])) == [1, 2]
    assert state.live == [1, 2]


def test_track_rematch_within_lookback():
    state = tracker(propagator="identity", lookback=8)
    state.step(0, S([pose_at(0, 0)]))
    state.step(1, S([]))
    state.step(2, S([]))
    ids = state.step(3, S([pose_at(0, 0)]))
    assert ids == [0]


def test_finalize_prunes_short_tracks():
    state = tracker(propagator="identity")
    state.step(0, S([pose_at(0, 0), pose_at(100, 100)]))
    state.step(1, S([pose_at(0, 0)]))
    assert finalize(state, 2) == [0]
    assert finalize(state, 1) == [0, 1]
    with pytest.raises(PoseError):
        finalize(state, 0)


def test_finalize_counts_stored_frames_not_span():
    # 3 observations with a 1-frame hole still count as length 3
    state = tracker(propagator="identity")
    state.step(0, S([pose_at(0, 0)]))
    state.step(1, S([]))
    state.step(2, S([pose_at(0, 0)]))
    state.step(3, S([pose_at(0, 0)]))
    assert finalize(state, 3) == [0] and len(state.tracks[0]) == 3


def test_hungarian_resolves_crossing_better_than_greedy():
    # cost structure where greedy grabs the wrong pair first
    sims = np.array([[0.55, 0.60], [0.05, 0.58]])
    from posepipe.assignment import solve_greedy, solve_hungarian
    g = solve_greedy(1.0 - sims)
    h = solve_hungarian(1.0 - sims)
    assert g == {0: 1, 1: 0}   # greedy takes the 0.60 cell first
    assert h == {0: 0, 1: 1}


def test_similarity_matrix_matches_pair_loop():
    rng = np.random.default_rng(11)
    frame = 12
    for _ in range(30):
        tracks = []
        for i in range(int(rng.integers(0, 7))):
            # last seen 1 to 10 frames back
            first = frame - int(rng.integers(1, 11)) - int(rng.integers(1, 3))
            history = {f: pose_at(rng.uniform(0, 40), rng.uniform(0, 40))
                       for f in sorted({first, frame - int(rng.integers(1, 11))})}
            tracks.append(history)
        dets = [pose_at(rng.uniform(0, 40), rng.uniform(0, 40))
                for _ in range(int(rng.integers(0, 7)))]
        for name, prop in PROPAGATORS.items():
            got = similarity(tracks, S(dets), frame, prop, CONSTS)
            want = np.zeros((len(tracks), len(dets)))
            for i, t in enumerate(tracks):
                predicted = reference_propagate(t, frame - max(t), name)
                for j, det in enumerate(dets):
                    want[i, j] = reference_oks(predicted, det, CONSTS)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_similarity_matrix_rejects_a_past_track():
    tracks = [{3: pose_at(10, 10)}, {5: pose_at(10, 10)}]
    with pytest.raises(PoseError):
        similarity(tracks, S([pose_at(10, 10)]), 5, identity, CONSTS)


def test_custom_propagator_runs_once_per_live_track_per_frame(monkeypatch):
    calls = []

    def counting(histories, gaps):
        calls.append([(next(i for i, h in enumerate(state.tracks) if h is history), gap)
                      for history, gap in zip(histories, gaps)])
        return identity(histories, gaps)

    monkeypatch.setitem(PROPAGATORS, "counting", counting)
    state = tracker(propagator="counting", lookback=3)
    lanes = [pose_at(0, 0), pose_at(100, 100), pose_at(200, 0)]
    state.step(0, S(lanes))
    assert calls == []                        # no track yet
    state.step(1, S(lanes[:2]))
    assert calls == [[(0, 1), (1, 1), (2, 1)]]  # each live track once, in one call
    calls.clear()
    state.step(2, S([]))
    assert calls == []                        # nothing to score
    state.step(4, S(lanes))                      # track 2 is 4 frames back: retired
    assert calls == [[(0, 3), (1, 3)]]


def test_similarity_rejects_an_empty_history():
    with pytest.raises(PoseError, match="non-empty"):
        similarity([{3: pose_at(10, 10)}, {}], S([pose_at(10, 10)]), 5, identity, CONSTS)


def test_propagation_raises_the_error_of_its_first_failing_track():
    # track a's annotated joints and track b's box move by ~2e308 a frame,
    # so their propagated values overflow to inf and break a rule; the rules
    # run once over the propagated stack and raise what checking the tracks
    # one by one raises first
    base = pose_at(0, 0)
    far = np.full((JS.count, 2), 1e308)
    a = {0: dataclasses.replace(base, coords=-far), 1: dataclasses.replace(base, coords=far)}
    b = {0: dataclasses.replace(base, box=np.array([-1e308, 0, 25, 40])),
         1: dataclasses.replace(base, box=np.array([1e308, 0, 25, 40]))}
    with pytest.raises(PoseError, match="^annotated joints must have finite coordinates$"):
        constant_velocity([a, b], [1, 1])
    with pytest.raises(PoseError, match="^box must be finite"):
        constant_velocity([b, a], [1, 1])
    # identity keeps the last instances, which passed when they were made
    assert identity([a, b], [1, 1]).coords.tolist() == [far.tolist(), base.coords.tolist()]
