import numpy as np
import pytest

from posepipe import PoseError, builtin_joint_set
from posepipe.instances import PersonInstance
from posepipe.suppression import OksConstants
from posepipe.tracking import (
    Track,
    TrackerConfig,
    TrackerState,
    constant_velocity,
    finalize,
    identity,
    similarity,
)

from oracles import reference_oks

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


def similarity1(track, candidate, frame, prop, lookback=8):
    """One track's similarity to one candidate, as a 1 x 1 stack."""
    return similarity([track], [candidate], frame, prop, CONSTS, lookback)[0, 0]


def test_identity_propagator_same_pose_similarity_one():
    t = Track(0, {3: pose_at(10, 10)})
    assert similarity1(t, pose_at(10, 10), 4, identity) == 1.0


def test_similarity_requires_future_frame():
    t = Track(0, {3: pose_at(10, 10)})
    with pytest.raises(PoseError):
        similarity1(t, pose_at(10, 10), 3, identity)


def test_similarity_beyond_lookback_is_zero():
    t = Track(0, {0: pose_at(10, 10)})
    assert similarity1(t, pose_at(10, 10), 9, identity, lookback=8) == 0.0
    assert similarity1(t, pose_at(10, 10), 8, identity, lookback=8) == 1.0


def test_velocity_propagator_tracks_linear_motion_exactly():
    t = Track(0, {0: pose_at(0, 0), 1: pose_at(6, 2)})
    for gap in range(1, 9):
        cand = pose_at(6 + 6 * gap, 2 + 2 * gap)
        s = similarity1(t, cand, 1 + gap, constant_velocity, lookback=8)
        assert s == pytest.approx(1.0)


def test_velocity_propagator_gap_zero_is_identity():
    t = Track(0, {0: pose_at(0, 0), 1: pose_at(6, 2)})
    p = constant_velocity(t, 0)
    assert np.array_equal(p.coords, t.last_instance.coords)


def test_velocity_falls_back_with_single_observation():
    t = Track(0, {0: pose_at(4, 4)})
    p = constant_velocity(t, 3)
    assert np.array_equal(p.coords, pose_at(4, 4).coords)


def test_step_opens_tracks_with_fresh_ids():
    state = TrackerState(CONSTS)
    ids = state.step(0, [pose_at(0, 0), pose_at(100, 100)])
    assert ids == [0, 1]
    assert state.next_id == 2


def test_step_preserves_ids_on_repeat():
    state = TrackerState(CONSTS, TrackerConfig(propagator="identity"))
    state.step(0, [pose_at(0, 0), pose_at(100, 100)])
    ids = state.step(1, [pose_at(0, 0), pose_at(100, 100)])
    assert ids == [0, 1]


def test_step_rejects_non_monotone_frames():
    state = TrackerState(CONSTS)
    state.step(2, [pose_at(0, 0)])
    with pytest.raises(PoseError):
        state.step(2, [pose_at(0, 0)])
    with pytest.raises(PoseError):
        state.step(1, [pose_at(0, 0)])


def _run_two_lane_scenario(propagator, sim_threshold):
    """Two persons in separate lanes; one slow first step (2 px) then fast
    constant motion (6 px/frame) for 10 frames. Returns ids per frame."""
    cfg = TrackerConfig(sim_threshold=sim_threshold, propagator=propagator)
    state = TrackerState(CONSTS, cfg)
    per_frame = []
    xs = [0.0, 2.0] + [2.0 + 6.0 * k for k in range(1, 9)]
    for t in range(10):
        dets = [pose_at(xs[t], 0.0), pose_at(200.0 - xs[t], 60.0)]
        per_frame.append(state.step(t, dets))
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
    state = TrackerState(CONSTS, TrackerConfig(propagator="identity"))
    dets = [pose_at(10, 10), pose_at(120, 40), pose_at(60, 150)]
    ids_per_frame = [state.step(t, dets) for t in range(6)]
    assert all(ids == ids_per_frame[0] for ids in ids_per_frame)
    kept = finalize(state, 2)
    assert len(kept) == 3 and all(len(t) == 6 for t in kept)


def test_step_is_deterministic():
    runs = []
    for _ in range(2):
        state = TrackerState(CONSTS, TrackerConfig(propagator="identity"))
        out = []
        rng = np.random.default_rng(0)
        for t in range(6):
            dets = [pose_at(rng.uniform(0, 50), rng.uniform(0, 50))
                    for _ in range(3)]
            out.append(state.step(t, dets))
        runs.append(out)
    assert runs[0] == runs[1]


def test_tracks_retire_after_lookback():
    cfg = TrackerConfig(propagator="identity", lookback=2)
    state = TrackerState(CONSTS, cfg)
    state.step(0, [pose_at(0, 0)])
    state.step(1, [])
    state.step(2, [])
    state.step(3, [])   # gap 3 > lookback 2: track retires
    ids = state.step(4, [pose_at(0, 0)])
    assert ids == [1]


def test_track_rematch_within_lookback():
    cfg = TrackerConfig(propagator="identity", lookback=8)
    state = TrackerState(CONSTS, cfg)
    state.step(0, [pose_at(0, 0)])
    state.step(1, [])
    state.step(2, [])
    ids = state.step(3, [pose_at(0, 0)])
    assert ids == [0]


def test_finalize_prunes_short_tracks():
    state = TrackerState(CONSTS, TrackerConfig(propagator="identity"))
    state.step(0, [pose_at(0, 0), pose_at(100, 100)])
    state.step(1, [pose_at(0, 0)])
    assert [t.id for t in finalize(state, 2)] == [0]
    assert [t.id for t in finalize(state, 1)] == [0, 1]
    with pytest.raises(PoseError):
        finalize(state, 0)


def test_finalize_counts_stored_frames_not_span():
    # 3 observations with a 1-frame hole still count as length 3
    state = TrackerState(CONSTS, TrackerConfig(propagator="identity"))
    state.step(0, [pose_at(0, 0)])
    state.step(1, [])
    state.step(2, [pose_at(0, 0)])
    state.step(3, [pose_at(0, 0)])
    tracks = finalize(state, 3)
    assert len(tracks) == 1 and len(tracks[0]) == 3


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
            # last seen 1 to 10 frames back, some beyond a lookback of 8
            first = frame - int(rng.integers(1, 11)) - int(rng.integers(1, 3))
            history = {f: pose_at(rng.uniform(0, 40), rng.uniform(0, 40))
                       for f in sorted({first, frame - int(rng.integers(1, 11))})}
            tracks.append(Track(i, history))
        dets = [pose_at(rng.uniform(0, 40), rng.uniform(0, 40))
                for _ in range(int(rng.integers(0, 7)))]
        for prop in (identity, constant_velocity):
            got = similarity(tracks, dets, frame, prop, CONSTS, lookback=8)
            want = np.zeros((len(tracks), len(dets)))
            for i, t in enumerate(tracks):
                gap = frame - t.last_active
                for j, det in enumerate(dets):
                    if gap <= 8:
                        want[i, j] = reference_oks(prop(t, gap), det, CONSTS)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_similarity_matrix_rejects_a_past_track():
    tracks = [Track(0, {3: pose_at(10, 10)}), Track(1, {5: pose_at(10, 10)})]
    with pytest.raises(PoseError):
        similarity(tracks, [pose_at(10, 10)], 5, identity, CONSTS, 8)


def test_custom_propagator_runs_once_per_live_track_per_frame():
    calls = []

    def counting(track, gap):
        calls.append((track.id, gap))
        return track.last_instance

    state = TrackerState(CONSTS, TrackerConfig(propagator=counting, lookback=3))
    lanes = [pose_at(0, 0), pose_at(100, 100), pose_at(200, 0)]
    state.step(0, lanes)
    assert calls == []                        # no track yet
    state.step(1, lanes[:2])
    assert calls == [(0, 1), (1, 1), (2, 1)]  # once per live track, not per pair
    calls.clear()
    state.step(2, [])
    assert calls == []                        # nothing to score
    state.step(4, lanes)                      # track 2 is 4 frames back: retired
    assert calls == [(0, 3), (1, 3)]
