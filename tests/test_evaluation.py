import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from posepipe import PoseError, builtin_joint_set, evaluation
from posepipe.evaluation import compute_map, compute_mota, format_table, match_poses
from posepipe.instances import InstanceStack, PersonInstance
from posepipe.poseio import PoseSequence

from oracles import (
    _reference_judge,
    pckh_distance,
    reference_compute_map,
    reference_compute_mota,
    reference_match_poses,
    reference_pose_matching,
)

JS = builtin_joint_set("posetrack")
K = JS.count


def seq(frames):
    """The PoseSequence of [(frame_index, [PersonInstance])]."""
    return PoseSequence(JS, [(t, InstanceStack.of(JS, p)) for t, p in frames])


def gt_person(center, person_id, head_size=10.0, annotated=None):
    coords = np.column_stack([center[0] + 2.0 * np.arange(K),
                              np.full(K, float(center[1]))])
    return PersonInstance(
        box=np.array([center[0] - 5.0, center[1] - 5.0, 40.0, 60.0]),
        box_score=1.0,
        coords=coords,
        scores=np.ones(K),
        annotated=np.ones(K, bool) if annotated is None else annotated,
        joint_set="posetrack",
        person_id=person_id,
        head_size=head_size,
    )


def pred_from(gt, displacement=(0.0, 0.0), score=0.9, track_id=None):
    return PersonInstance(
        box=gt.box.copy(),
        box_score=1.0,
        coords=gt.coords + np.asarray(displacement, float),
        scores=np.full(K, score),
        annotated=gt.annotated.copy(),
        joint_set="posetrack",
        score=score,
        track_id=track_id,
    )


def test_pckh_distance_examples():
    assert pckh_distance((3, 4), (3, 4), 10.0) == 0.0
    assert pckh_distance((0, 0), (0, 10), 10.0) == 1.0
    assert pckh_distance((0, 0), (4, 0), 10.0) == pytest.approx(0.4)
    assert pckh_distance((0, 0), (0, 5), 10.0) <= 0.5          # correct
    assert pckh_distance((0, 0), (0, 5.01), 10.0) > 0.5        # incorrect
    with pytest.raises(PoseError):
        pckh_distance((0, 0), (0, 0), 0.0)


def test_perfect_predictions_score_100():
    gts, preds = [], []
    for t in range(3):
        g = [gt_person((0, 0), 0), gt_person((100, 0), 1)]
        p = [pred_from(g[0], score=1.0, track_id=5),
             pred_from(g[1], score=1.0, track_id=6)]
        gts.append((t, g))
        preds.append((t, p))
    rep = compute_map(seq(preds), seq(gts))
    assert rep["total_map"] == 100.0
    assert all(v == 100.0 for v in rep["per_joint_ap"].values())
    rep = compute_mota(seq(preds), seq(gts))
    assert rep["total_mota"] == 100.0
    assert all(v == 100.0 for v in rep["per_joint_mota"].values())
    assert rep["total_precision"] == 100.0
    assert rep["total_recall"] == 100.0
    assert rep["total_motp"] == 0.0


def test_all_far_predictions_score_zero_map():
    g = [gt_person((0, 0), 0)]
    p = [pred_from(g[0], displacement=(50.0, 50.0))]   # 0.5*head 5 px << 70 px
    rep = compute_map(seq([(0, p)]), seq([(0, g)]))
    assert rep["total_map"] == 0.0


def test_hand_built_precision_recall_curve():
    # two GT persons; one exact prediction at score .9, one 20 px off at .8,
    # one spurious extra at .7: per joint the ranked records are
    # (.9 TP), (.8 FP), (.7 FP) with npos = 2, so AP = 0.5 * 1.0 = 50
    g = [gt_person((0, 0), 0), gt_person((300, 0), 1)]
    p = [pred_from(g[0], score=0.9),
         pred_from(g[1], displacement=(20.0, 0.0), score=0.8),
         pred_from(gt_person((600, 0), 2), score=0.7)]
    rep = compute_map(seq([(0, p)]), seq([(0, g)]))
    assert all(v == pytest.approx(50.0) for v in rep["per_joint_ap"].values())
    assert rep["total_map"] == pytest.approx(50.0)


def test_mota_id_swap_scenario():
    # 2 persons, 10 frames, everything matched; ids swap once mid-sequence:
    # per joint GT = 20, FN = FP = 0, IDSW = 2 -> MOTA = 100 * (1 - 2/20) = 90
    gts, preds = [], []
    for t in range(10):
        g = [gt_person((0, 0), 0), gt_person((200, 0), 1)]
        ids = (7, 8) if t < 5 else (8, 7)
        p = [pred_from(g[0], score=1.0, track_id=ids[0]),
             pred_from(g[1], score=1.0, track_id=ids[1])]
        gts.append((t, g))
        preds.append((t, p))
    rep = compute_mota(seq(preds), seq(gts))
    assert all(v == pytest.approx(90.0) for v in rep["per_joint_mota"].values())
    assert rep["total_mota"] == pytest.approx(90.0)
    assert rep["counts"]["idsw"] == 2 * K


def test_mota_all_predictions_dropped():
    gts = [(t, [gt_person((0, 0), 0)]) for t in range(4)]
    preds = [(t, []) for t in range(4)]
    rep = compute_mota(seq(preds), seq(gts))
    assert rep["total_mota"] == pytest.approx(0.0)   # FN == GT
    assert rep["total_precision"] == 0.0
    assert rep["total_recall"] == 0.0


def test_map_empty_gt_joint_excluded():
    ann = np.ones(K, bool)
    ann[0] = False   # nose never annotated
    gts = [(0, [gt_person((0, 0), 0, annotated=ann)])]
    preds = [(0, [pred_from(gts[0][1][0])])]
    rep = compute_map(seq(preds), seq(gts))
    assert rep["per_joint_ap"][JS.joints[0]] is None
    assert rep["total_map"] == pytest.approx(
        np.mean([v for v in rep["per_joint_ap"].values() if v is not None]))


def test_duplicate_low_score_prediction_never_increases_ap():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n_gt = int(rng.integers(1, 4))
        g = [gt_person((80.0 * i, 0), i) for i in range(n_gt)]
        # all base predictions correct (displacement < 0.5 * head size)
        p = [pred_from(g[i], displacement=(rng.uniform(0, 4), 0),
                       score=float(rng.uniform(0.5, 1.0)))
             for i in range(n_gt)]
        base = compute_map(seq([(0, p)]), seq([(0, g)]))["total_map"]
        # duplicating a correct prediction at a lower score must not help
        dup = pred_from(g[0], displacement=(rng.uniform(0, 4), 0), score=0.3)
        worse = compute_map(seq([(0, p + [dup])]), seq([(0, g)]))["total_map"]
        assert worse <= base + 1e-9


def test_injected_fp_and_fn_reduce_scores():
    gts, preds = [], []
    for t in range(5):
        g = [gt_person((0, 0), 0), gt_person((200, 0), 1)]
        p = [pred_from(g[0], score=0.9, track_id=1),
             pred_from(g[1], score=0.9, track_id=2)]
        gts.append((t, g))
        preds.append((t, p))
    base_map = compute_map(seq(preds), seq(gts))["total_map"]
    base_mota = compute_mota(seq(preds), seq(gts))["total_mota"]

    # a false positive that outranks the true detections
    fp = pred_from(gt_person((500, 0), 9), score=0.95, track_id=3)
    preds_fp = [(t, p + [fp]) for t, p in preds]
    assert compute_map(seq(preds_fp), seq(gts))["total_map"] < base_map
    assert compute_mota(seq(preds_fp), seq(gts))["total_mota"] < base_mota

    preds_fn = [(t, p[:1]) for t, p in preds]
    assert compute_map(seq(preds_fn), seq(gts))["total_map"] < base_map
    assert compute_mota(seq(preds_fn), seq(gts))["total_mota"] < base_mota


def test_mota_decreases_with_injected_id_switch():
    gts, preds = [], []
    for t in range(6):
        g = [gt_person((0, 0), 0)]
        p = [pred_from(g[0], score=1.0, track_id=4 if t != 3 else 5)]
        gts.append((t, g))
        preds.append((t, p))
    rep = compute_mota(seq(preds), seq(gts))
    assert rep["total_mota"] < 100.0
    # the injected flip costs two switches per joint (4 -> 5 -> 4)
    assert rep["counts"]["idsw"] == 2 * K


def by_gt(pair):
    return pair[1]


def test_greedy_matching_agrees_with_reference():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n_p = int(rng.integers(0, 4))
        n_g = int(rng.integers(1, 4))
        g = [gt_person((40.0 * i, 0), i) for i in range(n_g)]
        p = [pred_from(g[int(rng.integers(0, n_g))],
                       displacement=(rng.uniform(0, 30), rng.uniform(0, 10)),
                       score=float(rng.random()))
             for _ in range(n_p)]
        got = match_poses(seq([(0, p)]), seq([(0, g)]))[3]
        got = list(map(tuple, got.tolist()))
        count = np.zeros((n_p, n_g), int)
        meandist = np.full((n_p, n_g), np.inf)
        for pi in range(n_p):
            for gi in range(n_g):
                both = p[pi].annotated & g[gi].annotated
                if not both.any():
                    continue
                d = np.linalg.norm(p[pi].coords[both] - g[gi].coords[both],
                                   axis=1) / g[gi].head_size
                count[pi, gi] = int((d <= 0.5).sum())
                meandist[pi, gi] = float(d.mean())
        assert got == sorted(reference_pose_matching(count, meandist), key=by_gt)


@pytest.mark.parametrize("threshold", [0.2, 0.5, 1.0])
def test_match_poses_matches_pair_by_pair_reference(threshold):
    # integer offsets with head size 10 put many joints exactly on the
    # threshold; duplicated predictions tie on count and mean distance
    rng = np.random.default_rng(int(threshold * 10))
    for _ in range(150):
        n_g = int(rng.integers(0, 6))
        g = [gt_person((30.0 * i, 0), i, annotated=rng.random(K) < 0.8)
             for i in range(n_g)]
        p = []
        for _ in range(int(rng.integers(0, 7))):
            src = g[int(rng.integers(0, n_g))] if n_g else gt_person((0, 0), 0)
            shape = (K, 2) if rng.random() < 0.5 else 2
            pred = pred_from(src, displacement=rng.integers(-12, 13, shape).astype(float))
            pred.annotated = pred.annotated & (rng.random(K) < 0.8)
            p.append(pred)
            if rng.random() < 0.3:
                p.append(dataclasses.replace(pred))
        *_, pairs, correct, dist = match_poses(seq([(0, p)]), seq([(0, g)]), threshold)
        pairs = list(map(tuple, pairs.tolist()))
        assert pairs == sorted(reference_match_poses(p, g, threshold), key=by_gt)
        # each matched pair's rows are its own judgement, bit for bit
        for r, (pi, gi) in enumerate(pairs):
            want_ok, want_d = _reference_judge(p[pi], g[gi], threshold)
            assert np.array_equal(correct[r], want_ok) and np.array_equal(dist[r], want_d)


def test_mota_requires_ids():
    g = [gt_person((0, 0), 0)]
    p = [pred_from(g[0])]
    with pytest.raises(PoseError):
        compute_mota(seq([(0, p)]), seq([(0, g)]))
    bad_gt = gt_person((0, 0), 0)
    bad_gt.person_id = None
    with pytest.raises(PoseError):
        compute_mota(seq([(0, [pred_from(g[0], track_id=1)])]), seq([(0, [bad_gt])]))


def test_ground_truth_frame_validation():
    g = gt_person((0, 0), 0)
    with pytest.raises(PoseError, match="duplicate person ids"):
        compute_mota(seq([(0, [pred_from(g, track_id=1)])]),
                     seq([(0, [g, gt_person((5, 5), 0)])]))
    bad = gt_person((0, 0), 1)
    bad.head_size = None
    with pytest.raises(PoseError, match="head_size"):
        compute_map(seq([(0, [pred_from(bad, score=1.0)])]), seq([(0, [bad])]))
    frames = [(0, [g])]
    rep = compute_map(seq([(0, [pred_from(g, score=1.0)])]), seq(frames))
    assert rep["total_map"] == 100.0


def test_table_formatting_layout():
    gts = [(0, [gt_person((0, 0), 0)])]
    preds = [(0, [pred_from(gts[0][1][0], score=1.0, track_id=1)])]
    t_map = format_table(compute_map(seq(preds), seq(gts)))
    header = t_map.splitlines()[0]
    for col in ("Head", "Shoulder", "Elbow", "Wrist", "Hip", "Knee", "Ankle", "Total"):
        assert col in header
    t_mota = format_table(compute_mota(seq(preds), seq(gts)))
    for col in ("MOTP", "Prec", "Rec"):
        assert col in t_mota.splitlines()[0]
    doc = compute_mota(seq(preds), seq(gts))
    assert doc["total_mota"] == 100.0
    assert set(doc["groups"]) == {"Head", "Shoulder", "Elbow", "Wrist",
                                  "Hip", "Knee", "Ankle"}


def _random_sequence(rng, num_frames):
    """Integer-valued frames with head size 10: distances land exactly on
    0.2, 0.5 and 1.0 (offsets such as (0, 2), (3, 4) and (6, 8)). Joints go
    missing on either side, predictions and ground truth go unmatched, some
    frames exist on one side only, and track ids swap between persons."""
    track_of = list(rng.permutation(6))
    gts, preds = [], []
    for t in range(num_frames):
        if rng.random() < 0.3:   # two persons swap track ids from here on
            a, b = rng.choice(6, size=2, replace=False)
            track_of[a], track_of[b] = track_of[b], track_of[a]
        frame_gts, frame_preds = [], []
        for pid in rng.choice(6, size=int(rng.integers(0, 5)), replace=False):
            g = PersonInstance(
                box=np.array([0.0, 0.0, 40.0, 60.0]), box_score=1.0,
                coords=rng.integers(0, 40, size=2) + rng.integers(-10, 11, size=(K, 2)),
                scores=np.ones(K), annotated=rng.random(K) < 0.8,
                joint_set="posetrack", person_id=int(pid), head_size=10.0,
            )
            frame_gts.append(g)
            if rng.random() < 0.8:
                frame_preds.append(PersonInstance(
                    box=g.box, box_score=1.0,
                    coords=g.coords + rng.integers(-8, 9, size=(K, 2)),
                    scores=rng.integers(0, 5, size=K) / 4.0,
                    annotated=rng.random(K) < 0.8, joint_set="posetrack",
                    track_id=int(track_of[pid]),
                ))
        for _ in range(int(rng.integers(0, 3))):   # spurious predictions
            frame_preds.append(PersonInstance(
                box=np.array([0.0, 0.0, 40.0, 60.0]), box_score=1.0,
                coords=rng.integers(0, 60, size=(K, 2)),
                scores=rng.integers(0, 5, size=K) / 4.0,
                annotated=rng.random(K) < 0.8, joint_set="posetrack",
                track_id=int(rng.integers(6, 9)),
            ))
        rng.shuffle(frame_preds)
        side = rng.random()
        if side > 0.1:
            gts.append((t, frame_gts))
        if side < 0.9:
            preds.append((t, frame_preds))
    return preds, gts


def _assert_reports_match_reference_loops(preds, gts, threshold):
    """Both reports equal the per-joint reference loops; returns the
    reference's identity-switch count."""
    rep = compute_map(seq(preds), seq(gts), threshold=threshold)
    want = reference_compute_map(preds, gts, K, threshold)
    assert [rep["per_joint_ap"][n] for n in JS.joints] == want["ap"]
    assert rep["total_map"] == want["map_total"]

    rep = compute_mota(seq(preds), seq(gts), threshold=threshold)
    want = reference_compute_mota(preds, gts, K, threshold)
    assert [rep["per_joint_mota"][n] for n in JS.joints] == want["mota"]
    for key in ("mota", "precision", "recall"):
        assert rep[f"total_{key}"] == want[f"{key}_total"], key
    assert [rep["counts"]["gt_joints"][n] for n in JS.joints] == want["gt_joints"]
    assert [rep["counts"]["fp_per_joint"][n] for n in JS.joints] == want["fp"]
    assert rep["counts"]["fp"] == sum(want["fp"])
    assert (rep["counts"]["fn"], rep["counts"]["idsw"]) == (want["fn"], want["idsw"])
    if want["motp_total"] is None:
        assert rep["total_motp"] is None
    else:
        assert rep["total_motp"] == pytest.approx(want["motp_total"], rel=1e-12, abs=0)
    return want["idsw"]


def test_no_frames_and_empty_frames_match_the_reference_loops():
    # the stacked columns of no frame, or of frames with no pose, on either side
    preds, gts = _random_sequence(np.random.default_rng(2), 6)
    empty = [(t, []) for t in (0, 3, 9)]
    for pair in [([], []), (empty, empty), ([], gts), (preds, []), (empty, gts),
                 (preds, empty)]:
        _assert_reports_match_reference_loops(*pair, 0.5)


@pytest.mark.parametrize("threshold", [0.2, 0.5, 1.0])
def test_metrics_match_per_joint_reference_loops(threshold, monkeypatch):
    # every other sequence is judged in slices of 40 pairs, which split
    # frames, so the ranking, the distance sums and the identity switches
    # span slices
    rng = np.random.default_rng(7)
    on_threshold = idsw = 0
    caps = (evaluation.BLOCK_PAIRS, 40)
    for i in range(40):
        monkeypatch.setattr(evaluation, "BLOCK_PAIRS", caps[i % 2])
        preds, gts = _random_sequence(rng, int(rng.integers(1, 61)))
        gt_by_frame = dict(gts)
        on_threshold += sum(
            int(np.sum(np.linalg.norm(p.coords - g.coords, axis=1) == 10.0 * threshold))
            for t, pp in preds for p in pp for g in gt_by_frame.get(t, []))
        idsw += _assert_reports_match_reference_loops(preds, gts, threshold)
    assert on_threshold > 0 and idsw > 0


def _spy(monkeypatch, name):
    """Replace evaluation.<name> by a wrapper that records each call's
    arguments; returns the list of recorded argument tuples."""
    calls, original = [], getattr(evaluation, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(evaluation, name, spy)
    return calls


def _reports(pred, gt):
    return [json.dumps(fn(pred, gt, threshold=threshold))
            for threshold in (0.2, 0.5, 1.0) for fn in (compute_map, compute_mota)]


def test_no_pose_is_matched_across_frames():
    # the persons swap places: each frame-0 prediction sits exactly on a
    # frame-1 ground truth, a better match than its own (0.4 head sizes off)
    g0 = [gt_person((0, 0), 0), gt_person((60, 0), 1)]
    p0 = [pred_from(g, displacement=(4.0, 0.0), score=0.8, track_id=10 + g.person_id)
          for g in g0]
    g1 = [gt_person((64, 0), 0), gt_person((4, 0), 1)]
    p1 = [pred_from(g, displacement=(4.0, 0.0), score=0.6, track_id=10 + g.person_id)
          for g in g1]
    preds, gts = [(0, p0), (1, p1)], [(0, g0), (1, g1)]
    *_, pairs, correct, _ = match_poses(seq(preds), seq(gts))
    assert pairs.tolist() == [[0, 0], [1, 1], [2, 2], [3, 3]] and correct.all()
    for threshold in (0.2, 0.5, 1.0):
        _assert_reports_match_reference_loops(preds, gts, threshold)
    rep = compute_mota(seq(preds), seq(gts))
    assert rep["total_mota"] == 100.0 and rep["counts"]["idsw"] == 0
    assert compute_map(seq(preds), seq(gts))["total_map"] == 100.0


@pytest.mark.parametrize("cap", [1, 7, 100])
def test_slices_of_pairs_give_the_bytes_of_one_slice(monkeypatch, cap):
    # a cap of 1 judges pair by pair; 7 and 100 cut slices mid-frame
    rng = np.random.default_rng(11)
    for _ in range(8):
        preds, gts = _random_sequence(rng, 40)
        whole = _reports(seq(preds), seq(gts))
        monkeypatch.setattr(evaluation, "BLOCK_PAIRS", cap)
        assert _reports(seq(preds), seq(gts)) == whole
        monkeypatch.undo()


def test_judged_pairs_stay_within_the_slice_cap(monkeypatch):
    cap = 10   # below the largest frames, which are split between slices
    monkeypatch.setattr(evaluation, "BLOCK_PAIRS", cap)
    judged = _spy(monkeypatch, "_judge")
    preds, gts = _random_sequence(np.random.default_rng(5), 200)
    pred_by_frame, gt_by_frame = dict(preds), dict(gts)
    frames = [(pred_by_frame.get(t, []), gt_by_frame.get(t, []))
              for t in sorted(set(pred_by_frame) | set(gt_by_frame))]
    per_frame = [len(p) * len(g) for p, g in frames]
    compute_map(seq(preds), seq(gts))
    compute_mota(seq(preds), seq(gts))
    sizes = [len(args[2]) for args in judged]   # the pair index arrays
    assert max(per_frame) > cap and max(sizes) == cap
    # each report judges every pair once, then its matched pairs once more
    assert sum(sizes) == 2 * (sum(per_frame) + len(match_poses(seq(preds), seq(gts))[3]))


def test_match_poses_runs_once_per_report(monkeypatch):
    pred, gt = map(seq, _random_sequence(np.random.default_rng(3), 60))
    calls = _spy(monkeypatch, "match_poses")
    _reports(pred, gt)
    monkeypatch.setattr(evaluation, "BLOCK_PAIRS", 7)
    _reports(pred, gt)
    assert len(calls) == 12   # one call per report, whatever the slice cap
    assert calls[0][0] is pred and calls[0][1] is gt   # whole sequences


def test_a_frame_over_the_pair_limit_is_rejected_before_any_pair_is_judged(monkeypatch):
    monkeypatch.setattr(evaluation, "FRAME_PAIRS_LIMIT", 6)
    judged = _spy(monkeypatch, "_judge")
    g = [gt_person((40.0 * i, 0), i) for i in range(3)]
    gts = [(t, g) for t in range(5)]
    preds = [(t, [pred_from(x, track_id=x.person_id) for x in g[:2]]) for t in range(5)]
    preds[4] = (4, preds[4][1] + [pred_from(g[2], track_id=2)])   # 3 x 3 = 9 pairs
    for fn in (compute_map, compute_mota):
        with pytest.raises(PoseError, match=r"^3 predictions x 3 ground truths exceed 6 "
                                            r"pairs in a frame \(frame=4\)$"):
            fn(seq(preds), seq(gts))
    assert judged == []
    # 2 x 3 = 6 pairs in every frame: at the limit, not over it
    assert compute_map(seq(preds[:4]), seq(gts[:4]))["total_map"] == pytest.approx(100.0 * 2 / 3)
    assert judged


def test_id_faults_name_their_frame_and_head_sizes_come_first():
    def sequence():
        gts = [(t, [gt_person((0, 0), 0), gt_person((100, 0), 1)]) for t in range(10)]
        preds = [(t, [pred_from(g, track_id=g.person_id) for g in frame])
                 for t, frame in gts]
        return preds, gts

    for fault, message in (("track", "needs track ids"), ("person", "needs person ids"),
                           ("duplicate", "duplicate person ids")):
        preds, gts = sequence()
        if fault == "track":
            preds[7][1][1].track_id = None
        else:
            gts[7][1][1].person_id = None if fault == "person" else 0
        with pytest.raises(PoseError, match=message) as err:
            compute_mota(seq(preds), seq(gts))
        assert err.value.frame == 7
    # a missing track id in frame 3 and a bad head size in frame 7: every
    # head size is checked before any id
    preds, gts = sequence()
    preds[3][1][0].track_id = None
    gts[7][1][0].head_size = 0.0
    with pytest.raises(PoseError, match="head_size"):
        compute_mota(seq(preds), seq(gts))


@pytest.mark.parametrize("spare", [0, 5])
def test_groups_of_frames_give_the_bytes_of_one_group(monkeypatch, spare):
    # a limit at or just above the largest frame matches the sequence in many
    # groups; each frame's matching is its own, so the reports do not change
    rng = np.random.default_rng(17)
    for _ in range(6):
        preds, gts = _random_sequence(rng, 40)
        pred_by_frame, gt_by_frame = dict(preds), dict(gts)
        largest = max(len(pred_by_frame.get(t, [])) * len(gt_by_frame.get(t, []))
                      for t in set(pred_by_frame) | set(gt_by_frame))
        whole = _reports(seq(preds), seq(gts))
        monkeypatch.setattr(evaluation, "FRAME_PAIRS_LIMIT", max(largest + spare, 1))
        walks = _spy(monkeypatch, "greedy_walk")
        assert _reports(seq(preds), seq(gts)) == whole
        assert len(walks) > 6   # more than one group per report
        monkeypatch.undo()


def _match_peak(frames: int) -> int:
    """tracemalloc peak of one match_poses call (after a first, untraced
    one) over frames of 32 co-located persons, every pair a candidate."""
    g = [gt_person((0, 0), i) for i in range(32)]
    p = [pred_from(x, track_id=x.person_id) for x in g]
    pred, gt = seq([(t, p) for t in range(frames)]), seq([(t, g) for t in range(frames)])
    match_poses(pred, gt)
    tracemalloc.start()
    try:
        match_poses(pred, gt)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_match_poses_memory_does_not_grow_with_the_frame_count(monkeypatch):
    # each frame at the limit: one frame's candidates are held at a time;
    # what grows with the frames is the stacked poses and the matched rows
    monkeypatch.setattr(evaluation, "FRAME_PAIRS_LIMIT", 32 * 32)
    one = _match_peak(1)
    assert _match_peak(8) < 1.5 * one
    # one group of all 8 frames holds every frame's candidates at once
    monkeypatch.setattr(evaluation, "FRAME_PAIRS_LIMIT", 8 * 32 * 32)
    assert _match_peak(8) > 3 * one


def test_a_mean_distance_past_the_float_limit_is_silent():
    # one correct joint and two ~1e308 head sizes off: their mean overflows
    # to inf (pyproject.toml makes a RuntimeWarning an error)
    g = gt_person((0, 0), 0, head_size=1e-154)
    far = g.coords.copy()
    far[1:3, 0] += 1e154
    p = pred_from(g, track_id=0)
    g = dataclasses.replace(g, coords=far)
    assert compute_map(seq([(0, [p])]), seq([(0, [g])]))["total_map"] == pytest.approx(
        100.0 * 13 / 15)
    assert compute_mota(seq([(0, [p])]), seq([(0, [g])]))["counts"]["fp"] == 2
