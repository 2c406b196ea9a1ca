import dataclasses

import numpy as np
import pytest

from posepipe import PoseError, builtin_joint_set, mapping
from posepipe.instances import InstanceStack, PersonInstance
from posepipe.skeletons import JointSet, canonical_name, get_joint_set, register_joint_set

from oracles import reference_take

# Official keypoint vocabularies of the three datasets, written out in full
# so the counts below are independent of the library's tables.
COCO_OFFICIAL = [
    "nose", "left_eye", "right_eye", "left_ear", "right_ear",
    "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
    "left_wrist", "right_wrist", "left_hip", "right_hip",
    "left_knee", "right_knee", "left_ankle", "right_ankle",
]
MPII_OFFICIAL = [
    "right_ankle", "right_knee", "right_hip", "left_hip", "left_knee",
    "left_ankle", "pelvis", "thorax", "upper_neck", "head_top",
    "right_wrist", "right_elbow", "right_shoulder", "left_shoulder",
    "left_elbow", "left_wrist",
]
POSETRACK_OFFICIAL = [
    "nose", "head_bottom", "head_top",
    "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
    "left_wrist", "right_wrist", "left_hip", "right_hip",
    "left_knee", "right_knee", "left_ankle", "right_ankle",
]


def test_builtin_counts():
    assert builtin_joint_set("merged").count == 21
    assert builtin_joint_set("coco").count == len(COCO_OFFICIAL) == 17
    assert builtin_joint_set("mpii").count == len(MPII_OFFICIAL) == 16
    assert builtin_joint_set("posetrack").count == len(POSETRACK_OFFICIAL) == 15


def test_builtin_vocabularies_match_official_lists():
    assert set(builtin_joint_set("coco").joints) == set(COCO_OFFICIAL)
    assert set(builtin_joint_set("mpii").joints) == set(MPII_OFFICIAL)
    assert set(builtin_joint_set("posetrack").joints) == set(POSETRACK_OFFICIAL)


def test_merged_is_union_of_datasets():
    union = {canonical_name(j)
             for j in COCO_OFFICIAL + MPII_OFFICIAL + POSETRACK_OFFICIAL}
    merged = {canonical_name(j) for j in builtin_joint_set("merged").joints}
    assert merged == union


def test_flip_pairs_are_left_right_of_same_joint():
    for name in ("merged", "coco", "mpii", "posetrack"):
        js = builtin_joint_set(name)
        assert js.flip_pairs, name
        for a, b in js.flip_pairs:
            left, right = js.joints[a], js.joints[b]
            assert left.startswith("left_")
            assert right == "right_" + left[len("left_"):]


def test_unknown_builtin_name():
    with pytest.raises(PoseError):
        builtin_joint_set("smpl")


def test_mapping_sizes():
    assert len(mapping("coco", "merged")) == 17
    # independent count: joints shared by name between the two official lists
    shared = {canonical_name(j) for j in COCO_OFFICIAL} & \
             {canonical_name(j) for j in MPII_OFFICIAL}
    assert len(mapping("coco", "mpii")) == len(shared) == 12
    assert len(mapping("posetrack", "merged")) == 15
    assert len(mapping("mpii", "merged")) == 16


def test_mapping_identity():
    for name in ("merged", "coco", "mpii", "posetrack"):
        m = mapping(name, name)
        assert m.index_map == tuple((i, i) for i in range(builtin_joint_set(name).count))


def test_mapping_matches_name_equality():
    names = ("merged", "coco", "mpii", "posetrack")
    for a in names:
        for b in names:
            m = dict(mapping(a, b).index_map)
            ja, jb = builtin_joint_set(a), builtin_joint_set(b)
            for i, joint in enumerate(ja.joints):
                expect = None
                for j, other in enumerate(jb.joints):
                    if canonical_name(joint) == canonical_name(other):
                        expect = j
                assert m.get(i) == expect


def test_take_matches_index_pair_loop():
    names = ("merged", "coco", "mpii", "posetrack")
    rng = np.random.default_rng(7)
    for a in names:
        for b in names:
            m = mapping(a, b)
            k_from, k_to = builtin_joint_set(a).count, builtin_joint_set(b).count
            for values in (rng.normal(size=(k_from, 2)),
                           rng.random(k_from) < 0.5,
                           rng.random((k_from, 4, 3)).astype(np.float32)):
                got = m.take(values)
                want = reference_take(m, values, k_to)
                assert got.dtype == want.dtype == values.dtype
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_mapping_is_built_once_and_cannot_be_written():
    m = mapping("coco", "mpii")
    assert mapping("coco", "mpii") is m
    for rows in (m.src, m.dst):
        with pytest.raises(ValueError):
            rows[0] = 3
    assert m.take(np.arange(17.0)).tolist() == reference_take(m, np.arange(17.0), 16).tolist()


def test_mapping_follows_a_re_registered_custom_name():
    # the cache is keyed by the set, not by its name
    register_joint_set(JointSet("rebound", ("nose", "left_wrist")))
    assert mapping("rebound", "coco").index_map == ((0, 0), (1, 9))
    assert mapping("coco", "rebound").index_map == ((0, 0), (9, 1))
    register_joint_set(JointSet("rebound", ("left_wrist", "left_ankle", "head_top")))
    assert mapping("rebound", "coco").index_map == ((0, 9), (1, 15))
    assert mapping("coco", "rebound").index_map == ((9, 0), (15, 1))
    assert mapping("rebound", "mpii").index_map == ((0, 15), (1, 5), (2, 9))


def test_take_sizes_by_the_set_the_mapping_was_built_for():
    register_joint_set(JointSet("kept-size", ("left_wrist", "left_ankle", "head_top")))
    m = mapping("coco", "kept-size")
    register_joint_set(JointSet("kept-size", ("left_wrist",)))
    values = np.arange(17.0)
    assert m.take(values).tolist() == reference_take(m, values, 3).tolist() == [9, 15, 0]


def test_head_bottom_aliases_upper_neck():
    m = dict(mapping("posetrack", "mpii").index_map)
    pt = builtin_joint_set("posetrack")
    mp = builtin_joint_set("mpii")
    assert mp.joints[m[pt.joints.index("head_bottom")]] == "upper_neck"


def test_joint_set_json_round_trip():
    js = builtin_joint_set("posetrack")
    again = JointSet.from_json(js.to_json())
    assert again == js


@pytest.mark.parametrize("doc", [
    '{"name": "x", "joints": "ab"}',
    '{"name": "x", "joints": ["a", "b"], "flip_pairs": [["0", 1]]}',
    '{"name": "x", "joints": ["a", "b"], "flip_pairs": [[0, 1, 1]]}',
    '{"name": "x", "joints": ["a", "b"], "flips": [[0, 1]]}',
    '{"name": 5, "joints": ["a", "b"]}',
    '{"name": "ov", "joints": ["a", "b", "c"], "flip_pairs": [[0, 1], [0, 2]]}',
    '{"name": "ov", "joints": ["a", "b", "c"], "flip_pairs": [[0, 1], [2, 0]]}',
])
def test_joint_set_json_rejects_mistyped_description(doc):
    # each of these used to build a set from a misread value, or ignore a key,
    # or (overlapping flip pairs) one whose un-mirroring drops a channel
    with pytest.raises(PoseError):
        JointSet.from_json(doc)


def test_joint_set_json_rejects_a_1000_deep_description():
    # the decoder's RecursionError used to escape as a traceback
    with pytest.raises(PoseError, match="^bad joint-set description: maximum recursion depth"):
        JointSet.from_json("[" * 1000 + "]" * 1000)


def test_register_custom_set():
    custom = JointSet("hands3", ("left_hand", "right_hand", "nose"),
                      flip_pairs=((0, 1),))
    register_joint_set(custom)
    assert get_joint_set("hands3") is custom
    with pytest.raises(PoseError):
        register_joint_set(JointSet("coco", ("a", "b")))


def test_joint_set_validation():
    with pytest.raises(PoseError):
        JointSet("bad", ("a", "a"))
    with pytest.raises(PoseError, match="aliases"):
        JointSet("bad", ("head_bottom", "upper_neck"))   # one joint, two names
    with pytest.raises(PoseError):
        JointSet("bad", ("a", "b"), flip_pairs=((0, 0),))
    with pytest.raises(PoseError):
        JointSet("bad", ("a", "b"), flip_pairs=((0, 1), (1, 0)))


def _instance(joint_set, seed=0):
    js = builtin_joint_set(joint_set)
    rng = np.random.default_rng(seed)
    return PersonInstance(
        box=[0, 0, 10, 20],
        box_score=0.9,
        coords=rng.uniform(0, 10, (js.count, 2)),
        scores=rng.uniform(0.1, 1.0, js.count),
        annotated=np.ones(js.count, dtype=bool),
        joint_set=joint_set,
    )


def _take(p, m):
    """The per-joint arrays of instance p re-indexed by mapping m."""
    return m.take(p.coords), m.take(p.scores), m.take(p.annotated)


def test_project_round_trip_on_coco_joints():
    p = _instance("coco")
    up, back = mapping("coco", "merged"), mapping("merged", "coco")
    for before, after in zip((p.coords, p.scores, p.annotated), _take(p, up)):
        assert np.array_equal(back.take(after), before)
        assert back.take(after).dtype == before.dtype


def test_project_mpii_to_merged_leaves_face_unannotated():
    p = _instance("mpii")
    coords, scores, annotated = _take(p, mapping("mpii", "merged"))
    merged = builtin_joint_set("merged")
    face = {"nose", "left_eye", "right_eye", "left_ear", "right_ear"}
    for i, name in enumerate(merged.joints):
        assert annotated[i] == (name not in face)
        if name in face:
            assert not coords[i].any() and scores[i] == 0.0


def test_project_preserves_coordinates_and_scores():
    p = _instance("posetrack")
    m = mapping("posetrack", "merged")
    coords, scores, _ = _take(p, m)
    for i, j in m.index_map:
        assert np.array_equal(coords[j], p.coords[i])
        assert scores[j] == p.scores[i]


def test_project_all_unannotated_stays_unannotated():
    p = _instance("coco")
    p.annotated[:] = False
    _, _, annotated = _take(p, mapping("coco", "merged"))
    assert not annotated.any()


def test_records_hold_their_joint_set_and_a_name_is_resolved_when_made():
    coco = builtin_joint_set("coco")
    assert get_joint_set(coco) is coco
    m = mapping("coco", "mpii")
    assert m.from_set is coco and m.to_set is builtin_joint_set("mpii")
    assert not hasattr(m, "to_count")
    p = _instance("coco")
    stack = InstanceStack.of("coco", [p])
    assert p.joint_set is coco and stack.joint_set is coco
    assert stack.replace(score=[0.5]).instances()[0].joint_set is coco
    assert dataclasses.replace(_instance("posetrack"), joint_set="coco", coords=p.coords,
                               scores=p.scores, annotated=p.annotated).joint_set is coco


def test_joint_set_equality_is_by_value_with_an_identity_shortcut():
    coco = builtin_joint_set("coco")
    copy = JointSet(coco.name, coco.joints, coco.flip_pairs)
    assert copy is not coco and copy == coco and not copy != coco
    assert hash(copy) == hash(coco)
    assert coco == coco and not coco != coco
    assert JointSet("coco", coco.joints) != coco   # flip pairs differ
    assert coco != "coco" and coco.__eq__("coco") is NotImplemented
    # a re-registered custom name is a different set from the one held before
    held = JointSet("re-equal", ("left_wrist", "left_ankle"))
    register_joint_set(held)
    assert get_joint_set("re-equal") is held
    register_joint_set(JointSet("re-equal", ("left_wrist",)))
    assert get_joint_set("re-equal") != held and not get_joint_set("re-equal") == held
    register_joint_set(JointSet("re-equal", held.joints))
    assert get_joint_set("re-equal") is not held and get_joint_set("re-equal") == held


_HELD = JointSet("held", ("left_wrist", "right_wrist", "nose"), ((0, 1),))


@pytest.mark.parametrize("joints", [
    ("nose", "left_wrist", "right_wrist", "left_ankle", "right_ankle"),
    ("nose",)], ids=["larger", "smaller"])
def test_held_records_keep_their_set_across_a_re_registration(tmp_path, joints):
    # unmirror used to look the set up by name: a larger set raised
    # IndexError, a smaller one made a one-channel map from three channels
    from posepipe.heatmaps import Heatmap, decode, flip_merge, unmirror
    from posepipe.poseio import PoseSequence, load_pose_file, save_pose_file
    from posepipe.suppression import OksConstants, oks
    from oracles import reference_flip_merge, reference_unmirror

    register_joint_set(_HELD)
    values = np.zeros((3, 5, 5), dtype=np.float32)
    values[0, 1, 3] = values[1, 2, 1] = values[2, 3, 2] = 1.0
    h = Heatmap(values, "held", (10.0, 20.0, 5.0, 5.0))
    p = PersonInstance(box=[0, 0, 10, 10], box_score=0.9, coords=[[1, 2], [3, 4], [5, 6]],
                       scores=[0.5, 0.6, 0.7], annotated=[True, True, False],
                       joint_set="held")
    consts = OksConstants.for_joint_set("held")
    seq = PoseSequence("held", [(0, InstanceStack.of("held", [p]))])
    register_joint_set(JointSet("held", joints))
    try:
        assert get_joint_set("held").joints == joints
        flipped = unmirror(h)
        assert flipped.values.tobytes() == reference_unmirror(h).values.tobytes()
        for record in (h, flipped, p, consts, seq):
            assert record.joint_set is _HELD
        merged = flip_merge(h, flipped, np.arange(3))
        assert merged.values.tobytes() == reference_flip_merge(h, flipped).values.tobytes()
        decoded = decode(h, 0.0)
        assert decoded.joint_set is _HELD and decoded.annotated.tolist() == [True] * 3
        assert decoded.coords.tolist() == [[13.5, 21.5], [11.5, 22.5], [12.5, 23.5]]
        held = InstanceStack.of(p.joint_set, [p])
        assert oks(held, held, consts).tolist() == [[1.0]]
        save_pose_file(seq, tmp_path / "held.json")
        register_joint_set(_HELD)
        again = load_pose_file(tmp_path / "held.json")
        assert again.joint_set is _HELD
        assert again.frames[0][1].coords[0].tolist() == p.coords.tolist()
    finally:
        register_joint_set(_HELD)
