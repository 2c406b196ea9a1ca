import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from posepipe import PoseError, builtin_joint_set
from posepipe.instances import PersonInstance
from posepipe.poseio import (
    BoxSequence,
    PoseSequence,
    box_document,
    document_text,
    load_box_file,
    load_pose_file,
    pose_document,
    save_box_file,
    save_pose_file,
)

JS = builtin_joint_set("posetrack")


def make_instance(rng, track_id=None, person_id=None, head_size=None):
    return PersonInstance(
        box=rng.uniform(0, 50, 4) + [0, 0, 5, 5],
        box_score=float(rng.uniform(0.2, 1.0)),
        coords=rng.uniform(0, 100, (JS.count, 2)),
        scores=rng.uniform(0, 1, JS.count),
        annotated=rng.random(JS.count) > 0.2,
        joint_set="posetrack",
        track_id=track_id,
        person_id=person_id,
        head_size=head_size,
    )


def make_sequence(seed=0):
    rng = np.random.default_rng(seed)
    frames = []
    for t in range(3):
        frames.append((t * 2, [make_instance(rng, track_id=t, person_id=t,
                                             head_size=10.0 + t)
                               for _ in range(2)]))
    return PoseSequence("posetrack", frames)


def test_round_trip_preserves_everything(tmp_path):
    seq = make_sequence()
    path = tmp_path / "poses.json"
    save_pose_file(seq, path)
    again = load_pose_file(path)
    assert again.joint_set == seq.joint_set
    for (fa, insts_a), (fb, insts_b) in zip(seq.frames, again.frames):
        assert fa == fb
        for a, b in zip(insts_a, insts_b):
            assert np.array_equal(a.box, b.box)
            assert np.array_equal(a.coords, b.coords)
            assert np.array_equal(a.scores, b.scores)
            assert np.array_equal(a.annotated, b.annotated)
            assert a.score == b.score
            assert a.track_id == b.track_id
            assert a.person_id == b.person_id
            assert a.head_size == b.head_size


def test_canonical_emission_is_stable(tmp_path):
    seq = make_sequence()
    text = document_text(pose_document(seq))
    path = tmp_path / "poses.json"
    path.write_text(text)
    assert document_text(pose_document(load_pose_file(path))) == text


def test_strictly_increasing_frames_enforced():
    rng = np.random.default_rng(1)
    with pytest.raises(PoseError):
        PoseSequence("posetrack", [(0, []), (0, [])])
    with pytest.raises(PoseError):
        PoseSequence("posetrack", [(3, []), (1, [])])
    doc = {"joint_set": "posetrack",
           "frames": [{"frame_index": 2, "instances": []},
                      {"frame_index": 1, "instances": []}]}
    from posepipe.poseio import parse_pose_document
    with pytest.raises(PoseError):
        parse_pose_document(doc)


def test_unknown_joint_set_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"joint_set": "freeform21", "frames": []}))
    with pytest.raises(PoseError):
        load_pose_file(path)


def test_wrong_keypoint_length_rejected(tmp_path):
    doc = {"joint_set": "posetrack",
           "frames": [{"frame_index": 0, "instances": [
               {"box": [0, 0, 5, 5], "box_score": 1.0,
                "keypoints": [0.0] * (3 * JS.count - 3)}]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PoseError) as err:
        load_pose_file(path)
    assert "frame=0" in str(err.value)


def test_head_box_converts_to_head_size(tmp_path):
    kps = []
    for _ in range(JS.count):
        kps.extend([1.0, 2.0, 0.5])
    doc = {"joint_set": "posetrack",
           "frames": [{"frame_index": 0, "instances": [
               {"box": [0, 0, 5, 5], "box_score": 1.0, "person_id": 0,
                "head_box": [0, 0, 3.0, 4.0], "keypoints": kps}]}]}
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc))
    seq = load_pose_file(path)
    assert seq.frames[0][1][0].head_size == pytest.approx(0.6 * 5.0)


def test_not_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(PoseError):
        load_pose_file(path)


def test_missing_annotated_defaults_to_positive_scores(tmp_path):
    kps = []
    for i in range(JS.count):
        kps.extend([1.0, 2.0, 0.5 if i % 2 == 0 else 0.0])
    doc = {"joint_set": "posetrack",
           "frames": [{"frame_index": 0, "instances": [
               {"box": [0, 0, 5, 5], "box_score": 1.0, "keypoints": kps}]}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    inst = load_pose_file(path).frames[0][1][0]
    assert inst.annotated.sum() == (JS.count + 1) // 2


def test_box_file_round_trip(tmp_path):
    seq = BoxSequence([(0, [([0.0, 1.0, 5.0, 6.0], 0.9)]),
                       (2, [([3.0, 3.0, 4.0, 4.0], 0.8),
                            ([9.0, 9.0, 2.0, 2.0], 0.7)])])
    path = tmp_path / "boxes.json"
    save_box_file(seq, path)
    again = load_box_file(path)
    assert again.frames == seq.frames
    assert box_document(again) == box_document(seq)


def test_box_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"frames": [
        {"frame_index": 0, "boxes": [{"box": [0, 0, -1, 5], "score": 1.0}]}]}))
    with pytest.raises(PoseError):
        load_box_file(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=12)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_JSON)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": []}})
@example([[], {}, [[[]]]])
@example({"ключ": 1, "\u00e9\t\"": [True, False, None], "🙂": "é"})
@example([0, -1, 10**30, True, False, None, -0.0, 0.0, 1e16, 1e-7, float("nan"),
          float("inf"), float("-inf"), 2.5])
@example({"x": -0.0, "y": 1e16, "z": float("nan"), "n": None, "t": True, "i": 7})
@example([1, [2, [3, [4, {"k": [5, "s"]}]]], "end"])
@example("plain")
@example(1e16)
def test_document_text_is_json_dumps_with_indent_two(value):
    assert document_text(value) == json.dumps(value, indent=2) + "\n"


def test_a_sequence_rejects_an_instance_of_another_set(tmp_path):
    # such a sequence used to be written, and its file then failed to load
    # (keypoints length 48 != 3*17)
    mpii = builtin_joint_set("mpii")
    p = PersonInstance(box=[0, 0, 10, 10], box_score=0.9, coords=np.zeros((mpii.count, 2)),
                       scores=np.ones(mpii.count), annotated=np.ones(mpii.count, dtype=bool),
                       joint_set="mpii")
    with pytest.raises(PoseError) as err:
        PoseSequence("coco", [(0, []), (3, [p])])
    assert str(err.value) == ("instance joint set 'mpii' does not match the sequence's "
                              "'coco' (frame=3)")
    assert PoseSequence(mpii, [(3, [p])]).joint_set is mpii
