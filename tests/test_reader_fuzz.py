"""Fuzz the file readers: pose, box and manifest documents built from their
record signatures (or from any JSON values), and byte mutations of a valid
heatmap and checkpoint. The CLI answers each file with exit 0, or with the
one-line JSON error and exit 1 or 2: any other exception escapes ``main``
and fails the test."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings, strategies as st

from posepipe import PoseError, builtin_joint_set
from posepipe.cli import main
from posepipe.errors import parameters
from posepipe.heatmaps import render_target, save_heatmap
from posepipe.pipeline import manifest_instance
from posepipe.poseio import box_entry, load_pose_file, pose_instance
from posepipe.toynet import NetConfig, init_network, load_network, save_network

from oracles import reference_load_pose_file
from test_config_fuzz import _ANY, _INTS, _NAMES, _record, _typed

_K = builtin_joint_set("coco").count


def _mostly(common, rare):
    """Values of common three times in four, else of rare."""
    return st.sampled_from([common, common, common, rare]).flatmap(lambda s: s)


def _full_record(fn, exclude=(), **values):
    """JSON objects with every key fn requires and some of the others, each
    with a value from values, or else of its annotated type; now and then the
    looser documents of ``_record`` instead."""
    typed = {k: (values.get(k, _typed(ann)), p.default is p.empty)
             for k, (ann, p) in parameters(fn).items() if k not in exclude}
    return _mostly(st.fixed_dictionaries({k: v for k, (v, need) in typed.items() if need},
                                         optional={k: v for k, (v, need) in typed.items()
                                                   if not need}),
                   _record(fn, exclude, **values))


def _frames(items: str, entry):
    """Lists of frame records, numbered in order and holding lists of entry,
    or lists that may hold any JSON values and any frame indices."""
    frame = st.fixed_dictionaries({"frame_index": _INTS},
                                  optional={items: st.lists(entry, max_size=3)})
    return _mostly(st.lists(frame, max_size=3).map(
        lambda frames: [dict(f, frame_index=i) for i, f in enumerate(frames)]),
        st.lists(frame | _ANY, max_size=2))


def _document(fixed: dict, frames):
    return _mostly(st.fixed_dictionaries(fixed, optional={"frames": frames}), _ANY)


# values in the range the readers accept, or else of the annotated type
_UNIT = st.floats(0, 1) | st.sampled_from([0, 1])
_SIZE = st.floats(0.5, 50)
_BOX = st.tuples(_UNIT, _UNIT, _SIZE, _SIZE).map(list)
_IN_RANGE = {"box": _mostly(_BOX, _typed(tuple[float, float, float, float])),
             "box_score": _mostly(_UNIT, _typed(float))}
_POSE_DOCS = _document({"joint_set": st.just("coco")}, _frames("instances", _full_record(
    pose_instance, ("joint_set",), **_IN_RANGE,
    keypoints=_mostly(st.lists(_UNIT, min_size=3 * _K, max_size=3 * _K),
                      _typed(tuple[float, ...])),
    annotated=_mostly(st.lists(_INTS, min_size=_K, max_size=_K), _typed(tuple[int, ...])),
    score=_mostly(_UNIT, _typed(float)), head_size=_mostly(_SIZE, _typed(float)),
    head_box=_mostly(_BOX, _typed(tuple[float, float, float, float])))))
_BOX_DOCS = _document({}, _frames("boxes", _full_record(
    box_entry, box=_IN_RANGE["box"], score=_IN_RANGE["box_score"])))
_MANIFESTS = _document({}, _frames("instances", _full_record(
    manifest_instance, ("base",), **_IN_RANGE,
    heatmaps=st.dictionaries(_NAMES, _NAMES, max_size=2))))

_FUZZ = settings(derandomize=True, max_examples=150, deadline=None)


def _main_answers(argv, content: bytes):
    """Write content to {path}, run main on argv with {path} and {out} filled
    in, and check its answer."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "input"), os.path.join(tmp, "out.json")
        with open(path, "wb") as f:
            f.write(content)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([a.format(path=path, out=out) for a in argv])
        if rc:
            doc = json.loads(err.getvalue().strip().splitlines()[-1])
            assert (rc, doc["kind"]) in ((1, "io"), (2, "contract")) and doc["error"]
            assert not os.path.exists(out)
        else:
            assert os.path.exists(out)


def _json(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


@_FUZZ
@given(_POSE_DOCS)
@example({"joint_set": "coco", "frames": [{"frame_index": 0, "instances": [
    {"box": [0, 0, 1e308, 1e308], "keypoints": [1e308, -1e308, 1] * _K}]}]})
def test_nms_answers_any_pose_document(doc):
    _main_answers(["nms", "{path}", "--out", "{out}"], _json(doc))


def _read(load, path):
    """load(path), or the PoseError it raises."""
    try:
        return load(path)
    except PoseError as exc:
        return exc


def _same_field(a, b) -> bool:
    """a and b are the same type and, for arrays, the same dtype, shape and bytes."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    return a == b or a != a and b != b   # NaN is its own value here


_VALID = {"box": [0, 0, 5, 5], "keypoints": [1.0, 2.0, 0.5] * _K}


@_FUZZ
@given(_POSE_DOCS)
@example({"joint_set": "coco", "frames": [{"frame_index": 0, "instances": [
    dict(_VALID, box_score=1.5), _VALID, dict(_VALID, track_id="3")]}]})
@example({"joint_set": "coco", "frames": [
    {"frame_index": 0, "instances": [_VALID, dict(_VALID, box_score=1)]},
    {"frame_index": 4, "instances": [_VALID, dict(_VALID, keypoints=[0.0, 0.0, 2.0] * _K)]}]})
@example({"joint_set": "coco", "frames": [
    {"frame_index": 0, "instances": [dict(_VALID, annotated=[1] * (_K - 1))]},
    {"frame_index": 1, "instances": [dict(_VALID, head_box=[0, 0, 1, -1]), {"box": 1}]}]})
@example({"joint_set": "coco", "frames": [
    {"frame_index": 0, "instances": [dict(_VALID, head_box=[0, 0, 3, 4], score=0, track_id=2)]},
    {"frame_index": 3, "instances": [dict(_VALID, box_score=1, person_id=7, head_size=2,
                                          annotated=[0, 2] * (_K // 2) + [10**30])]}]})
@example({"joint_set": "coco", "frames": [
    {"frame_index": 0, "instances": [_VALID]}, {"frame_index": 0, "instances": [_VALID]}]})
def test_stacked_pose_reader_matches_the_record_by_record_reader(doc):
    """The same instances, field by field in type, dtype, shape and bytes,
    or the same PoseError (message, file and frame)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poses.json")
        with open(path, "wb") as f:
            f.write(_json(doc))
        got, want = _read(load_pose_file, path), _read(reference_load_pose_file, path)
    assert type(got) is type(want)
    if isinstance(want, PoseError):
        assert (got.message, got.path, got.frame) == (want.message, want.path, want.frame)
        return
    assert got.joint_set == want.joint_set
    assert [f for f, _ in got.frames] == [f for f, _ in want.frames]
    for (_, a), (_, b) in zip(got.frames, want.frames):
        assert len(a) == len(b)
        for p, q in zip(a, b):
            assert list(vars(p)) == list(vars(q))
            assert all(_same_field(vars(p)[k], v) for k, v in vars(q).items()), (vars(p), vars(q))


@_FUZZ
@given(_BOX_DOCS)
def test_merge_boxes_answers_any_box_document(doc):
    _main_answers(["merge-boxes", "{path}", "--out", "{out}"], _json(doc))


@_FUZZ
@given(_MANIFESTS)
@example({"frames": [{"frame_index": 0, "instances": [
    {"box": [0, 0, 1, 1], "heatmaps": {"coco": "a\x00b"}}]}]})
def test_run_answers_any_manifest(doc):
    _main_answers(["run", "--manifest", "{path}", "--out", "{out}"], _json(doc))


def _mutations(blob: bytes, hot: int):
    """blob with up to four bytes replaced, at positions below hot more often
    than not, then perhaps cut short."""
    at = st.integers(0, hot - 1) | st.integers(0, len(blob) - 1)
    return st.tuples(st.lists(st.tuples(at, st.integers(0, 255)), max_size=4),
                     st.integers(0, len(blob))).map(lambda m: _mutate(blob, *m))


def _mutate(blob: bytes, changes, keep: int) -> bytes:
    out = bytearray(blob)
    for i, b in changes:
        out[i] = b
    return bytes(out[:keep] if keep < len(blob) // 2 else out)


def _heatmap_bytes() -> bytes:
    hm, _ = render_target([[5.0, 7.0]] * _K, 2.0, (8, 6), joint_set="coco")
    with tempfile.TemporaryDirectory() as tmp:
        save_heatmap(hm, os.path.join(tmp, "h.pkhm"))
        with open(os.path.join(tmp, "h.pkhm"), "rb") as f:
            return f.read()


def _checkpoint_bytes() -> bytes:
    config = NetConfig(hidden=2, height=8, width=6, domains=("coco",))
    with tempfile.TemporaryDirectory() as tmp:
        save_network(init_network(config), os.path.join(tmp, "net.pknp"))
        with open(os.path.join(tmp, "net.pknp"), "rb") as f:
            return f.read()


_HEATMAP = _heatmap_bytes()
_CHECKPOINT = _checkpoint_bytes()
# the header and the joint-set name, or the header and the JSON manifest
_HEATMAP_HEAD = len(_HEATMAP) - 4 * _K * 8 * 6
_CHECKPOINT_HEAD = 12 + int.from_bytes(_CHECKPOINT[8:12], "little")


@_FUZZ
@given(_mutations(_HEATMAP, _HEATMAP_HEAD))
def test_decode_answers_any_heatmap_bytes(blob):
    _main_answers(["decode", "--heatmap", "{path}", "--out", "{out}"], blob)


@_FUZZ
@given(_mutations(_CHECKPOINT, _CHECKPOINT_HEAD))
def test_load_network_raises_only_pose_error_on_any_checkpoint_bytes(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net.pknp")
        with open(path, "wb") as f:
            f.write(blob)
        try:
            load_network(path)
        except PoseError:
            pass
