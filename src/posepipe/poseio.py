"""Pose and box interchange files.

Pose documents are JSON shaped like per-sequence keypoint annotations:

    {
      "joint_set": "posetrack",
      "frames": [
        {"frame_index": 0,
         "instances": [
            {"box": [x, y, w, h], "box_score": 0.9, "score": 0.63,
             "track_id": 3,                       # optional
             "person_id": 1, "head_size": 12.5,   # ground-truth files
             "head_box": [x, y, w, h],            # alternative to head_size
             "keypoints": [x, y, score, ...],     # 3K numbers
             "annotated": [1, 0, ...]}            # K integers, 0 = not annotated
         ]}
      ]
    }

Box documents (detector outputs, for box merging) are
{"frames": [{"frame_index": 0, "boxes": [{"box": [...], "score": s}]}]}.

Each JSON object in these files is a record described once, by the signature
of the function that builds its value (``document``, ``instance_frame``,
``box_frame``, ``pose_instance``, ``box_entry``, and the manifest's
``pipeline.manifest_instance``), which ``errors.checked`` reads: an unknown
key, a missing key or a value of the wrong type is a PoseError. Ranges are
checked where the values are used. Frame indices strictly increase; head_size
may be derived from head_box as diagonal x 0.6. Emission is canonical (fixed
key order, repr floats, two-space indentation), so emit(parse(f)) == f
byte-wise for files in canonical form. ``write_document`` is the one writer
of that text form, for every JSON file the package writes: pose and box
files, configs, scene manifests and evaluation reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoseError, checked
from .instances import PersonInstance, check_box, check_score
from .skeletons import JointSet, get_joint_set

HEAD_SIZE_FACTOR = 0.6


def check_frame_order(indices) -> None:
    """Raise unless the frame indices strictly increase."""
    for last, fidx in zip(indices, indices[1:]):
        if fidx <= last:
            raise PoseError(f"frame indices must be strictly increasing, "
                            f"got {fidx} after {last}", frame=fidx)


@dataclass
class PoseSequence:
    joint_set: str
    frames: list   # [(frame_index, [PersonInstance, ...]), ...]

    def __post_init__(self):
        get_joint_set(self.joint_set)
        check_frame_order([fidx for fidx, _ in self.frames])


def read_document(path, what: str, parse):
    """parse(doc) for the JSON value doc at path, which parse checks with
    ``errors.checked``; every PoseError raised names the file."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
            raise PoseError(f"{what} is not valid JSON: {exc}", path=path) from exc
    try:
        return parse(doc)
    except PoseError as exc:
        raise PoseError(exc.message, path=path, frame=exc.frame) from None


def document_text(doc) -> str:
    """The canonical text of a JSON value: two-space indentation, then a newline."""
    return json.dumps(doc, indent=2) + "\n"


def write_document(path, doc) -> None:
    """Write doc at path as :func:`document_text`; the counterpart of
    :func:`read_document`."""
    with open(path, "w") as f:
        f.write(document_text(doc))


def read_frames(frames: list, frame, record, **context) -> list:
    """[(frame_index, [record(**entry, **context), ...])] for frames, a list of
    frame records that the signature of ``frame`` describes and that frame
    turns into (frame_index, entries); each entry is checked against record's
    signature less the context keywords. A PoseError names its frame, and an
    entry's error names the entry by record's name and its index."""
    exclude, name = tuple(context), record.__name__.replace("_", " ")
    out = []
    for doc in frames:
        fidx = None
        try:
            fidx, entries = frame(**checked(frame, doc, "frame"))
            items = []
            for n, entry in enumerate(entries):
                where = f"{name} {n}"
                args = checked(record, entry, where, exclude)
                try:
                    items.append(record(**args, **context))
                except PoseError as exc:
                    raise PoseError(f"{where}: {exc.message}") from None
            out.append((fidx, items))
        except PoseError as exc:
            raise PoseError(exc.message, frame=fidx) from None
    return out


def document(joint_set: str = None, frames: list = None) -> list:
    """The top level of a pose document (with a joint_set), a box document or
    a manifest: its frame records."""
    return frames or []


def instance_frame(frame_index: int, instances: list = None) -> tuple:
    """A pose-document or manifest frame: (frame_index, instance records)."""
    return frame_index, instances or []


def box_frame(frame_index: int, boxes: list = None) -> tuple:
    """A box-document frame: (frame_index, box records)."""
    return frame_index, boxes or []


def pose_instance(joint_set: JointSet, box: tuple[float, float, float, float],
                  keypoints: tuple[float, ...], annotated: tuple[int, ...] = None,
                  box_score: float = 1.0, score: float = None, track_id: int = None,
                  person_id: int = None, head_size: float = None,
                  head_box: tuple[float, float, float, float] = None) -> PersonInstance:
    """The instance a pose-document record describes, on joint_set."""
    k = joint_set.count
    if len(keypoints) != 3 * k:
        raise PoseError(f"keypoints length {len(keypoints)} != 3*{k}")
    kps = np.array(keypoints, dtype=np.float64).reshape(k, 3)
    if annotated is None:
        annotated = kps[:, 2] > 0
    if head_size is None and head_box is not None:
        head_size = HEAD_SIZE_FACTOR * math.hypot(head_box[2], head_box[3])
    return PersonInstance(box=box, box_score=box_score, coords=kps[:, :2], scores=kps[:, 2],
                          annotated=annotated, joint_set=joint_set.name, score=score,
                          track_id=track_id, person_id=person_id, head_size=head_size)


def parse_pose_document(doc: dict) -> PoseSequence:
    frames = document(**checked(document, doc, "pose document", required=("joint_set",)))
    js = get_joint_set(doc["joint_set"])
    return PoseSequence(js.name, read_frames(frames, instance_frame, pose_instance,
                                             joint_set=js))


def load_pose_file(path) -> PoseSequence:
    return read_document(path, "pose document", parse_pose_document)


def _instance_record(p: PersonInstance) -> dict:
    entry = {"box": p.box.tolist(), "box_score": float(p.box_score), "score": float(p.score)}
    for key, value, kind in (("track_id", p.track_id, int), ("person_id", p.person_id, int),
                             ("head_size", p.head_size, float)):
        if value is not None:
            entry[key] = kind(value)
    entry["keypoints"] = np.column_stack([p.coords, p.scores]).ravel().tolist()
    entry["annotated"] = p.annotated.astype(int).tolist()
    return entry


def pose_document(seq: PoseSequence) -> dict:
    return {"joint_set": seq.joint_set, "frames": [
        {"frame_index": int(fidx), "instances": [_instance_record(p) for p in instances]}
        for fidx, instances in seq.frames]}


def save_pose_file(seq: PoseSequence, path) -> None:
    write_document(path, pose_document(seq))


@dataclass
class BoxSequence:
    frames: list   # [(frame_index, [(box, score), ...])]

    def __post_init__(self):
        check_frame_order([fidx for fidx, _ in self.frames])


def box_entry(box: tuple[float, float, float, float], score: float = 1.0) -> tuple:
    """The (box, score) a box-document record describes."""
    check_box(box)
    check_score(score)
    return box, score


def load_box_file(path) -> BoxSequence:
    return read_document(path, "box document", lambda doc: BoxSequence(read_frames(
        document(**checked(document, doc, "box document", ("joint_set",))), box_frame,
        box_entry)))


def box_document(seq: BoxSequence) -> dict:
    return {"frames": [
        {"frame_index": int(fidx),
         "boxes": [{"box": [float(v) for v in box], "score": float(score)}
                   for box, score in boxes]}
        for fidx, boxes in seq.frames
    ]}


def save_box_file(seq: BoxSequence, path) -> None:
    write_document(path, box_document(seq))
