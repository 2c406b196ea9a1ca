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
             "keypoints": [x, y, score, ...],     # 3K floats
             "annotated": [1, 0, ...]}            # K bits
         ]}
      ]
    }

Frame indices must be strictly increasing and keypoints length must be 3K of
the declared joint set. head_size may be given directly or derived from
head_box as diagonal x 0.6. Emission is canonical: fixed key order, repr
floats, two-space indentation, so emit(parse(f)) == f byte-wise for files in
canonical form.

Box documents (detector outputs, for box merging) are
{"frames": [{"frame_index": 0, "boxes": [{"box": [...], "score": s}]}]}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoseError
from .instances import PersonInstance
from .skeletons import get_joint_set

DEFAULT_HEAD_SIZE_FACTOR = 0.6


@dataclass
class PoseSequence:
    joint_set: str
    frames: list   # [(frame_index, [PersonInstance, ...]), ...]

    def __post_init__(self):
        get_joint_set(self.joint_set)
        last = None
        for frame_index, _ in self.frames:
            if last is not None and frame_index <= last:
                raise PoseError(
                    f"frame indices must be strictly increasing, got {frame_index} after {last}"
                )
            last = frame_index


def _require(cond, message, path, frame=None):
    if not cond:
        raise PoseError(message, path=path, frame=frame)


def read_json_object(path, what: str) -> dict:
    """The JSON object stored at path. Text that is not JSON, or a document
    whose top level is not an object, is a PoseError naming ``what``."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
            raise PoseError(f"{what} is not valid JSON: {exc}", path=path) from exc
    _require(isinstance(doc, dict), f"{what} must be a JSON object", path)
    return doc


def read_frames(doc: dict, items: str, what: str, path):
    """Yield (frame_index, entries) for each object in doc["frames"].

    Frames need strictly increasing integer frame indices; each frame's
    ``items`` key (default empty) must hold a list, returned as entries.
    """
    frames = doc.get("frames", [])
    _require(isinstance(frames, list), f"{what} frames must be a list", path)
    last = None
    for frame in frames:
        _require(isinstance(frame, dict), f"{what} frame must be an object", path)
        _require("frame_index" in frame, f"{what} frame missing frame_index", path)
        fidx = frame["frame_index"]
        _require(isinstance(fidx, int), "frame_index must be an integer", path)
        _require(last is None or fidx > last,
                 f"frame indices must be strictly increasing ({fidx} after {last})",
                 path, fidx)
        last = fidx
        entries = frame.get(items, [])
        _require(isinstance(entries, list), f"{what} {items} must be a list", path, fidx)
        yield fidx, entries


def parse_pose_document(doc: dict, path=None,
                        head_factor: float = DEFAULT_HEAD_SIZE_FACTOR) -> PoseSequence:
    _require(isinstance(doc, dict), "pose document must be a JSON object", path)
    _require("joint_set" in doc, "pose document missing joint_set", path)
    js = get_joint_set(doc["joint_set"])
    k = js.count
    frames = []
    for fidx, inst_docs in read_frames(doc, "instances", "pose document", path):
        instances = []
        for n, inst in enumerate(inst_docs):
            try:
                kps = inst["keypoints"]
                _require(len(kps) == 3 * k,
                         f"instance {n}: keypoints length {len(kps)} != 3*{k}",
                         path, fidx)
                arr = np.asarray(kps, dtype=np.float64).reshape(k, 3)
                annotated = inst.get("annotated")
                if annotated is None:
                    annotated = arr[:, 2] > 0
                else:
                    _require(len(annotated) == k,
                             f"instance {n}: annotated length != {k}", path, fidx)
                    annotated = np.asarray(annotated, dtype=bool)
                head_size = inst.get("head_size")
                if head_size is None and "head_box" in inst:
                    hb = inst["head_box"]
                    head_size = head_factor * math.hypot(float(hb[2]), float(hb[3]))
                instances.append(PersonInstance(
                    box=np.asarray(inst["box"], dtype=np.float64),
                    box_score=float(inst.get("box_score", 1.0)),
                    coords=arr[:, :2],
                    scores=arr[:, 2],
                    annotated=annotated,
                    joint_set=js.name,
                    area=inst.get("area"),
                    score=inst.get("score"),
                    track_id=inst.get("track_id"),
                    person_id=inst.get("person_id"),
                    head_size=head_size,
                ))
            except PoseError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise PoseError(f"instance {n}: {exc}", path=path, frame=fidx) from exc
        frames.append((fidx, instances))
    return PoseSequence(js.name, frames)


def load_pose_file(path, head_factor: float = DEFAULT_HEAD_SIZE_FACTOR) -> PoseSequence:
    return parse_pose_document(read_json_object(path, "pose document"), path=path,
                               head_factor=head_factor)


def pose_document(seq: PoseSequence) -> dict:
    frames = []
    for frame_index, instances in seq.frames:
        out = []
        for p in instances:
            kps = []
            for i in range(p.coords.shape[0]):
                kps.extend([float(p.coords[i, 0]), float(p.coords[i, 1]),
                            float(p.scores[i])])
            entry = {
                "box": [float(v) for v in p.box],
                "box_score": float(p.box_score),
                "score": float(p.score),
            }
            if p.track_id is not None:
                entry["track_id"] = int(p.track_id)
            if p.person_id is not None:
                entry["person_id"] = int(p.person_id)
            if p.head_size is not None:
                entry["head_size"] = float(p.head_size)
            entry["keypoints"] = kps
            entry["annotated"] = [int(b) for b in p.annotated]
            out.append(entry)
        frames.append({"frame_index": int(frame_index), "instances": out})
    return {"joint_set": seq.joint_set, "frames": frames}


def emit_pose_file(seq: PoseSequence) -> str:
    return json.dumps(pose_document(seq), indent=2) + "\n"


def save_pose_file(seq: PoseSequence, path) -> None:
    with open(path, "w") as f:
        f.write(emit_pose_file(seq))


@dataclass
class BoxSequence:
    frames: list   # [(frame_index, [(box, score), ...])]


def load_box_file(path) -> BoxSequence:
    doc = read_json_object(path, "box document")
    frames = []
    for fidx, box_docs in read_frames(doc, "boxes", "box document", path):
        boxes = []
        for n, b in enumerate(box_docs):
            try:
                box = [float(v) for v in b["box"]]
                score = float(b.get("score", 1.0))
            except (KeyError, TypeError, ValueError) as exc:
                raise PoseError(f"box {n}: {exc}", path=path, frame=fidx) from exc
            _require(len(box) == 4 and box[2] > 0 and box[3] > 0,
                     "boxes need positive width/height", path, fidx)
            boxes.append((box, score))
        frames.append((fidx, boxes))
    return BoxSequence(frames)


def emit_box_file(seq: BoxSequence) -> str:
    doc = {"frames": [
        {"frame_index": int(fidx),
         "boxes": [{"box": [float(v) for v in box], "score": float(score)}
                   for box, score in boxes]}
        for fidx, boxes in seq.frames
    ]}
    return json.dumps(doc, indent=2) + "\n"


def save_box_file(seq: BoxSequence, path) -> None:
    with open(path, "w") as f:
        f.write(emit_box_file(seq))
