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
checked where the values are used: a pose document's instances all at once,
by the instance rules run over their stack (``instances``), and a document
that fails is read again record by record to name its first error. Frame
indices strictly increase; head_size may be derived from a head_box (which
must pass ``check_box``) as diagonal x 0.6. Emission is canonical (fixed key
order, repr floats, two-space indentation), so emit(parse(f)) == f byte-wise
for files in canonical form. ``write_document`` is the one writer of that
text form, for every JSON file the package writes: pose and box files,
configs, scene manifests and evaluation reports; ``document_text`` writes
each list of numbers with the C encoder.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import PoseError, checked
from .instances import InstanceStack, PersonInstance, check_box, check_score
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
    joint_set: JointSet   # a registered name is resolved when made
    frames: list          # [(frame_index, [PersonInstance on joint_set, ...]), ...]

    def __post_init__(self):
        self.joint_set = js = get_joint_set(self.joint_set)
        check_frame_order([fidx for fidx, _ in self.frames])
        for fidx, instances in self.frames:
            for p in instances:
                if p.joint_set != js:
                    raise PoseError(f"instance joint set {p.joint_set.name!r} does not "
                                    f"match the sequence's {js.name!r}", frame=fidx)


def read_document(path, what: str, parse):
    """parse(doc) for the JSON value doc at path, which parse checks with
    ``errors.checked``; every PoseError raised names the file."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as exc:   # malformed, not UTF-8, too deep
            raise PoseError(f"{what} is not valid JSON: {exc}", path=path) from exc
    try:
        return parse(doc)
    except PoseError as exc:
        raise PoseError(exc.message, path=path, frame=exc.frame) from None


@functools.cache
def _encoder(depth: int):
    """The C encoder's encode, writing a list's items one per line at depth."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _text(doc, depth: int) -> str:
    """doc as ``json.dumps(doc, indent=2)`` writes it at depth. A list whose
    item types are all JSON scalars goes to the C encoder without a scan of
    its items; any other list is scanned for containers."""
    if not (doc and isinstance(doc, (dict, list, tuple))):
        return _encoder(0)(doc)
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if isinstance(doc, dict):
        items = [f"{encode_basestring_ascii(k)}: {_text(v, depth + 1)}" for k, v in doc.items()]
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    if not set(map(type, doc)) <= _SCALARS and \
            any(isinstance(v, (dict, list, tuple)) for v in doc):
        return "[" + inner + ("," + inner).join(_text(v, depth + 1) for v in doc) + outer + "]"
    return "[" + inner + _encoder(depth + 1)(doc)[1:-1] + outer + "]"


def document_text(doc) -> str:
    """The canonical text of a JSON value, ``json.dumps(doc, indent=2)`` and a
    newline: containers are joined here, and each list of scalars is written
    by one call of the C encoder, which ``json.dumps`` skips given an indent."""
    return _text(doc, 0) + "\n"


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
    """The instance a pose-document record describes, on joint_set: the
    ``_pose_instances`` of the one record its keywords make."""
    return _pose_instances(joint_set, [locals()])[0]


def _head_size(head_size=None, head_box=None):
    """head_size, or else 0.6 x the diagonal of head_box; a head_box must pass
    check_box."""
    if head_box is not None:
        check_box(head_box, "head_box")
        if head_size is None:
            return HEAD_SIZE_FACTOR * math.hypot(head_box[2], head_box[3])
    return head_size


def _pose_instances(js: JointSet, records: list) -> list:
    """The instances of pose-document records (pose_instance keywords) on js,
    each instance rule run once over the stack of all of them. A failing
    record raises its first error when it is the only one, and else some
    record's error."""
    if not records:
        return []
    k = js.count

    def column(key, default=None):
        return [r.get(key, default) for r in records]

    for v in column("keypoints"):
        if len(v) != 3 * k:
            raise PoseError(f"keypoints length {len(v)} != 3*{k}")
    kps = np.array(column("keypoints"), dtype=np.float64).reshape(-1, k, 3)
    annotated = [d if a is None else a for a, d in zip(column("annotated"), kps[:, :, 2] > 0)]
    if len(set(map(len, annotated))) > 1:
        raise PoseError("annotated lists of different lengths do not stack")
    box_score = column("box_score", 1.0)
    return InstanceStack(
        box=np.array(column("box"), dtype=np.float64).reshape(-1, 4), box_score=box_score,
        coords=kps[:, :, :2], scores=kps[:, :, 2], joint_set=js,
        annotated=np.array(annotated, dtype=bool),
        score=[float(b) if v is None else v for v, b in zip(column("score"), box_score)],
        track_id=column("track_id"), person_id=column("person_id"),
        head_size=list(map(_head_size, column("head_size"), column("head_box")))).instances()


def parse_pose_document(doc: dict) -> PoseSequence:
    """The sequence a pose document describes. Every record is checked
    (``errors.checked``), then the instance rules run once over the stack of
    all instances; only a document that fails is read again, record by
    record (``read_frames``), to raise its first error in file order."""
    frames = document(**checked(document, doc, "pose document", required=("joint_set",)))
    js = get_joint_set(doc["joint_set"])
    counts, records = [], []
    try:
        for frame in frames:
            fidx, entries = instance_frame(**checked(instance_frame, frame, "frame"))
            counts.append((fidx, len(entries)))
            records += [checked(pose_instance, e, "pose instance", ("joint_set",))
                        for e in entries]
        instances = iter(_pose_instances(js, records))
        read = [(fidx, list(itertools.islice(instances, n))) for fidx, n in counts]
    except PoseError:
        read = read_frames(frames, instance_frame, pose_instance, joint_set=js)
    return PoseSequence(js, read)


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
    return {"joint_set": seq.joint_set.name, "frames": [
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
