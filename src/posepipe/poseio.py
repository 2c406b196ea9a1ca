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
key, a missing key or a value of the wrong type is a PoseError. One walk,
``read_frames``, checks a document's records in file order and makes them
in one call, a pose document's instances as one stack sliced into frames,
so its first error in file order is raised and no record is read twice. Frame
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
from .instances import InstanceStack, PersonInstance, box_ok, check_box, check_score, raise_first
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
    frames: list          # [(frame_index, InstanceStack on joint_set), ...]

    def __post_init__(self):
        self.joint_set = js = get_joint_set(self.joint_set)
        check_frame_order([fidx for fidx, _ in self.frames])
        for fidx, stack in self.frames:
            if stack.joint_set != js:
                raise PoseError(f"instance joint set {stack.joint_set.name!r} does not "
                                f"match the sequence's {js.name!r}", frame=fidx)


def read_document(path, what: str, parse):
    """parse(doc) for the JSON value doc at path, which parse checks with
    ``errors.checked``; every PoseError raised names the file."""
    with open(path, encoding="utf-8") as f:
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
    with open(path, "w", encoding="utf-8") as f:
        f.write(document_text(doc))


def read_frames(frames: list, frame, record, build=None, **context) -> list:
    """[(frame_index, entries)] for frames, frame records that frame's
    signature describes and turns into (frame_index, entry records). The one
    walk: it checks, in file order up to the first fault, each frame and its
    entries (against record's signature less the context keywords), then
    makes the entries before the fault in one call, build(entry records,
    **context), a frame's entries its ``take`` of their rows, by default the
    list of record(**entry, **context). The first fault in file order is
    raised (a build's at its PoseError's row), naming its frame and index."""
    exclude, name = tuple(context), record.__name__.replace("_", " ")
    counts, records, fault = [], [], None
    for doc in frames:
        fidx = None
        try:
            fidx, entries = frame(**checked(frame, doc, "frame"))
            counts.append((fidx, len(entries)))
            for n, entry in enumerate(entries):
                records.append(checked(record, entry, f"{name} {n}", exclude))
        except PoseError as exc:
            fault = PoseError(exc.message, frame=fidx)
            break
    items = []
    try:
        if build:
            items = build(records, **context)
        else:
            for entry in records:
                items.append(record(**entry, **context))
    except PoseError as exc:
        row = exc.row if build else len(items)
        for fidx, n in counts:
            if row < n:
                raise PoseError(f"{name} {row}: {exc.message}", frame=fidx) from None
            row -= n
    if fault:
        raise fault
    part = items.take if build else items.__getitem__
    stops = itertools.accumulate(n for _, n in counts)
    return [(fidx, part(slice(stop - n, stop))) for (fidx, n), stop in zip(counts, stops)]


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
    """The instance a pose-document record describes on joint_set, as
    ``_pose_instances`` checks and makes it: 3 keypoint numbers and one
    annotated flag (by default, a positive score) per joint; a head_box
    passes check_box and gives head_size 0.6 x its diagonal by default."""
    stack = _pose_instances([locals()], joint_set)
    return PersonInstance(**{k: v if k == "joint_set" else v[0] for k, v in vars(stack).items()})


_RECORD_RULES = (   # a pose-document record's checks before the instance rules
    (("keypoints",), lambda s: map((3 * s["joint_set"].count).__eq__, map(len, s["keypoints"])),
     lambda s, i: f"keypoints length {len(s['keypoints'][i])} != 3*{s['joint_set'].count}"),
    (("head_box",), lambda s: [b is None or box_ok(b) for b in s["head_box"]],
     lambda s, i: check_box(s["head_box"][i], "head_box")),
    (("annotated",), lambda s: [a is None or len(a) == k for k in [s["joint_set"].count]
                                for a in s["annotated"]],
     lambda s, i: "scores/annotated length does not match joint set"),
)


def _pose_instances(records: list, joint_set: JointSet) -> InstanceStack:
    """The instances of pose-document records (pose_instance keywords) on
    joint_set as one stack, each record check (``_RECORD_RULES``) and then
    each instance rule one pass over all of them; a fault is the first that
    checking them one by one meets, its record the PoseError's row."""
    def column(key, default=None):
        return [r.get(key, default) for r in records]

    cols = {"joint_set": joint_set, "keypoints": column("keypoints"),
            "head_box": column("head_box"), "annotated": column("annotated")}
    try:
        raise_first(cols, _RECORD_RULES)
    except PoseError as exc:   # a record before it may break an instance rule first
        _pose_instances(records[:exc.row], joint_set)
        raise
    kps = np.array(cols["keypoints"], dtype=np.float64).reshape(-1, joint_set.count, 3)
    annotated = [kps[i, :, 2] > 0 if a is None else a for i, a in enumerate(cols["annotated"])]
    box_score = column("box_score", 1.0)
    return InstanceStack(
        box=np.array(column("box"), dtype=np.float64).reshape(-1, 4), box_score=box_score,
        coords=kps[:, :, :2], scores=kps[:, :, 2], joint_set=joint_set,
        annotated=np.array(annotated, dtype=bool).reshape(-1, joint_set.count),
        score=[float(b) if v is None else v for v, b in zip(column("score"), box_score)],
        track_id=column("track_id"), person_id=column("person_id"),
        head_size=[HEAD_SIZE_FACTOR * math.hypot(b[2], b[3]) if v is None and b is not None
                   else v for v, b in zip(column("head_size"), cols["head_box"])])


def parse_pose_document(doc: dict) -> PoseSequence:
    """The sequence a pose document describes, its frames and records walked
    by ``read_frames`` and all its instances made as one stack."""
    frames = document(**checked(document, doc, "pose document", required=("joint_set",)))
    js = get_joint_set(doc["joint_set"])
    return PoseSequence(js, read_frames(frames, instance_frame, pose_instance, _pose_instances,
                                        joint_set=js))


def load_pose_file(path) -> PoseSequence:
    return read_document(path, "pose document", parse_pose_document)


def pose_document(seq: PoseSequence) -> dict:
    """The document of seq, each column of its frames' rows listed at once."""
    s = InstanceStack.concat(seq.joint_set, [stack for _, stack in seq.frames])
    scalars = [[v if v is None else kind(v) for v in column] for kind, column in (
        (float, s.box_score), (float, s.score), (int, s.track_id), (int, s.person_id),
        (float, s.head_size))]
    keypoints = np.dstack([s.coords, s.scores]).reshape(-1, 3 * seq.joint_set.count)
    columns = [s.box.tolist(), *scalars, keypoints.tolist(), s.annotated.astype(int).tolist()]
    keys = "box box_score score track_id person_id head_size keypoints annotated".split()
    records = iter([{k: v for k, v in zip(keys, row) if v is not None} for row in zip(*columns)])
    return {"joint_set": seq.joint_set.name, "frames": [
        {"frame_index": int(fidx), "instances": list(itertools.islice(records, len(stack)))}
        for fidx, stack in seq.frames]}


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
