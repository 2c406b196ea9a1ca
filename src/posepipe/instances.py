"""Detected-person records: box, scores, per-joint keypoints, joint-set tag.

Each instance rule is written once, over a stack of N instances: a dict with
joint_set (one JointSet), box (N, 4), coords (N, K, 2), scores and annotated
(N, K), and a sequence of N values for every other field.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoseError
from .skeletons import JointSet, get_joint_set


def _unit(v):
    """Whether a number, or each entry of an array, lies in [0, 1] (NaN does not)."""
    return (v >= 0) & (v <= 1)


def _box_ok(box) -> bool:
    """Whether an x, y, w, h box is finite, with w, h > 0 and w * h finite."""
    x, y, w, h = map(float, box)
    return w > 0 and h > 0 and math.isfinite(x + y + w * h)


def check_box(box, what: str = "box") -> None:
    """Raise unless box passes :func:`_box_ok`; what names it in the message."""
    if not _box_ok(box):
        raise PoseError(f"{what} must be finite with positive width and height, got {box}")


def check_score(score) -> None:
    """Raise unless a box or instance score lies in [0, 1] (NaN does not)."""
    if not _unit(score):
        raise PoseError(f"score must lie in [0, 1], got {score!r}")


# Each instance rule in the order it is checked: (the fields it reads, which
# instances of a stack pass it, the message for instance i, or the check that
# raises it). A rule may assume that every rule before it passed.
_RULES = (
    (("joint_set", "coords"), lambda s: [s["coords"].shape[1:] == (s["joint_set"].count, 2)],
     lambda s, i: f"coords shape {s['coords'].shape[1:]} does not match joint set "
                  f"{s['joint_set'].name!r} (expected ({s['joint_set'].count}, 2))"),
    (("joint_set", "scores", "annotated"),
     lambda s: [s["scores"].shape[1:] == s["annotated"].shape[1:] == (s["joint_set"].count,)],
     lambda s, i: "scores/annotated length does not match joint set"),
    (("box",), lambda s: map(_box_ok, s["box"].tolist()),
     lambda s, i: check_box(s["box"][i].tolist())),
    (("scores",), lambda s: _unit(s["scores"]).all(axis=1),
     lambda s, i: "keypoint scores must lie in [0, 1]"),
    (("box_score",), lambda s: map(_unit, s["box_score"]),
     lambda s, i: check_score(s["box_score"][i])),
    (("coords", "annotated"),
     lambda s: (np.isfinite(s["coords"]) | ~s["annotated"][..., None]).all(axis=(1, 2)),
     lambda s, i: "annotated joints must have finite coordinates"),
    # w * h can underflow to 0.0, which _box_ok passes
    (("box",), lambda s: [w * h > 0 for _, _, w, h in s["box"].tolist()],
     lambda s, i: "instance area must be positive"),
    (("score",), lambda s: map(_unit, s["score"]), lambda s, i: check_score(s["score"][i])),
)
_ARRAYS = {"box": np.float64, "coords": np.float64, "scores": np.float64, "annotated": bool}


def _check(stack: dict, fields=None) -> None:
    """Raise, for its first failing instance, the first rule that reads one of
    fields (by default any) and that some instance of stack breaks."""
    for reads, passes, fault in _RULES:
        if fields is None or not fields.isdisjoint(reads):
            ok = list(passes(stack))
            if not all(ok):
                raise PoseError(fault(stack, ok.index(False)))


def _one(f: dict) -> dict:
    """The checked fields of one instance as a stack of one."""
    return {"joint_set": f["joint_set"], "box": f["box"][None], "box_score": [f["box_score"]],
            "coords": f["coords"][None], "scores": f["scores"][None],
            "annotated": f["annotated"][None], "score": [f["score"]]}


@dataclass
class PersonInstance:
    """One detected (or ground-truth) person.

    coords is (K, 2) image-pixel xy, scores is (K,) in [0, 1], annotated is a
    (K,) bool mask of joints that carry a valid location. ``score`` is the
    instance confidence used for ranking/suppression, in [0, 1]; it starts
    as the box score and is replaced by :func:`posepipe.suppression.rescore`.

    person_id and head_size are only populated on ground-truth instances.
    """

    box: np.ndarray            # (4,) x, y, w, h
    box_score: float
    coords: np.ndarray         # (K, 2)
    scores: np.ndarray         # (K,)
    annotated: np.ndarray      # (K,) bool
    joint_set: JointSet        # a registered name is resolved when made
    score: float = None
    track_id: int = None
    person_id: int = None
    head_size: float = None

    def __post_init__(self):
        for name, dtype in _ARRAYS.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        self.box = self.box.reshape(4)
        if self.score is None:
            self.score = float(self.box_score)
        self.joint_set = get_joint_set(self.joint_set)
        _check(_one(vars(self)))

    @property
    def area(self) -> float:
        return float(self.box[2] * self.box[3])

    @property
    def num_annotated(self) -> int:
        return int(self.annotated.sum())

    def replace(self, **changes) -> "PersonInstance":
        """Copy with fields replaced, running only the rules that read a
        replaced field; arrays are copied so instances stay independent."""
        if not changes.keys() <= vars(self).keys():
            raise TypeError(f"PersonInstance has no fields {sorted(changes.keys() - vars(self))}")
        fields = vars(self) | changes
        for name, dtype in _ARRAYS.items():
            fields[name] = (np.asarray(changes[name], dtype=dtype) if name in changes
                            else fields[name].copy())
        fields["box"] = fields["box"].reshape(4)
        fields["joint_set"] = get_joint_set(fields["joint_set"])
        _check(_one(fields), changes.keys())
        out = object.__new__(PersonInstance)
        out.__dict__ = fields
        return out


_FIELDS = tuple(f.name for f in dataclasses.fields(PersonInstance))


def stacked_instances(stack: dict) -> list:
    """The N instances of stack, which holds a column for each field, after
    one pass of every rule over them (raising as ``_check`` does)."""
    _check(stack)
    columns = [itertools.repeat(stack["joint_set"]) if name == "joint_set" else stack[name]
               for name in _FIELDS]
    out = [object.__new__(PersonInstance) for _ in range(len(stack["box"]))]
    for p, row in zip(out, zip(*columns)):
        p.__dict__ = dict(zip(_FIELDS, row))
    return out
