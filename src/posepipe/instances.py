"""Detected-person records: box, scores, per-joint keypoints, joint-set tag.

Each instance rule is written once, over a stack of N instances: joint_set
(one JointSet), box (N, 4), coords (N, K, 2), scores and annotated (N, K),
and a sequence of N values for every other field. ``InstanceStack`` holds a
frame's instances in that form from file or decode to the writer and the
eval, so every rule runs once per frame over the columns a stage changes.
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


def box_ok(box) -> bool:
    """Whether an x, y, w, h box is finite, with w, h > 0 and w * h finite."""
    x, y, w, h = map(float, box)
    return w > 0 and h > 0 and math.isfinite(x + y + w * h)


def check_box(box, what: str = "box") -> None:
    """Raise unless box passes :func:`box_ok`; what names it in the message."""
    if not box_ok(box):
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
    (("box",), lambda s: map(box_ok, s["box"].tolist()),
     lambda s, i: check_box(s["box"][i].tolist())),
    (("scores",), lambda s: _unit(s["scores"]).all(axis=1),
     lambda s, i: "keypoint scores must lie in [0, 1]"),
    (("box_score",), lambda s: map(_unit, s["box_score"]),
     lambda s, i: check_score(s["box_score"][i])),
    (("coords", "annotated"),
     lambda s: (np.isfinite(s["coords"]) | ~s["annotated"][..., None]).all(axis=(1, 2)),
     lambda s, i: "annotated joints must have finite coordinates"),
    # w * h can underflow to 0.0, which box_ok passes
    (("box",), lambda s: [w * h > 0 for _, _, w, h in s["box"].tolist()],
     lambda s, i: "instance area must be positive"),
    (("score",), lambda s: map(_unit, s["score"]), lambda s, i: check_score(s["score"][i])),
)
_ARRAYS = {"box": np.float64, "coords": np.float64, "scores": np.float64, "annotated": bool}


def raise_first(stack: dict, rules) -> None:
    """Raise, for the first row of stack (columns and a joint_set) that breaks
    one of rules (as in ``_RULES``), the first it breaks, as checking row by
    row would, with the row in the PoseError (0 for a whole-stack rule)."""
    for n, (_, passes, fault) in enumerate(rules):
        ok = list(passes(stack))
        if not all(ok):
            i = ok.index(False)
            if i:   # the rows before i passed every rule so far, not yet the later ones
                raise_first({k: v if k == "joint_set" else v[:i] for k, v in stack.items()},
                            rules[n + 1:])
            try:
                raise PoseError(fault(stack, i))
            except PoseError as exc:   # the fault's message, or the error a check raised
                exc.row = i
                raise


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
        raise_first(_one(vars(self)), _RULES)


_FIELDS = tuple(f.name for f in dataclasses.fields(PersonInstance))


@dataclass
class InstanceStack:
    """N instances on one joint set as columns, in PersonInstance's fields:
    box (N, 4) float64, coords (N, K, 2) float64, scores (N, K) float64,
    annotated (N, K) bool, and a list of N values for each other field.

    Every instance rule holds for every row. Making a stack runs each rule
    once over it, ``replace`` runs the rules that read a replaced column, and
    ``take``, ``of`` and ``concat`` start from rows that passed. ``len`` is N.
    """

    box: np.ndarray
    box_score: list
    coords: np.ndarray
    scores: np.ndarray
    annotated: np.ndarray
    joint_set: JointSet
    score: list
    track_id: list
    person_id: list
    head_size: list

    def __post_init__(self):
        raise_first(vars(self), _RULES)

    def __len__(self) -> int:
        return len(self.box)

    @classmethod
    def of(cls, joint_set, instances) -> "InstanceStack":
        """The stack of instances (PersonInstances, each checked when made),
        all on joint_set (a JointSet or a registered name)."""
        js = get_joint_set(joint_set)
        for p in instances:
            if p.joint_set != js:
                raise PoseError(f"instance joint set {p.joint_set.name!r} does not match "
                                f"the stack's {js.name!r}")
        fields = {name: [getattr(p, name) for p in instances]
                  for name in _FIELDS if name != "joint_set"}
        for name, shape in (("box", (4,)), ("coords", (js.count, 2)), ("scores", (js.count,)),
                            ("annotated", (js.count,))):
            fields[name] = np.array(fields[name], dtype=_ARRAYS[name]).reshape(-1, *shape)
        fields["joint_set"] = js
        return _stack(fields)

    @classmethod
    def concat(cls, joint_set, stacks) -> "InstanceStack":
        """The rows of stacks (each on joint_set) one stack after another, the
        empty stack for none; unchecked (each stack is)."""
        columns = [vars(s) for s in (cls.of(joint_set, []), *stacks)]
        return _stack({name: value if name == "joint_set" else
                       np.concatenate([c[name] for c in columns]) if isinstance(value, np.ndarray)
                       else [v for c in columns for v in c[name]]
                       for name, value in columns[0].items()})

    def take(self, rows) -> "InstanceStack":
        """The stack of the rows at the indices rows, in that order, or of the
        rows in the slice rows, its arrays views of the stack's."""
        rows = rows if isinstance(rows, slice) else list(rows)
        return _stack({name: value if name == "joint_set" else value[rows]
                       if isinstance(value, np.ndarray) or isinstance(rows, slice)
                       else [value[i] for i in rows] for name, value in vars(self).items()})

    def replace(self, **columns) -> "InstanceStack":
        """The stack with columns replaced, after one pass over it of each rule
        that reads a replaced column; the other columns are shared."""
        if not columns.keys() <= vars(self).keys():
            raise TypeError(f"InstanceStack has no columns {sorted(columns.keys() - vars(self))}")
        fields = vars(self) | columns
        raise_first(fields, [rule for rule in _RULES if not columns.keys().isdisjoint(rule[0])])
        return _stack(fields)

    def instances(self) -> list:
        """The rows as PersonInstances, unchecked (the stack is), their arrays
        views of the stack's."""
        columns = [itertools.repeat(self.joint_set) if name == "joint_set" else vars(self)[name]
                   for name in _FIELDS]
        out = [object.__new__(PersonInstance) for _ in range(len(self))]
        for p, row in zip(out, zip(*columns)):
            p.__dict__ = dict(zip(_FIELDS, row))
        return out


def _stack(fields: dict) -> InstanceStack:
    """An InstanceStack of fields, without the check."""
    out = object.__new__(InstanceStack)
    out.__dict__ = fields
    return out
