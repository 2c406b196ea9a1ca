"""Detected-person records: box, scores, per-joint keypoints, joint-set tag."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoseError
from .skeletons import get_joint_set


def check_box(box) -> None:
    """Raise unless box (x, y, w, h) is finite, with w, h > 0 and w * h finite."""
    x, y, w, h = map(float, box)
    if not (w > 0 and h > 0 and math.isfinite(x + y + w * h)):
        raise PoseError(f"box must be finite with positive width and height, got {box}")


def check_score(score) -> None:
    """Raise unless a box or instance score lies in [0, 1] (NaN does not)."""
    if not 0 <= score <= 1:
        raise PoseError(f"score must lie in [0, 1], got {score!r}")


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
    joint_set: str
    score: float = None
    track_id: int = None
    person_id: int = None
    head_size: float = None

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=np.float64).reshape(4)
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.annotated = np.asarray(self.annotated, dtype=bool)
        k = get_joint_set(self.joint_set).count
        if self.coords.shape != (k, 2):
            raise PoseError(
                f"coords shape {self.coords.shape} does not match joint set "
                f"{self.joint_set!r} (expected ({k}, 2))"
            )
        if self.scores.shape != (k,) or self.annotated.shape != (k,):
            raise PoseError("scores/annotated length does not match joint set")
        check_box(self.box.tolist())
        if not ((self.scores >= 0) & (self.scores <= 1)).all():
            raise PoseError("keypoint scores must lie in [0, 1]")
        check_score(self.box_score)
        if np.any(~np.isfinite(self.coords[self.annotated])):
            raise PoseError("annotated joints must have finite coordinates")
        if self.area <= 0:   # w * h can underflow to 0.0, which check_box passes
            raise PoseError("instance area must be positive")
        if self.score is None:
            self.score = float(self.box_score)
        check_score(self.score)

    @property
    def area(self) -> float:
        return float(self.box[2] * self.box[3])

    @property
    def num_annotated(self) -> int:
        return int(self.annotated.sum())

    def replace(self, **changes) -> "PersonInstance":
        """Copy with fields replaced; arrays are copied so instances stay independent."""
        out = dataclasses.replace(self, **changes)
        for name in ("box", "coords", "scores", "annotated"):
            if name not in changes:
                setattr(out, name, getattr(self, name).copy())
        return out

