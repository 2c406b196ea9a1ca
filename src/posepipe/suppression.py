"""OKS similarity, greedy OKS-NMS, box IoU NMS, box re-scoring, thresholds.

``oks`` is one kernel over stacked poses: it takes a reference stack and a
candidate stack and returns their whole similarity matrix, so OKS-NMS and
the tracker each make one call per frame. Its entries are bit-equal to the
one-pair formula; ``_masked_mean`` keeps ``np.mean``'s float order, and
``evaluation`` uses the same helper for its mean PCKh distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoseError, predicate
from .instances import PersonInstance
from .skeletons import canonical_name, get_joint_set

# Per-joint fall-off constants for the COCO vocabulary (the familiar
# keypoint-similarity sigmas). Joints outside COCO default to 0.079.
_COCO_FALLOFF = {
    "nose": 0.026,
    "left_eye": 0.025, "right_eye": 0.025,
    "left_ear": 0.035, "right_ear": 0.035,
    "left_shoulder": 0.079, "right_shoulder": 0.079,
    "left_elbow": 0.072, "right_elbow": 0.072,
    "left_wrist": 0.062, "right_wrist": 0.062,
    "left_hip": 0.107, "right_hip": 0.107,
    "left_knee": 0.087, "right_knee": 0.087,
    "left_ankle": 0.089, "right_ankle": 0.089,
}
DEFAULT_EXTRA_FALLOFF = 0.079


@dataclass(frozen=True)
class OksConstants:
    """Per-joint fall-off constants k_i for one joint set."""

    joint_set: str
    falloff: np.ndarray   # (K,) > 0

    def __post_init__(self):
        object.__setattr__(self, "falloff", np.asarray(self.falloff, dtype=np.float64))
        k = get_joint_set(self.joint_set).count
        if self.falloff.shape != (k,):
            raise PoseError("fall-off constants length does not match joint set")
        if not np.all(self.falloff > 0):   # NaN fails too
            raise PoseError("fall-off constants must be positive")

    @classmethod
    def for_joint_set(cls, name: str, overrides=None,
                      extra_falloff: float = DEFAULT_EXTRA_FALLOFF) -> "OksConstants":
        """COCO-standard constants where the joint exists in COCO, otherwise
        ``extra_falloff``; ``overrides`` maps a joint of the set, by its name
        or its alias, to a replacement value (the exact name wins over the
        alias). Every value must be a number > 0.
        """
        js = get_joint_set(name)
        overrides = overrides or {}
        unknown = [key for key in overrides if not js.has(key)]
        if unknown:
            raise PoseError(f"fall-off overrides {sorted(unknown)} name no joint "
                            f"of set {name!r}")
        if not all(predicate(float)(v) and v > 0 for v in (extra_falloff, *overrides.values())):
            raise PoseError("fall-off constants must be numbers > 0")
        by_alias = {canonical_name(key): v for key, v in overrides.items()}
        values = []
        for joint in js.joints:
            key = canonical_name(joint)
            v = overrides.get(joint, by_alias.get(key))
            if v is None:
                v = _COCO_FALLOFF.get(key, extra_falloff)
            values.append(float(v))
        return cls(name, np.array(values))


def _masked_mean(values, mask):
    """Mean of each row's ``values[mask]`` over the last axis; 0.0 for a row
    with no masked entry.

    Bit-equal to ``np.mean(row[mask_row])`` per row: rows are grouped by
    their masked count n, each group's masked values are packed left in
    joint order into one contiguous (M, n) array, and ``np.add.reduce`` over
    its rows divided by n adds in the same order as ``np.mean`` of one
    row. (A masked sum with zeros in place of the unmasked entries is not
    bit-equal: numpy's 8-way unrolled sum groups the terms differently.)
    """
    shape = mask.shape[:-1]
    values = values.reshape(-1, mask.shape[-1])
    mask = mask.reshape(values.shape)
    counts = mask.sum(axis=1)
    out = np.zeros(values.shape[0])
    for n in np.unique(counts[counts > 0]).tolist():
        rows = np.flatnonzero(counts == n)
        packed = values[rows][mask[rows]].reshape(len(rows), n)
        out[rows] = np.add.reduce(packed, axis=1) / n
    return out.reshape(shape)


def oks(a, b, consts: OksConstants):
    """Keypoint similarity of candidates b to references a, normalized by
    each reference's area.

    a and b are sequences of PersonInstances. The result is the
    (len(a), len(b)) float64 matrix whose row i holds every candidate's OKS
    to reference i. Each entry is the mean over jointly annotated joints of
    exp(-d^2 / (2 area k^2)), 0.0 when no joint is annotated in both, with
    the float order of the one-pair formula (see ``_masked_mean``).
    """
    refs, cands = list(a), list(b)
    if not refs or not cands:
        return np.zeros((len(refs), len(cands)))
    sets = {p.joint_set for p in refs} | {p.joint_set for p in cands}
    if sets != {consts.joint_set}:
        first_a = next((p for p in refs if p.joint_set != consts.joint_set), refs[0])
        first_b = next((p for p in cands if p.joint_set != consts.joint_set), cands[0])
        raise PoseError(
            f"oks joint-set mismatch: {first_a.joint_set!r}, {first_b.joint_set!r}, "
            f"{consts.joint_set!r}"
        )
    area = np.array([p.area for p in refs], dtype=np.float64)
    if np.any(area <= 0):
        raise PoseError("reference instance area must be positive")
    ra = np.stack([p.annotated for p in refs])
    ca = np.stack([p.annotated for p in cands])
    # unannotated coordinates may be anything; zero them so they stay finite
    rc = np.where(ra[:, :, None], np.stack([p.coords for p in refs]), 0.0)
    cc = np.where(ca[:, :, None], np.stack([p.coords for p in cands]), 0.0)
    delta = rc[:, None] - cc[None]                      # (R, C, K, 2)
    d2 = delta[..., 0] ** 2 + delta[..., 1] ** 2
    e = np.exp(-d2 / ((2.0 * area)[:, None, None] * consts.falloff ** 2))
    return _masked_mean(e, ra[:, None] & ca[None])


def oks_nms(instances, threshold: float, consts: OksConstants):
    """Greedy duplicate-pose suppression by instance score and OKS (see
    ``_greedy_nms``) over one stacked ``oks`` matrix. Returns kept indices
    in visit order."""
    if not 0 < threshold <= 1:
        raise PoseError("oks-nms threshold must be in (0, 1]")
    if not instances:
        return []
    scores = np.array([p.score for p in instances], dtype=np.float64)
    return _greedy_nms(oks(instances, instances, consts), scores, threshold)


def _greedy_nms(sims, scores, threshold: float) -> list:
    """Visit indices by descending score (input order breaks ties); keep each
    and drop every unvisited one at similarity >= threshold to it."""
    order = np.argsort(-scores, kind="stable")
    keep = []
    while order.size:
        i = int(order[0])
        keep.append(i)
        order = order[1:][sims[i, order[1:]] < threshold]
    return keep


def box_ious(a, b) -> np.ndarray:
    """(N, M) intersection over union of (N, 4) and (M, 4) (x, y, w, h) box
    stacks; 0 where the union is not positive."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(1, -1, 4)
    extent = np.maximum(0.0, np.minimum(a[..., :2] + a[..., 2:], b[..., :2] + b[..., 2:])
                        - np.maximum(a[..., :2], b[..., :2]))
    inter = extent[..., 0] * extent[..., 1]
    union = a[..., 2] * a[..., 3] + b[..., 2] * b[..., 3] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def box_nms(boxes, scores, threshold: float):
    """Greedy IoU suppression of (x, y, w, h) boxes (see ``_greedy_nms``).
    Returns kept indices in visit order."""
    if not 0 < threshold <= 1:
        raise PoseError("box-nms threshold must be in (0, 1]")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if boxes.shape[0] != scores.shape[0]:
        raise PoseError("boxes and scores length mismatch")
    return _greedy_nms(box_ious(boxes, boxes), scores, threshold)


def rescore(p: PersonInstance) -> PersonInstance:
    """Instance score = box score x mean keypoint score over annotated joints
    (0 with no annotated joint)."""
    if p.num_annotated == 0:
        return p.replace(score=0.0)
    return p.replace(score=float(p.box_score * p.scores[p.annotated].mean()))


def apply_thresholds(instances, box_thr: float, kp_thr: float):
    """Drop instances scoring below box_thr; mark joints scoring below kp_thr
    not-annotated (removing them from output and tracking similarity)."""
    if box_thr < 0 or kp_thr < 0:
        raise PoseError("thresholds must be >= 0")
    out = []
    for p in instances:
        if p.score < box_thr:
            continue
        if kp_thr > 0:
            annotated = p.annotated & (p.scores >= kp_thr)
            p = p.replace(annotated=annotated)
        out.append(p)
    return out
