"""Combining per-domain head outputs for one crop into a final pose.

Three strategies cover the single-branch, head-swap, and heatmap-voting
predictions, named by a spec that :func:`parse_fusion_spec` reads; heads
missing from a single branch can be synthesized from the nose/shoulder
geometry with :func:`interpolate_head`.

Head-swap and vote first assemble one heatmap laid out on the target set and
decode it once, so only target channels are smoothed and peak-picked;
:func:`rows_read` states which rows of each branch a strategy reads, so that
only those are flip-merged.
Decoding treats every channel on its own (smoothing, peak, annotated test,
grid-to-image) and decodes an all-zero channel to the zeros and False that
:meth:`JointMapping.take` fills in; so decoding the assembled map gives the
same bits as decoding each branch and projecting the poses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PoseError
from .heatmaps import DecodedPose, Heatmap, decode
from .skeletons import JointMapping, JointSet, canonical_name, mapping

# Head-segment interpolation coefficients along the shoulder-midpoint -> nose
# axis (neck sits halfway up, the crown a full unit beyond the nose).
HEAD_BOTTOM_COEF = 0.5
HEAD_TOP_COEF = 1.0

_HEAD_JOINTS = ("head_top", "upper_neck")   # canonical names

# fusion strategy -> how many branch names its spec takes
_SPEC_BRANCHES = {"select": 1, "head-swap": 2, "vote": 0}


def parse_fusion_spec(spec: str):
    """(kind, branch names) of ``select:<branch>``, ``head-swap:<body>,<head>``
    or ``vote``. Whether the named branches exist is checked per crop."""
    kind, sep, arg = spec.partition(":")
    if kind not in _SPEC_BRANCHES:
        raise PoseError(f"unknown fusion strategy {spec!r}")
    names = tuple(arg.split(",")) if sep else ()
    if len(names) != _SPEC_BRANCHES[kind] or not all(names):
        raise PoseError(f"fusion strategy {kind!r} takes {_SPEC_BRANCHES[kind]} "
                        f"branch name(s), got {spec!r}")
    return kind, names


@functools.lru_cache(maxsize=256)
def _has_head_joints(joint_set: JointSet) -> bool:
    """Whether a set names a head joint: the check head-swap makes of its
    head branch, worked out once per ``JointSet``."""
    return any(canonical_name(n) in _HEAD_JOINTS for n in joint_set.joints)


@functools.lru_cache(maxsize=256)
def _head_pairs(m: JointMapping) -> np.ndarray:
    """Which pairs of m carry a head joint: the rows head-swap takes from its
    head branch. Worked out once per mapping, which ``skeletons.mapping``
    shares (as many as it caches), and read-only."""
    rows = np.array([canonical_name(n) in _HEAD_JOINTS for n in m.from_set.joints], bool)[m.src]
    rows.flags.writeable = False
    return rows


def rows_read(kind: str, names, branch: JointSet, target_set: JointSet) -> np.ndarray:
    """Rows of a heatmap on ``branch`` that the strategy (``kind``, ``names``)
    of :func:`parse_fusion_spec` reads for ``target_set``, as an index array.

    select reads every row of its branch. head-swap reads the body branch's
    rows that the target set has, and the head branch's head-joint rows that
    it has. vote reads each branch's rows that the target set has.
    """
    if kind == "select":
        return np.arange(branch.count)
    m = mapping(branch, target_set)
    if kind == "vote" or branch.name == names[0]:
        return m.src
    return m.src[_head_pairs(m)]


@dataclass
class BranchOutputs:
    """Per-domain heatmaps for one crop; identical geometry across branches."""

    branches: dict   # joint-set name -> Heatmap

    def __post_init__(self):
        if not self.branches:
            raise PoseError("at least one branch required")
        geos = set()
        for name, h in self.branches.items():
            if h.joint_set.name != name:
                raise PoseError(f"branch {name!r} holds a heatmap tagged {h.joint_set.name!r}")
            geos.add((h.values.shape[1:], h.crop, h.strides))
        if len(geos) != 1:
            raise PoseError("branch geometries differ")

    def __getitem__(self, name) -> Heatmap:
        try:
            return self.branches[name]
        except KeyError:
            raise PoseError(f"branch {name!r} not present") from None


def interpolate_head(pose: DecodedPose):
    """(head_top, head_bottom) interpolated from nose and shoulders.

    head_bottom sits HEAD_BOTTOM_COEF of the way from the shoulder midpoint
    to the nose, head_top a HEAD_TOP_COEF multiple of that vector beyond the
    nose; both carry the mean score of the three contributing joints.
    Returns (xy, score, ok) per joint with ok False when nose or a shoulder
    is missing.
    """
    try:
        ni, li, ri = map(pose.joint_set.index, ("nose", "left_shoulder", "right_shoulder"))
    except PoseError:
        return ((np.zeros(2), 0.0, False), (np.zeros(2), 0.0, False))
    if not (pose.annotated[ni] and pose.annotated[li] and pose.annotated[ri]):
        return ((np.zeros(2), 0.0, False), (np.zeros(2), 0.0, False))
    nose = pose.coords[ni]
    mid = (pose.coords[li] + pose.coords[ri]) / 2.0
    axis = nose - mid
    score = float((pose.scores[ni] + pose.scores[li] + pose.scores[ri]) / 3.0)
    head_top = nose + HEAD_TOP_COEF * axis
    head_bottom = mid + HEAD_BOTTOM_COEF * axis
    return ((head_top, score, True), (head_bottom, score, True))


def _project_pose(pose: DecodedPose, target_set) -> DecodedPose:
    m = mapping(pose.joint_set, target_set)
    return DecodedPose(m.to_set, m.take(pose.coords), m.take(pose.scores),
                       m.take(pose.annotated))


def _fill_head(pose: DecodedPose, source: DecodedPose) -> DecodedPose:
    """Fill missing head_top/head_bottom of ``pose`` by interpolation on
    ``source``; ``interpolate_head`` gives them in ``_HEAD_JOINTS`` order."""
    slots = {canonical_name(n): i for i, n in enumerate(pose.joint_set.joints)
             if canonical_name(n) in _HEAD_JOINTS and not pose.annotated[i]}
    if slots:
        for name, (xy, score, ok) in zip(_HEAD_JOINTS, interpolate_head(source)):
            if ok and name in slots:
                i = slots[name]
                pose.coords[i], pose.scores[i], pose.annotated[i] = xy, score, True
    return pose


def fuse_select(b: BranchOutputs, branch: str, target_set,
                smooth_sigma: float = 1.0, use_quarter_offset: bool = True) -> DecodedPose:
    """Decode one branch and project it onto the target set; head joints the
    branch cannot supply are interpolated from its nose/shoulders. Here and
    in the other strategies target_set is a JointSet or a registered name."""
    decoded = decode(b[branch], smooth_sigma, use_quarter_offset)
    return _fill_head(_project_pose(decoded, target_set), decoded)


def fuse_head_swap(b: BranchOutputs, body_branch: str, head_branch: str,
                   target_set, smooth_sigma: float = 1.0,
                   use_quarter_offset: bool = True) -> DecodedPose:
    """Body joints from one branch, head_top/head_bottom from another.

    The target-set heatmap takes each body channel by anatomical name and
    each head joint's channel from the head branch (the head rows
    :func:`rows_read` names), then decodes once: only the target's channels
    are smoothed.
    """
    head = b[head_branch]
    if not _has_head_joints(head.joint_set):
        raise PoseError(f"head branch {head_branch!r} provides no head joints")

    body = b[body_branch]
    m = mapping(body.joint_set, target_set)
    values = m.take(body.values)
    heads = mapping(head.joint_set, m.to_set)
    rows = _head_pairs(heads)
    values[heads.dst[rows]] = head.values[heads.src[rows]]
    return decode(body._derive(values, m.to_set), smooth_sigma, use_quarter_offset)


def fuse_vote(b: BranchOutputs, target_set, smooth_sigma: float = 1.0,
              use_quarter_offset: bool = True) -> DecodedPose:
    """Average each target joint's channel over every branch that has it,
    then decode the averaged map. Joints present in no branch decode
    not-annotated.

    Branches are summed in sorted name order, one index pass each; a joint
    set names each joint once, so no target row is hit twice in a pass.
    """
    first = next(iter(b.branches.values()))
    target = mapping(first.joint_set, target_set).to_set
    votes = np.zeros((target.count,) + first.values.shape[1:], dtype=np.float64)
    counts = np.zeros(target.count, dtype=np.int64)
    for _, h in sorted(b.branches.items()):   # branch names are unique
        m = mapping(h.joint_set, target)
        votes[m.dst] += h.values[m.src]   # exact float64 promotion
        counts[m.dst] += 1
    nonzero = counts > 0
    votes[nonzero] /= counts[nonzero, None, None]
    return decode(first._derive(votes.astype(np.float32), target),
                  smooth_sigma, use_quarter_offset)
