"""Combining per-domain head outputs for one crop into a final pose.

Three strategies cover the single-branch, head-swap, and heatmap-voting
predictions, named by a spec that :func:`parse_fusion_spec` reads; heads
missing from a single branch can be synthesized from the nose/shoulder
geometry with :func:`interpolate_head`.

Head-swap and vote first assemble one heatmap laid out on the target set and
decode it once, so only target channels are smoothed and peak-picked.
Decoding treats every channel on its own (smoothing, peak, annotated test,
grid-to-image) and decodes an all-zero channel to the zeros and False that
:meth:`JointMapping.take` fills in; so decoding the assembled map gives the
same bits as decoding each branch and projecting the poses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoseError
from .heatmaps import DecodedPose, Heatmap, decode
from .skeletons import canonical_name, get_joint_set, mapping

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


@dataclass
class BranchOutputs:
    """Per-domain heatmaps for one crop; identical geometry across branches."""

    branches: dict   # joint-set name -> Heatmap

    def __post_init__(self):
        if not self.branches:
            raise PoseError("at least one branch required")
        geos = set()
        for name, h in self.branches.items():
            if h.joint_set != name:
                raise PoseError(
                    f"branch {name!r} holds a heatmap tagged {h.joint_set!r}"
                )
            geos.add((h.values.shape[1:], h.crop, h.strides))
        if len(geos) != 1:
            raise PoseError("branch geometries differ")

    def __getitem__(self, name) -> Heatmap:
        try:
            return self.branches[name]
        except KeyError:
            raise PoseError(f"branch {name!r} not present") from None

    @property
    def geometry(self):
        h = next(iter(self.branches.values()))
        return h.values.shape[1:], h.crop, h.strides


def interpolate_head(pose: DecodedPose):
    """(head_top, head_bottom) interpolated from nose and shoulders.

    head_bottom sits HEAD_BOTTOM_COEF of the way from the shoulder midpoint
    to the nose, head_top a HEAD_TOP_COEF multiple of that vector beyond the
    nose; both carry the mean score of the three contributing joints.
    Returns (xy, score, ok) per joint with ok False when nose or a shoulder
    is missing.
    """
    js = get_joint_set(pose.joint_set)
    try:
        ni = js.index("nose")
        li = js.index("left_shoulder")
        ri = js.index("right_shoulder")
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


def _project_pose(pose: DecodedPose, target_set: str) -> DecodedPose:
    m = mapping(pose.joint_set, target_set)
    return DecodedPose(target_set, m.take(pose.coords), m.take(pose.scores),
                       m.take(pose.annotated))


def _fill_head(pose: DecodedPose, source: DecodedPose) -> DecodedPose:
    """Fill missing head_top/head_bottom of ``pose`` by interpolation on ``source``."""
    js = get_joint_set(pose.joint_set)
    slots = {}
    for i, name in enumerate(js.joints):
        if canonical_name(name) in _HEAD_JOINTS and not pose.annotated[i]:
            slots[canonical_name(name)] = i
    if not slots:
        return pose
    (top_xy, top_s, top_ok), (bot_xy, bot_s, bot_ok) = interpolate_head(source)
    for name, i in slots.items():
        if name == "head_top" and top_ok:
            pose.coords[i] = top_xy
            pose.scores[i] = top_s
            pose.annotated[i] = True
        elif name == "upper_neck" and bot_ok:
            pose.coords[i] = bot_xy
            pose.scores[i] = bot_s
            pose.annotated[i] = True
    return pose


def fuse_select(b: BranchOutputs, branch: str, target_set: str,
                smooth_sigma: float = 1.0, use_quarter_offset: bool = True) -> DecodedPose:
    """Decode one branch and project it onto the target set; head joints the
    branch cannot supply are interpolated from its nose/shoulders."""
    decoded = decode(b[branch], smooth_sigma, use_quarter_offset)
    out = _project_pose(decoded, target_set)
    return _fill_head(out, decoded)


def fuse_head_swap(b: BranchOutputs, body_branch: str, head_branch: str,
                   target_set: str, smooth_sigma: float = 1.0,
                   use_quarter_offset: bool = True) -> DecodedPose:
    """Body joints from one branch, head_top/head_bottom from another.

    The target-set heatmap takes each body channel by anatomical name and
    each head joint's channel from the head branch, then decodes once: only
    the target's channels are smoothed.
    """
    head = b[head_branch]
    head_js = get_joint_set(head.joint_set)
    if not any(canonical_name(n) in _HEAD_JOINTS for n in head_js.joints):
        raise PoseError(f"head branch {head_branch!r} provides no head joints")

    body = b[body_branch]
    values = mapping(body.joint_set, target_set).take(body.values)
    for i, name in enumerate(get_joint_set(target_set).joints):
        cname = canonical_name(name)
        if cname in _HEAD_JOINTS and head_js.has(cname):
            values[i] = head.values[head_js.index(cname)]
    return decode(Heatmap(values, target_set, body.crop, body.strides),
                  smooth_sigma, use_quarter_offset)


def fuse_vote(b: BranchOutputs, target_set: str, smooth_sigma: float = 1.0,
              use_quarter_offset: bool = True) -> DecodedPose:
    """Average each target joint's channel over every branch that has it,
    then decode the averaged map. Joints present in no branch decode
    not-annotated.

    Branches are summed in sorted name order, one index pass each; a joint
    set names each joint once, so no target row is hit twice in a pass.
    """
    (height, width), crop, strides = b.geometry
    k = get_joint_set(target_set).count
    votes = np.zeros((k, height, width), dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    for name in sorted(b.branches):
        m = mapping(name, target_set)
        votes[m.dst] += b.branches[name].values[m.src]   # exact float64 promotion
        counts[m.dst] += 1
    nonzero = counts > 0
    votes[nonzero] /= counts[nonzero, None, None]
    avg = Heatmap(votes.astype(np.float32), target_set, crop, strides)
    return decode(avg, smooth_sigma, use_quarter_offset)
