"""Joint vocabularies for each supported dataset flavour and the merged set.

The four builtin sets and their frozen orderings (the orderings are part of
the file-format contract, do not reorder):

merged (21)
    the 17 COCO joints in COCO order, followed by head_top, upper_neck,
    thorax, pelvis
coco (17)
    nose, left_eye, right_eye, left_ear, right_ear, left_shoulder,
    right_shoulder, left_elbow, right_elbow, left_wrist, right_wrist,
    left_hip, right_hip, left_knee, right_knee, left_ankle, right_ankle
mpii (16)
    right_ankle, right_knee, right_hip, left_hip, left_knee, left_ankle,
    pelvis, thorax, upper_neck, head_top, right_wrist, right_elbow,
    right_shoulder, left_shoulder, left_elbow, left_wrist
posetrack (15)
    nose, head_bottom, head_top, then the 12 limb joints in COCO order

``head_bottom`` and ``upper_neck`` name the same anatomical joint and map to
each other across sets.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import PoseError, checked

# head_bottom (posetrack naming) and upper_neck (mpii naming) are one joint
_ALIASES = {"head_bottom": "upper_neck"}

_LIMB_JOINTS = (
    "left_shoulder", "right_shoulder",
    "left_elbow", "right_elbow",
    "left_wrist", "right_wrist",
    "left_hip", "right_hip",
    "left_knee", "right_knee",
    "left_ankle", "right_ankle",
)

_COCO_JOINTS = (
    "nose", "left_eye", "right_eye", "left_ear", "right_ear",
) + _LIMB_JOINTS

_MPII_JOINTS = (
    "right_ankle", "right_knee", "right_hip",
    "left_hip", "left_knee", "left_ankle",
    "pelvis", "thorax", "upper_neck", "head_top",
    "right_wrist", "right_elbow", "right_shoulder",
    "left_shoulder", "left_elbow", "left_wrist",
)

_POSETRACK_JOINTS = ("nose", "head_bottom", "head_top") + _LIMB_JOINTS

_MERGED_JOINTS = _COCO_JOINTS + ("head_top", "upper_neck", "thorax", "pelvis")


def canonical_name(joint: str) -> str:
    """Resolve joint-name aliases to one canonical anatomical name."""
    return _ALIASES.get(joint, joint)


def _paired_indices(joints):
    """(left_index, right_index) for every left_*/right_* pair in ``joints``."""
    index = {name: i for i, name in enumerate(joints)}
    pairs = []
    for name, i in index.items():
        if name.startswith("left_"):
            partner = "right_" + name[len("left_"):]
            if partner in index:
                pairs.append((i, index[partner]))
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class JointSet:
    """A named, ordered keypoint vocabulary with its disjoint left/right flip pairs."""

    name: str
    joints: tuple[str, ...]
    flip_pairs: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "flip_pairs", tuple(map(tuple, self.flip_pairs)))
        # one name per anatomical joint, so a mapping never sends two rows
        # to one row
        if len({canonical_name(j) for j in self.joints}) != len(self.joints):
            raise PoseError(f"duplicate joint names (or aliases) in set {self.name!r}")
        # disjoint pairs, so un-mirroring swaps channels and drops none
        seen = set()
        for a, b in self.flip_pairs:
            if not (0 <= a < self.count and 0 <= b < self.count) or a == b:
                raise PoseError(f"invalid flip pair ({a}, {b}) in set {self.name!r}")
            if a in seen or b in seen:
                raise PoseError(f"flip pair ({a}, {b}) overlaps another in set {self.name!r}")
            seen.update((a, b))

    def __eq__(self, other):
        # the same object first: records hold the set they were made with,
        # so most checks compare a set with itself; the hash stays the
        # dataclass's field hash
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.joints, self.flip_pairs) == (
            other.name, other.joints, other.flip_pairs)

    @property
    def count(self) -> int:
        return len(self.joints)

    def index(self, joint: str) -> int:
        """Index of ``joint`` in this set, resolving aliases both ways (a set
        names each anatomical joint once)."""
        want = canonical_name(joint)
        for i, name in enumerate(self.joints):
            if canonical_name(name) == want:
                return i
        raise PoseError(f"joint {joint!r} not in set {self.name!r}")

    def has(self, joint: str) -> bool:
        return canonical_name(joint) in map(canonical_name, self.joints)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "JointSet":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:   # malformed or too deep
            raise PoseError(f"bad joint-set description: {exc}") from exc
        return cls(**checked(cls, doc, "joint-set description"))


_BUILTINS = {
    "merged": JointSet("merged", _MERGED_JOINTS, _paired_indices(_MERGED_JOINTS)),
    "coco": JointSet("coco", _COCO_JOINTS, _paired_indices(_COCO_JOINTS)),
    "mpii": JointSet("mpii", _MPII_JOINTS, _paired_indices(_MPII_JOINTS)),
    "posetrack": JointSet("posetrack", _POSETRACK_JOINTS, _paired_indices(_POSETRACK_JOINTS)),
}

_registry: dict[str, JointSet] = dict(_BUILTINS)


def builtin_joint_set(name: str) -> JointSet:
    """One of the four builtin sets: merged, coco, mpii, posetrack."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise PoseError(
            f"unknown builtin joint set {name!r}; expected one of {sorted(_BUILTINS)}"
        ) from None


def register_joint_set(js: JointSet) -> None:
    """Register a custom set so files referring to it can be parsed.

    Builtins cannot be overridden.
    """
    if js.name in _BUILTINS:
        raise PoseError(f"cannot override builtin joint set {js.name!r}")
    _registry[js.name] = js


def get_joint_set(name) -> JointSet:
    """Builtin or registered set by name; a JointSet is returned unchanged."""
    if isinstance(name, JointSet):
        return name
    try:
        return _registry[name]
    except KeyError:
        raise PoseError(f"unknown joint set {name!r}") from None


@dataclass(frozen=True)
class JointMapping:
    """Index pairs carrying joints of one set into another by anatomical name."""

    from_set: JointSet
    to_set: JointSet
    index_map: tuple[tuple[int, int], ...]

    def __post_init__(self):
        froms = [a for a, _ in self.index_map]
        if len(set(froms)) != len(froms):
            raise PoseError("mapping is not injective on from-indices")
        pairs = np.array(self.index_map, dtype=np.intp).reshape(-1, 2)
        pairs.flags.writeable = False   # mapping() hands one instance to every caller
        object.__setattr__(self, "src", pairs[:, 0])   # from-set rows, as an array
        object.__setattr__(self, "dst", pairs[:, 1])   # their to-set rows

    def __len__(self) -> int:
        return len(self.index_map)

    def take(self, values) -> np.ndarray:
        """Re-index per-joint rows (axis 0) of ``values`` into the to-set.

        Mapped rows are copied unchanged; to-set rows with no source come out
        zero (False for bool). The result keeps the input's dtype.
        """
        values = np.asarray(values)
        out = np.zeros((self.to_set.count,) + values.shape[1:], dtype=values.dtype)
        out[self.dst] = values[self.src]
        return out


def mapping(from_set, to_set) -> JointMapping:
    """Pair every joint of ``from_set`` with its anatomical twin in ``to_set``
    (each a JointSet or a registered name).

    Built once per pair of sets and shared: the cache is keyed by the
    ``JointSet`` objects, so re-registering a custom name with other joints
    gives a fresh mapping, and a held one keeps the sets it was built for.
    """
    return _mapping(get_joint_set(from_set), get_joint_set(to_set))


@functools.lru_cache(maxsize=256)
def _mapping(src: JointSet, dst: JointSet) -> JointMapping:
    dst_index = {canonical_name(n): i for i, n in enumerate(dst.joints)}
    pairs = []
    for i, name in enumerate(src.joints):
        j = dst_index.get(canonical_name(name))
        if j is not None:
            pairs.append((i, j))
    return JointMapping(src, dst, tuple(pairs))
