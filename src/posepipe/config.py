"""Pipeline configuration: one flat record of every knob, JSON-loadable.

Defaults bake in the standard operating point: Gaussian targets at sigma 9,
1-cell smoothing before decode, quarter offsets on, box re-scoring on,
box/keypoint thresholds 0.4/0.3, OKS-NMS at 0.4, detector box merging at IoU
0.6, Hungarian matching with the constant-velocity propagator, an 8-frame
lookback and 2-frame track pruning. Each post-processing and tracking stage
has its own boolean switch so any single stage can be ablated.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import PoseError
from .poseio import read_json_object

# annotation -> accepted JSON value types; bool is never taken for a number
_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str, "dict": dict}


@dataclass
class PipelineConfig:
    # fusion / decode
    target_joint_set: str = "posetrack"
    fusion: str = "head-swap:coco,mpii"   # select:<b> | head-swap:<body>,<head> | vote
    render_sigma: float = 9.0
    smooth_sigma: float = 1.0
    use_gaussian_filter: bool = True
    use_quarter_offset: bool = True

    # scoring / suppression
    use_box_rescore: bool = True
    use_box_threshold: bool = True
    box_threshold: float = 0.4
    use_keypoint_threshold: bool = True
    keypoint_threshold: float = 0.3
    use_oks_nms: bool = True
    oks_nms_threshold: float = 0.4
    box_merge_iou_threshold: float = 0.6
    oks_falloff_overrides: dict = field(default_factory=dict)
    oks_extra_falloff: float = 0.079

    # tracking
    use_tracking: bool = True
    matcher: str = "hungarian"
    use_flow_track: bool = True        # velocity propagation; off = identity
    similarity_threshold: float = 0.3
    lookback: int = 8
    use_tracklet_pruning: bool = True
    min_track_length: int = 2

    # fusion head interpolation coefficients (midpoint->nose axis)
    head_bottom_coef: float = 0.5
    head_top_coef: float = 1.0

    # evaluation
    pckh_threshold: float = 0.5
    head_size_factor: float = 0.6

    # toy training
    ohkm_k: int = 8

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _FIELD_TYPES[f.type])
                    or (f.type != "bool" and isinstance(value, bool))):
                raise PoseError(f"config field {f.name!r} must be {f.type}, "
                                f"got {type(value).__name__}")
        if self.matcher not in ("hungarian", "greedy"):
            raise PoseError(f"unknown matcher {self.matcher!r}")
        kind = self.fusion.split(":", 1)[0]
        if kind not in ("select", "head-swap", "vote"):
            raise PoseError(f"unknown fusion strategy {self.fusion!r}")
        for name in ("box_threshold", "keypoint_threshold", "similarity_threshold"):
            if not 0 <= getattr(self, name) <= 1:
                raise PoseError(f"config field {name!r} must be in [0, 1]")
        if not 0 < self.oks_nms_threshold <= 1:
            raise PoseError("config field 'oks_nms_threshold' must be in (0, 1]")
        if not self.smooth_sigma >= 0:
            raise PoseError("config field 'smooth_sigma' must be >= 0")
        for name in ("lookback", "min_track_length"):
            if getattr(self, name) < 1:
                raise PoseError(f"config field {name!r} must be >= 1")
        falloffs = [self.oks_extra_falloff, *self.oks_falloff_overrides.values()]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0
                   for v in falloffs):
            raise PoseError("config fields 'oks_extra_falloff' and "
                            "'oks_falloff_overrides' need numbers > 0")

    @property
    def propagator(self) -> str:
        return "velocity" if self.use_flow_track else "identity"

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise PoseError(f"unknown config keys {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        doc = read_json_object(path, "config")
        try:
            return cls.from_dict(doc)
        except PoseError:
            raise
        except (TypeError, ValueError) as exc:
            raise PoseError(f"bad config: {exc}", path=path) from exc

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")
