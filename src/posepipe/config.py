"""Pipeline configuration: one flat record of every knob, JSON-loadable.

Defaults bake in the standard operating point: 1-cell smoothing before
decode, quarter offsets on, box re-scoring on, box/keypoint thresholds
0.4/0.3, OKS-NMS at 0.4, Hungarian matching with the constant-velocity
propagator, an 8-frame lookback and 2-frame track pruning. ``pipeline.steps``
gives the stage order. Re-scoring, OKS-NMS, tracking, velocity propagation
and quarter offsets each have a boolean switch, and smoothing, the box and
keypoint thresholds and track pruning are off at ``smooth_sigma`` 0,
``box_threshold`` 0, ``keypoint_threshold`` 0 and ``min_track_length`` 1.

``from_dict`` checks keys and value types (``errors.checked``). A config
checks the rest when it is made, through the check of the code that uses
each value: ``parse_fusion_spec``, ``check_smooth_sigma``, the
``OksConstants`` and ``TrackerState`` that ``steps`` and ``tracker`` build, and
``oks_nms`` and ``finalize`` called on no input. Only the box and keypoint
thresholds are checked here, in [0, 1] (``apply_thresholds`` takes any >= 0).
These are the only tracking defaults: ``tracker`` alone maps the tracking
fields, ``use_flow_track`` included, onto a ``TrackerState``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PoseError, checked
from .fusion import parse_fusion_spec
from .heatmaps import check_smooth_sigma
from .poseio import read_document
from .suppression import OksConstants, oks_nms
from .tracking import TrackerState, finalize

@dataclass
class PipelineConfig:
    # fusion / decode
    target_joint_set: str = "posetrack"
    fusion: str = "head-swap:coco,mpii"   # select:<b> | head-swap:<body>,<head> | vote
    smooth_sigma: float = 1.0             # 0 = no smoothing
    use_quarter_offset: bool = True

    # scoring / suppression
    use_box_rescore: bool = True
    box_threshold: float = 0.4            # 0 = keep every instance
    keypoint_threshold: float = 0.3       # 0 = keep every joint
    use_oks_nms: bool = True
    oks_nms_threshold: float = 0.4
    oks_falloff_overrides: dict = field(default_factory=dict)
    oks_extra_falloff: float = 0.079

    # tracking
    use_tracking: bool = True
    matcher: str = "hungarian"
    use_flow_track: bool = True        # velocity propagation; off = identity
    similarity_threshold: float = 0.3
    lookback: int = 8
    min_track_length: int = 2          # 1 = no pruning

    def __post_init__(self):
        parse_fusion_spec(self.fusion)
        check_smooth_sigma(self.smooth_sigma)
        for name in ("box_threshold", "keypoint_threshold"):
            if not 0 <= getattr(self, name) <= 1:
                raise PoseError(f"config field {name!r} must be in [0, 1]")
        oks_nms([], self.oks_nms_threshold, self.oks_constants())
        finalize(self.tracker(), self.min_track_length)

    def oks_constants(self) -> OksConstants:
        return OksConstants.for_joint_set(self.target_joint_set,
                                          overrides=self.oks_falloff_overrides,
                                          extra_falloff=self.oks_extra_falloff)

    def tracker(self) -> TrackerState:
        """A fresh tracker at this config's tracking settings."""
        return TrackerState(self.oks_constants(), sim_threshold=self.similarity_threshold,
                            lookback=self.lookback, matcher=self.matcher,
                            propagator="velocity" if self.use_flow_track else "identity")

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        return cls(**checked(cls, doc, "config"))

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        return read_document(path, "config", cls.from_dict)

