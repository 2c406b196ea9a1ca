"""Multi-domain human pose estimation and tracking pipeline at desk scale.

Modules cover joint vocabularies, heatmap encode/decode, multi-branch
fusion, OKS suppression, Hungarian tracking, PoseTrack-style evaluation, and
a small multi-domain trainer on synthetic data. See the README for the CLI.
"""

from .errors import PoseError
from .skeletons import JointMapping, JointSet, builtin_joint_set, get_joint_set, mapping
from .instances import PersonInstance, project
from .heatmaps import (
    DecodedPose,
    Heatmap,
    decode,
    flip_merge,
    load_heatmap,
    render_target,
    save_heatmap,
    smooth,
)
from .fusion import BranchOutputs, fuse_head_swap, fuse_select, fuse_vote, interpolate_head
from .suppression import (
    OksConstants,
    apply_thresholds,
    box_nms,
    oks,
    oks_nms,
    rescore,
)
from .assignment import solve_greedy, solve_hungarian
from .tracking import Track, TrackerConfig, TrackerState, finalize, similarity
from .evaluation import EvalReport, compute_map, compute_mota
from .toynet import NetConfig, ToyNetwork, forward, gradients, init_network, loss_l2_masked, loss_ohkm
from .synthetic import DomainSpec, Sample, gen_synthetic
from .training import TrainSchedule, Stage, staged_schedule, train
from .config import PipelineConfig
from .pipeline import run_pipeline

__version__ = "0.1.0"
