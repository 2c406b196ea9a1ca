"""End-to-end pose pipeline over heatmap files.

Stage order is fixed: decode/fuse -> re-score -> thresholds -> OKS-NMS ->
tracking. Each stage can be ablated through PipelineConfig, by its switch or
by the off value of its number; a disabled stage is skipped, nothing is
reordered. Given identical config, inputs and seeds the output file is
byte-identical.

The input manifest is JSON:

    {"frames": [
       {"frame_index": 0,
        "instances": [
           {"box": [x, y, w, h], "box_score": 0.93,
            "heatmaps":         {"coco": "f0_p0_coco.pkhm", ...},
            "flipped_heatmaps": {"coco": "f0_p0_coco_flip.pkhm", ...}}]}]}

Each instance is a record that the signature of ``manifest_instance``
describes (read by ``errors.checked``, like every record in ``poseio``), so
an unknown key or a value of the wrong type is a PoseError. Heatmap paths are
resolved relative to the manifest's directory; the "flipped_heatmaps" entry
is optional and triggers flip-merging for each branch the fusion strategy
reads.
"""

from __future__ import annotations

import logging
import os

import numpy as np

from .config import PipelineConfig
from .errors import PoseError, checked
from .fusion import BranchOutputs, fuse_head_swap, fuse_select, fuse_vote, parse_fusion_spec
from .heatmaps import DecodedPose, check_flip_pair, flip_merge, load_heatmap
from .instances import PersonInstance, check_box, check_score
from .poseio import (
    PoseSequence,
    check_frame_order,
    document,
    instance_frame,
    read_document,
    read_frames,
)
from .suppression import OksConstants, apply_thresholds, oks_nms, rescore
from .tracking import TrackerConfig, TrackerState, finalize

log = logging.getLogger("posepipe.pipeline")


def manifest_instance(base: str, box: tuple[float, float, float, float],
                      heatmaps: dict[str, str], box_score: float = 1.0,
                      flipped_heatmaps: dict[str, str] = None) -> dict:
    """The entry a manifest instance record describes, its heatmap paths
    resolved against the directory base."""
    check_box(box)
    check_score(box_score)
    entry = {"box": box, "box_score": box_score}
    for key, paths in (("heatmaps", heatmaps), ("flipped_heatmaps", flipped_heatmaps)):
        if paths is None:
            continue
        if any("\0" in p for p in paths.values()):
            raise PoseError(f"{key} paths must not contain a NUL character")
        entry[key] = {name: os.path.join(base, p) for name, p in paths.items()}
    return entry


def load_manifest(path) -> list:
    """[(frame_index, [manifest_instance entries])] of the manifest at path."""
    base = os.path.dirname(os.path.abspath(path))

    def parse(doc):
        frames = read_frames(document(**checked(document, doc, "manifest", ("joint_set",))),
                             instance_frame, manifest_instance, base=base)
        check_frame_order([fidx for fidx, _ in frames])
        return frames
    return read_document(path, "manifest", parse)


def fuse(heatmaps, flipped, spec: str, target_set: str, smooth_sigma: float,
         use_quarter_offset: bool) -> DecodedPose:
    """Fuse one crop's branch heatmaps into a pose on ``target_set``.

    heatmaps and flipped map branch name -> .pkhm path. spec is
    ``select:<branch>``, ``head-swap:<body>,<head>`` or ``vote``, and is
    checked before any file is read. Only the branches the spec reads (every
    branch for vote) are flip-merged, but every named file is still loaded
    and checked: each heatmap's own contents, its branch tag, a flipped
    file's shape and tag against its branch, and the geometry across
    branches.
    """
    kind, names = parse_fusion_spec(spec)
    used = names or heatmaps   # vote reads every branch
    branches = {}
    for name in sorted(heatmaps):
        h = load_heatmap(heatmaps[name])
        if h.joint_set != name:
            raise PoseError(f"branch {name!r} points at a {h.joint_set!r} heatmap")
        if name in flipped:
            h_flipped = load_heatmap(flipped[name])
            if name in used:
                h = flip_merge(h, h_flipped)
            else:
                check_flip_pair(h, h_flipped)
        branches[name] = h
    b = BranchOutputs(branches)
    if kind == "select":
        return fuse_select(b, *names, target_set, smooth_sigma, use_quarter_offset)
    if kind == "head-swap":
        return fuse_head_swap(b, *names, target_set, smooth_sigma, use_quarter_offset)
    return fuse_vote(b, target_set, smooth_sigma, use_quarter_offset)


def track_sequence(frames, consts: OksConstants, tracker_config: TrackerConfig,
                   min_len: int) -> list:
    """Give every instance of [(frame_index, instances)] its track id, then
    drop the instances of tracks with fewer than ``min_len`` frames."""
    tracker = TrackerState(consts, tracker_config)
    tracked = []
    for fidx, instances in frames:
        ids = tracker.step(fidx, instances)
        tracked.append((fidx, [p.replace(track_id=t) for p, t in zip(instances, ids)]))
    kept = {t.id for t in finalize(tracker, min_len)}
    return [(fidx, [p for p in instances if p.track_id in kept])
            for fidx, instances in tracked]


def to_instance(decoded: DecodedPose, box, box_score: float) -> PersonInstance:
    """decoded in an (x, y, w, h) box, its joint scores clipped to [0, 1]."""
    return PersonInstance(
        box=np.asarray(box, dtype=np.float64),
        box_score=box_score,
        coords=decoded.coords,
        scores=np.clip(decoded.scores, 0.0, 1.0),
        annotated=decoded.annotated,
        joint_set=decoded.joint_set,
    )


def run_pipeline(config: PipelineConfig, manifest_frames) -> PoseSequence:
    """Run the fixed stage order over manifest frames (see load_manifest)."""
    enabled = [
        "decode+fuse",
        "rescore" if config.use_box_rescore else None,
        "thresholds",
        "oks-nms" if config.use_oks_nms else None,
        "track" if config.use_tracking else None,
    ]
    log.info("pipeline stages: %s", " -> ".join(s for s in enabled if s))

    consts = config.oks_constants()

    frames = []
    for fidx, entries in manifest_frames:
        instances = []
        for entry in entries:
            decoded = fuse(entry["heatmaps"], entry.get("flipped_heatmaps", {}),
                           config.fusion, config.target_joint_set,
                           config.smooth_sigma, config.use_quarter_offset)
            instances.append(to_instance(decoded, entry["box"], entry["box_score"]))
        if config.use_box_rescore:
            instances = [rescore(p) for p in instances]
        instances = apply_thresholds(instances, config.box_threshold,
                                     config.keypoint_threshold)
        if config.use_oks_nms:
            keep = oks_nms(instances, config.oks_nms_threshold, consts)
            instances = [instances[i] for i in keep]
        frames.append((fidx, instances))

    if config.use_tracking:
        frames = track_sequence(frames, consts, config.tracker_config(),
                                config.min_track_length)

    return PoseSequence(config.target_joint_set, frames)
