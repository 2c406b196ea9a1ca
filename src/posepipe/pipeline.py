"""End-to-end pose pipeline over heatmap files.

``steps`` states the stage order and what PipelineConfig's switches leave
out. Given identical config, inputs and seeds the output file is
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
is optional and triggers flip-merging of the rows the fusion strategy reads.
"""

from __future__ import annotations

import logging
import os

import numpy as np

from .config import PipelineConfig
from .errors import PoseError, checked
from .fusion import (
    BranchOutputs,
    fuse_head_swap,
    fuse_select,
    fuse_vote,
    parse_fusion_spec,
    rows_read,
)
from .heatmaps import DecodedPose, check_flip_pair, flip_merge, load_heatmap
from .instances import InstanceStack, check_box, check_score
from .poseio import (
    PoseSequence,
    check_frame_order,
    document,
    instance_frame,
    read_document,
    read_frames,
)
from .skeletons import get_joint_set
from .suppression import apply_thresholds, oks_nms, rescore
from .tracking import TrackerState, finalize

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


def fuse(heatmaps, flipped, spec: str, target_set, smooth_sigma: float,
         use_quarter_offset: bool) -> DecodedPose:
    """Fuse one crop's branch heatmaps into a pose on ``target_set``.

    heatmaps and flipped map branch name -> .pkhm path. spec is
    ``select:<branch>``, ``head-swap:<body>,<head>`` or ``vote``, and is
    checked before any file is read, as are that every flipped file belongs
    to a branch in heatmaps and target_set (a JointSet or a registered
    name). Only the branches the spec reads (every branch for vote) are
    flip-merged, and of those only the rows it reads (``fusion.rows_read``);
    every other row keeps the unflipped values, which no strategy reads.
    Every named file is still loaded and checked: each heatmap's own
    contents, its branch tag, a flipped file's shape and tag against its
    branch, and the geometry across branches.
    """
    kind, names = parse_fusion_spec(spec)
    stray = sorted(set(flipped) - set(heatmaps))
    if stray:
        raise PoseError(f"flipped heatmap for branch {stray[0]!r}, which has no heatmap")
    target_set = get_joint_set(target_set)
    used = names or heatmaps   # vote reads every branch
    branches = {}
    for name in sorted(heatmaps):
        h = load_heatmap(heatmaps[name])
        if h.joint_set.name != name:
            raise PoseError(f"branch {name!r} points at a {h.joint_set.name!r} heatmap")
        if name in flipped:
            h_flipped = load_heatmap(flipped[name])
            if name in used:
                h = flip_merge(h, h_flipped, rows_read(kind, names, h.joint_set, target_set))
            else:
                check_flip_pair(h, h_flipped)
        branches[name] = h
    b = BranchOutputs(branches)
    if kind == "select":
        return fuse_select(b, *names, target_set, smooth_sigma, use_quarter_offset)
    if kind == "head-swap":
        return fuse_head_swap(b, *names, target_set, smooth_sigma, use_quarter_offset)
    return fuse_vote(b, target_set, smooth_sigma, use_quarter_offset)


def track_sequence(frames, tracker: TrackerState, min_len: int) -> list:
    """Give every instance of [(frame_index, InstanceStack)] its track id from
    a fresh tracker, then drop the instances of tracks with fewer than
    ``min_len`` frames; returns [(frame_index, [PersonInstance])]."""
    ids = [(fidx, tracker.step(fidx, stack)) for fidx, stack in frames]
    kept = set(finalize(tracker, min_len))
    return [(fidx, [tracker.tracks[t][fidx] for t in frame_ids if t in kept])
            for fidx, frame_ids in ids]


def to_instances(joint_set, decoded: list, boxes: list, box_scores: list) -> InstanceStack:
    """The InstanceStack on joint_set of each of decoded in its (x, y, w, h)
    box of boxes, its joint scores clipped to [0, 1], after one pass of the
    instance rules over it."""
    if not decoded:
        return InstanceStack.of(joint_set, [])
    n = len(decoded)
    return InstanceStack(
        joint_set=joint_set,
        box=np.array(boxes, dtype=np.float64).reshape(n, 4), box_score=box_scores,
        coords=np.stack([d.coords for d in decoded]),
        scores=np.clip(np.stack([d.scores for d in decoded]), 0.0, 1.0),
        annotated=np.stack([d.annotated for d in decoded]),
        score=[float(s) for s in box_scores], track_id=[None] * n, person_id=[None] * n,
        head_size=[None] * n)


def steps(config: PipelineConfig) -> list:
    """(name, step) for each per-frame stage config enables, in the fixed
    order decode+fuse -> rescore -> thresholds -> oks-nms; tracking follows
    over the whole sequence (``track_sequence``). A step maps one frame to
    the next: manifest entries (see load_manifest) to the frame's
    InstanceStack, then one stack to the next. A switch leaves its stage
    out; a number at its off value leaves the stage in, doing nothing.
    Nothing is reordered."""
    consts = config.oks_constants()   # resolves the target set's name once
    chain = [
        ("decode+fuse", True, lambda entries: to_instances(consts.joint_set, [
            fuse(e["heatmaps"], e.get("flipped_heatmaps", {}), config.fusion,
                 consts.joint_set, config.smooth_sigma, config.use_quarter_offset)
            for e in entries], [e["box"] for e in entries], [e["box_score"] for e in entries])),
        ("rescore", config.use_box_rescore, lambda stack: rescore(stack)),
        ("thresholds", True, lambda stack: apply_thresholds(
            stack, config.box_threshold, config.keypoint_threshold)),
        ("oks-nms", config.use_oks_nms, lambda stack: stack.take(
            oks_nms(stack, config.oks_nms_threshold, consts))),
    ]
    return [(name, step) for name, on, step in chain if on]


def run_pipeline(config: PipelineConfig, manifest_frames) -> PoseSequence:
    """Walk the steps of config over each of manifest frames (see
    load_manifest), then track the sequence if config tracks."""
    chain = steps(config)
    log.info("pipeline stages: %s", " -> ".join(
        [name for name, _ in chain] + ["track"] * config.use_tracking))
    frames = []
    for fidx, frame in manifest_frames:
        for _, step in chain:
            frame = step(frame)
        frames.append((fidx, frame))
    if config.use_tracking:
        frames = track_sequence(frames, config.tracker(), config.min_track_length)
    else:
        frames = [(fidx, stack.instances()) for fidx, stack in frames]
    return PoseSequence(config.target_joint_set, frames)
