"""Synthetic multi-person sequences at pipeline scale.

Generates everything the end-to-end pipeline consumes for one sequence:
per-instance branch heatmap files (optionally with flipped-input variants,
each the ``heatmaps.unmirror`` of its branch map), the input manifest, and a
ground-truth pose file. Figures translate with constant velocity across
frames. The scene deliberately contains the failure cases the
post-processing stages exist for:

* per-person "weak" joints on some frames: dim, displaced peaks whose decoded
  score falls below the keypoint threshold (and which land wrong if kept);
* one-frame clutter detections with healthy scores (tracking-time pruning is
  what removes them);
* low-scored clutter that the box threshold removes.

Everything is deterministic in the seed.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import PoseError
from .heatmaps import Heatmap, check_render_sigma, render_target, save_heatmap, unmirror
from .instances import InstanceStack
from .poseio import HEAD_SIZE_FACTOR, PoseSequence, save_pose_file, write_document
from .skeletons import builtin_joint_set, mapping
from .synthetic import figure_points

_MERGED = builtin_joint_set("merged")
BRANCHES = ("coco", "mpii", "posetrack")

# joints whose channel goes weak on designated frames (merged-set names)
_WEAK_JOINTS = ("left_wrist", "right_ankle")
GRID = (24, 18)          # heatmap (H, W) of every crop
BRANCH_NOISE = 0.002     # std of the per-branch heatmap noise
IMG_W, IMG_H = 640, 480


def _head_size(points_by_name) -> float:
    top = points_by_name["head_top"]
    neck = points_by_name["upper_neck"]
    h = float(np.linalg.norm(top - neck))
    return HEAD_SIZE_FACTOR * float(np.hypot(h, 0.75 * h))


def _person_track(rng, num_frames):
    """Image-space merged-joint positions per frame for one moving figure."""
    base = figure_points(rng, 24, 18)            # in a virtual 18x24 grid
    center = base.mean(axis=0)
    scale = rng.uniform(3.6, 4.4)
    pts = (base - center) * scale
    margin = 80.0
    start = np.array([rng.uniform(margin, IMG_W - margin),
                      rng.uniform(margin, IMG_H - margin)])
    vel = rng.uniform(-5.0, 5.0, size=2)
    return [pts + start + vel * t for t in range(num_frames)]


def _crop_for(points, pad: float):
    gh, gw = GRID
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    size = hi - lo
    x0 = lo[0] - pad * size[0]
    y0 = lo[1] - pad * size[1]
    w = size[0] * (1 + 2 * pad)
    h = size[1] * (1 + 2 * pad)
    return (float(x0), float(y0), float(w), float(h)), (w / gw, h / gh)


def _render_instance(points_img, crop, strides, sigma, joint_set, weak: dict, noise_rng):
    """One branch heatmap on joint_set (a JointSet or a registered name) for
    one person crop; weak maps joint index -> (displacement xy in cells, peak
    gain)."""
    m = mapping(_MERGED, joint_set)
    joint_set, k = m.to_set, m.to_set.count
    grid_pts = m.take(np.column_stack([
        (points_img[:, 0] - crop[0]) / strides[0] - 0.5,
        (points_img[:, 1] - crop[1]) / strides[1] - 0.5,
    ]))
    gains = np.ones(k)
    for di, (disp, gain) in weak.items():
        grid_pts[di] = grid_pts[di] + disp
        gains[di] = gain
    hm, _ = render_target(grid_pts, sigma, GRID, joint_set=joint_set,
                          crop=crop, strides=strides)
    values = hm.values * gains[:, None, None].astype(np.float32)
    values = values + BRANCH_NOISE * noise_rng.standard_normal(values.shape)
    values = np.clip(values, 0.0, 1.0)
    return Heatmap(values.astype(np.float32), joint_set, crop, strides)


def _clutter_heatmap(noise_rng, crop, strides, joint_set, peak):
    gh, gw = GRID
    k = joint_set.count
    pts = np.column_stack([noise_rng.uniform(2, gw - 3, size=k),
                           noise_rng.uniform(2, gh - 3, size=k)])
    hm, _ = render_target(pts, 1.5, GRID, joint_set=joint_set,
                          crop=crop, strides=strides)
    return Heatmap((hm.values * peak).astype(np.float32), joint_set, crop, strides)


def _write_crop(outdir, stem, box, box_score, heatmaps, with_flipped):
    """Save one crop's branch heatmaps as heatmaps/<stem>_<branch>.pkhm and,
    with_flipped, each one's mirrored-input prediction, its ``unmirror``, as
    ..._flip.pkhm. Returns the crop's manifest entry."""
    entry = {"box": list(box), "box_score": box_score, "heatmaps": {}}
    if with_flipped:
        entry["flipped_heatmaps"] = {}
    for branch, hm in heatmaps.items():
        name = f"heatmaps/{stem}_{branch}.pkhm"
        save_heatmap(hm, os.path.join(outdir, name))
        entry["heatmaps"][branch] = name
        if with_flipped:
            fname = f"heatmaps/{stem}_{branch}_flip.pkhm"
            save_heatmap(unmirror(hm), os.path.join(outdir, fname))
            entry["flipped_heatmaps"][branch] = fname
    return entry


def generate_scene(outdir, num_frames: int = 5, num_persons: int = 2, seed: int = 0,
                   sigma: float = 2.5, with_flipped: bool = True,
                   with_weak_joints: bool = True, with_clutter: bool = True):
    """Write heatmaps/, manifest.json and gt.json under outdir.

    Returns (manifest_path, gt_path).
    """
    if num_frames < 1 or num_persons < 1:
        raise PoseError("scene needs at least one frame and one person")
    if seed < 0:
        raise PoseError(f"scene seed must be >= 0, got {seed}")
    check_render_sigma(sigma)
    os.makedirs(os.path.join(outdir, "heatmaps"), exist_ok=True)

    weak_idx = [_MERGED.index(n) for n in _WEAK_JOINTS]
    tracks = [_person_track(np.random.default_rng([seed, 21, p]), num_frames)
              for p in range(num_persons)]

    manifest_frames = []
    gt_frames = []
    posetrack = builtin_joint_set("posetrack")
    to_pt = mapping(_MERGED, posetrack)
    branches = [builtin_joint_set(b) for b in BRANCHES]

    for t in range(num_frames):
        entries, gt_boxes, gt_coords, head_sizes = [], [], [], []
        for p in range(num_persons):
            pts = tracks[p][t]
            by_name = {n: pts[i] for i, n in enumerate(_MERGED.joints)}
            crop, strides = _crop_for(pts, 0.18)

            weak = {}
            if with_weak_joints and (t + p) % 2 == 1:
                rng_weak = np.random.default_rng([seed, 31, t, p])
                for mi in weak_idx:
                    disp = rng_weak.uniform(3.0, 5.0, size=2) * rng_weak.choice([-1, 1], 2)
                    weak[mi] = (disp, 0.2)

            heatmaps = {}
            for b, branch in enumerate(branches):
                noise_rng = np.random.default_rng([seed, 41, t, p, b])
                bm = dict(mapping(_MERGED, branch).index_map)
                bweak = {bm[mi]: wk for mi, wk in weak.items() if mi in bm}
                heatmaps[branch.name] = _render_instance(pts, crop, strides, sigma, branch,
                                                         bweak, noise_rng)
            entries.append(_write_crop(outdir, f"f{t}_p{p}", crop, 0.93, heatmaps,
                                       with_flipped))

            gt_boxes.append(crop)
            gt_coords.append(to_pt.take(pts))
            head_sizes.append(_head_size(by_name))

        if with_clutter:
            mid = num_frames // 2
            # clutter "a": one healthy-looking spurious detection on a single
            # frame (track-let pruning is what removes it); clutter "b": a
            # low-scored detection on two consecutive frames (the box
            # threshold is what removes it).
            spurious = []
            if t == mid:
                spurious.append(("a", 0.85, 0.85, 0))
                spurious.append(("b", 0.5, 0.6, 0))
            elif t == mid + 1:
                spurious.append(("b", 0.5, 0.6, 1))
            for tag, box_score, peak, step in spurious:
                rng_cl = np.random.default_rng([seed, 51, ord(tag)])
                cx = rng_cl.uniform(40, IMG_W - 120) + 4.0 * step
                cy = rng_cl.uniform(40, IMG_H - 160)
                crop = (cx, cy, 70.0, 110.0)
                strides = (crop[2] / GRID[1], crop[3] / GRID[0])
                heatmaps = {b.name: _clutter_heatmap(np.random.default_rng([seed, 52, ord(tag)]),
                                                     crop, strides, b, peak)
                            for b in branches}
                entries.append(_write_crop(outdir, f"f{t}_clutter{tag}", crop, box_score,
                                           heatmaps, with_flipped))

        manifest_frames.append({"frame_index": t, "instances": entries})
        n, k = num_persons, posetrack.count
        gt_frames.append((t, InstanceStack(
            box=np.array(gt_boxes), box_score=[1.0] * n, coords=np.array(gt_coords),
            scores=np.ones((n, k)), annotated=np.ones((n, k), dtype=bool), joint_set=posetrack,
            score=[1.0] * n, track_id=[None] * n, person_id=list(range(n)),
            head_size=head_sizes)))

    manifest_path = os.path.join(outdir, "manifest.json")
    write_document(manifest_path, {"frames": manifest_frames})
    gt_path = os.path.join(outdir, "gt.json")
    save_pose_file(PoseSequence(posetrack, gt_frames), gt_path)
    return manifest_path, gt_path
