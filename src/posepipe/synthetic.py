"""Deterministic synthetic training data: articulated stick figures rendered
onto small grids, with per-domain appearance and annotation quirks.

Each sample draws one latent 21-joint figure (random root, per-bone angle and
length jitter), renders it as the input image, and emits Gaussian heatmap
targets for the domain's joint subset only. Domains differ by contrast, pixel
noise, and a systematic keypoint offset standing in for dataset-specific
annotation standards. The latent stream depends only on (seed, index), so
datasets generated for different domains from one seed share their figures.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import PoseError
from .heatmaps import render_target
from .skeletons import builtin_joint_set, get_joint_set, mapping

_MERGED = builtin_joint_set("merged")

# Kinematic tree over the merged set: child joint -> (parent, dx, dy, angle
# jitter in radians). Offsets are in figure units, y growing downward.
_BONES = {
    "thorax":         ("pelvis",      0.0,  -5.5, 0.22),
    "upper_neck":     ("thorax",      0.0,  -2.2, 0.25),
    "nose":           ("upper_neck",  0.0,  -1.4, 0.30),
    "head_top":       ("upper_neck",  0.0,  -3.0, 0.30),
    "left_eye":       ("nose",        0.55, -0.45, 0.15),
    "right_eye":      ("nose",       -0.55, -0.45, 0.15),
    "left_ear":       ("nose",        1.0,   0.1,  0.15),
    "right_ear":      ("nose",       -1.0,   0.1,  0.15),
    "left_shoulder":  ("thorax",      2.2,   0.4,  0.25),
    "right_shoulder": ("thorax",     -2.2,   0.4,  0.25),
    "left_elbow":     ("left_shoulder",   0.9, 2.8, 1.10),
    "right_elbow":    ("right_shoulder", -0.9, 2.8, 1.10),
    "left_wrist":     ("left_elbow",      0.4, 2.6, 1.20),
    "right_wrist":    ("right_elbow",    -0.4, 2.6, 1.20),
    "left_hip":       ("pelvis",      1.4,   0.5,  0.15),
    "right_hip":      ("pelvis",     -1.4,   0.5,  0.15),
    "left_knee":      ("left_hip",        0.3, 4.2, 0.70),
    "right_knee":     ("right_hip",      -0.3, 4.2, 0.70),
    "left_ankle":     ("left_knee",       0.1, 4.0, 0.80),
    "right_ankle":    ("right_knee",     -0.1, 4.0, 0.80),
}

# Segments drawn into the input image.
_DRAWN_SEGMENTS = [
    ("pelvis", "thorax"), ("thorax", "upper_neck"), ("upper_neck", "head_top"),
    ("upper_neck", "nose"),
    ("thorax", "left_shoulder"), ("thorax", "right_shoulder"),
    ("left_shoulder", "left_elbow"), ("left_elbow", "left_wrist"),
    ("right_shoulder", "right_elbow"), ("right_elbow", "right_wrist"),
    ("pelvis", "left_hip"), ("left_hip", "left_knee"), ("left_knee", "left_ankle"),
    ("pelvis", "right_hip"), ("right_hip", "right_knee"), ("right_knee", "right_ankle"),
]


@dataclass(frozen=True)
class DomainSpec:
    """Appearance and annotation-standard knobs for one synthetic domain.

    ``offset`` is the domain's systematic annotation shift; ``label_noise``
    adds per-sample, per-joint annotation jitter on top of it (a sloppy
    labeling crew rather than a biased one). Both move the emitted targets,
    not the rendered figure.
    """

    name: str
    contrast: float = 1.0
    noise: float = 0.05
    offset: tuple[float, float] = (0.0, 0.0)   # systematic annotation offset (cells)
    label_noise: float = 0.0      # std of per-joint annotation jitter (cells)
    occlusion: float = 0.0        # chance each drawn limb segment is hidden
    target_sigma: float = 2.0
    height: int = 32
    width: int = 24
    in_channels: int = 1

    def __post_init__(self):
        object.__setattr__(self, "offset", tuple(self.offset))
        get_joint_set(self.name)   # domain name doubles as joint-set tag
        numbers = (self.contrast, *self.offset, self.target_sigma, self.noise, self.label_noise)
        if (not all(map(math.isfinite, numbers)) or self.target_sigma <= 0
                or min(self.noise, self.label_noise) < 0):
            raise PoseError(f"bad domain spec {self!r}")
        if not 0 <= self.occlusion < 1:
            raise PoseError("occlusion must be in [0, 1)")


DEFAULT_DOMAINS = {
    "coco": DomainSpec("coco", contrast=1.0, noise=0.05, offset=(0.0, 0.0)),
    "mpii": DomainSpec("mpii", contrast=0.9, noise=0.08, offset=(0.5, 0.3)),
    "posetrack": DomainSpec("posetrack", contrast=0.8, noise=0.12, offset=(-0.4, 0.25)),
}


@dataclass
class Sample:
    domain: str
    input: np.ndarray      # (C, H, W)
    target: np.ndarray     # (K, H, W)
    mask: np.ndarray       # (K,) bool
    keypoints: np.ndarray  # (K, 2) grid xy, annotation offset included
    latent: np.ndarray     # (21, 2) grid xy of the underlying figure


def _rotate(dx, dy, angle):
    c, s = np.cos(angle), np.sin(angle)
    return c * dx - s * dy, s * dx + c * dy


def figure_points(rng, height: int, width: int) -> np.ndarray:
    """One latent stick figure inside an (height, width) grid, merged order.

    Besides per-bone angle/length jitter the whole figure gets a random
    global rotation and scale, so localizing joints takes real coverage of
    the pose space rather than a translation-invariant template.
    """
    scale = (height / 30.0) * rng.uniform(0.55, 0.95)
    tilt = rng.uniform(-0.5, 0.5)
    root = np.array([
        rng.uniform(0.40, 0.60) * (width - 1),
        rng.uniform(0.44, 0.56) * (height - 1),
    ])
    pos = {"pelvis": root}
    for child, (parent, dx, dy, jitter) in _BONES.items():
        angle = tilt + rng.uniform(-jitter, jitter)
        length = rng.uniform(0.92, 1.08)
        rx, ry = _rotate(dx * scale * length, dy * scale * length, angle)
        pos[child] = pos[parent] + np.array([rx, ry])
    return np.array([pos[name] for name in _MERGED.joints])


def render_figure(points: np.ndarray, height: int, width: int,
                  stroke_sigma: float, bone_gains) -> np.ndarray:
    """Stick-figure intensity image from merged-order joint positions.

    bone_gains (one per drawn segment) modulates each stroke's brightness,
    standing in for clothing/lighting variation.
    """
    by_name = {name: points[i] for i, name in enumerate(_MERGED.joints)}
    xs = np.arange(width, dtype=np.float64)[None, :]
    ys = np.arange(height, dtype=np.float64)[:, None]
    img = np.zeros((height, width), dtype=np.float64)
    for (a, b), gain in zip(_DRAWN_SEGMENTS, bone_gains):
        p, q = by_name[a], by_name[b]
        v = q - p
        vv = float(v @ v)
        if vv == 0:
            d2 = (xs - p[0]) ** 2 + (ys - p[1]) ** 2
        else:
            t = ((xs - p[0]) * v[0] + (ys - p[1]) * v[1]) / vv
            t = np.clip(t, 0.0, 1.0)
            d2 = (xs - (p[0] + t * v[0])) ** 2 + (ys - (p[1] + t * v[1])) ** 2
        img = np.maximum(img, gain * np.exp(-d2 / (2.0 * stroke_sigma ** 2)))
    return img


def gen_synthetic(spec: DomainSpec, n: int, seed: int):
    """n deterministic samples for one domain.

    The figure latents depend on (seed, index) only; contrast, noise and the
    annotation offset are the domain's. Joints that leave the grid after the
    offset come back masked out.
    """
    if n < 1:
        raise PoseError("sample count must be >= 1")
    m = mapping("merged", spec.name)
    domain_salt = zlib.crc32(spec.name.encode("utf-8"))
    samples = []
    offset = np.asarray(spec.offset, dtype=np.float64)
    for index in range(n):
        latent_rng = np.random.default_rng([seed, index, 11])
        noise_rng = np.random.default_rng([seed, index, 13, domain_salt])
        latent = figure_points(latent_rng, spec.height, spec.width)
        # per-sample appearance nuisances, shared across domains like the pose
        stroke = latent_rng.uniform(0.45, 1.0)
        gains = latent_rng.uniform(0.5, 1.0, size=len(_DRAWN_SEGMENTS))
        if spec.occlusion > 0:
            # hidden limbs: the joints stay annotated, the strokes disappear
            gains = gains * (latent_rng.random(len(_DRAWN_SEGMENTS)) >= spec.occlusion)
        img = render_figure(latent, spec.height, spec.width, stroke, gains) * spec.contrast
        if spec.noise > 0:
            img = img + spec.noise * noise_rng.standard_normal(img.shape)
        inp = np.broadcast_to(img, (spec.in_channels, spec.height, spec.width)).copy()

        keypoints = m.take(latent + offset)
        if spec.label_noise > 0:
            keypoints += noise_rng.normal(0.0, spec.label_noise, keypoints.shape)
        hm, mask = render_target(keypoints, spec.target_sigma,
                                 (spec.height, spec.width), joint_set=spec.name)
        samples.append(Sample(
            domain=spec.name,
            input=inp,
            target=hm.values.astype(np.float64),
            mask=mask,
            keypoints=keypoints,
            latent=latent,
        ))
    return samples


def project_to_merged(sample: Sample) -> Sample:
    """Re-index a domain sample into the merged vocabulary (for mixed-style
    training with a single merged head); absent joints stay masked out."""
    if sample.domain == "merged":
        return sample
    m = mapping(sample.domain, "merged")
    return Sample("merged", sample.input, m.take(sample.target), m.take(sample.mask),
                  m.take(sample.keypoints), sample.latent)
