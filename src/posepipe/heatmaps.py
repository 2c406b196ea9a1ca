"""Per-joint score grids: Gaussian target rendering, smoothing, flip-merging,
sub-pixel decoding, and the .pkhm binary container.

Coordinate conventions (part of the golden-file contract):

* Grid coordinates place integer values on cell centers: grid x = 3.0 is the
  center of column 3. ``render_target`` takes keypoints in grid coordinates.
* A grid point maps to image pixels as ``x_img = crop_x + (gx + 0.5) * stride_x``
  (cell-center convention), so decoded cell p lands mid-cell in the image.
* Un-mirroring a flipped-input prediction reverses the W axis, then shifts one
  cell toward +x (column 0 duplicated), then swaps paired channels.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import PoseError
from .skeletons import get_joint_set

_MAGIC = b"PKHM"
_VERSION = 1


@dataclass
class Heatmap:
    """K per-joint score grids plus the geometry linking grid to image space."""

    values: np.ndarray          # (K, H, W) float32
    joint_set: str
    crop: tuple = (0.0, 0.0, None, None)   # (x, y, w, h) in image pixels
    strides: tuple = (1.0, 1.0)            # (stride_x, stride_y)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.values.ndim != 3:
            raise PoseError(f"heatmap values must be (K, H, W), got {self.values.shape}")
        k, h, w = self.values.shape
        if h < 3 or w < 3:
            raise PoseError("heatmap grid must be at least 3x3")
        if k != get_joint_set(self.joint_set).count:
            raise PoseError(
                f"heatmap has {k} channels but joint set {self.joint_set!r} "
                f"has {get_joint_set(self.joint_set).count}"
            )
        if not np.all(np.isfinite(self.values)):
            raise PoseError("heatmap values must be finite")
        x, y, cw, ch = self.crop
        if cw is None:
            cw = float(w) * self.strides[0]
        if ch is None:
            ch = float(h) * self.strides[1]
        self.crop = (float(x), float(y), float(cw), float(ch))
        self.strides = (float(self.strides[0]), float(self.strides[1]))
        if self.strides[0] <= 0 or self.strides[1] <= 0:
            raise PoseError("heatmap strides must be positive")

    def grid_to_image(self, gxy: np.ndarray) -> np.ndarray:
        """Map (..., 2) grid xy to image pixels, cell-center convention."""
        gxy = np.asarray(gxy, dtype=np.float64)
        out = np.empty_like(gxy)
        out[..., 0] = self.crop[0] + (gxy[..., 0] + 0.5) * self.strides[0]
        out[..., 1] = self.crop[1] + (gxy[..., 1] + 0.5) * self.strides[1]
        return out


@dataclass
class DecodedPose:
    """Per-joint image-pixel locations with peak scores."""

    joint_set: str
    coords: np.ndarray      # (K, 2) image xy
    scores: np.ndarray      # (K,)
    annotated: np.ndarray   # (K,) bool


def render_target(joints, sigma: float, size, joint_set: str = "merged",
                  annotated=None, crop=None, strides=(1.0, 1.0)):
    """Render one Gaussian bump per joint on an (H, W) grid.

    joints: (K, 2) keypoints in grid coordinates (x, y). Channel k holds
    exp(-((x - x_k)^2 + (y - y_k)^2) / (2 sigma^2)) per cell; a keypoint on a
    cell center peaks at exactly 1.0 there. Joints outside the grid (nearest
    cell out of bounds) and joints already masked out get an all-zero channel
    and a 0 mask bit.

    Returns (Heatmap, mask) where mask is the (K,) bool annotation mask.
    """
    if sigma <= 0:
        raise PoseError("render sigma must be positive")
    h, w = int(size[0]), int(size[1])
    joints = np.asarray(joints, dtype=np.float64).reshape(-1, 2)
    k = joints.shape[0]
    if k != get_joint_set(joint_set).count:
        raise PoseError(f"{k} keypoints given for joint set {joint_set!r}")
    if annotated is None:
        annotated = np.ones(k, dtype=bool)
    else:
        annotated = np.asarray(annotated, dtype=bool).reshape(k)

    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    values = np.zeros((k, h, w), dtype=np.float64)
    mask = np.zeros(k, dtype=bool)
    inv = 1.0 / (2.0 * sigma * sigma)
    for i in range(k):
        gx, gy = joints[i]
        in_grid = -0.5 <= gx < w - 0.5 and -0.5 <= gy < h - 0.5
        if not annotated[i] or not in_grid:
            continue
        dx2 = (xs - gx) ** 2
        dy2 = (ys - gy) ** 2
        values[i] = np.exp(-(dy2[:, None] + dx2[None, :]) * inv)
        mask[i] = True
    if crop is None:
        crop = (0.0, 0.0, w * strides[0], h * strides[1])
    hm = Heatmap(values.astype(np.float32), joint_set, crop, strides)
    return hm, mask


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = int(math.ceil(3.0 * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(t * t) / (2.0 * sigma * sigma))
    return k / k.sum()


def check_smooth_sigma(sigma_filter: float) -> None:
    """Raise unless sigma_filter is a finite number >= 0, as :func:`smooth` needs."""
    if not 0 <= sigma_filter < math.inf:
        raise PoseError(f"smoothing sigma must be a finite number >= 0, got {sigma_filter!r}")


def smooth(h: Heatmap, sigma_filter: float) -> Heatmap:
    """Per-channel convolution with a normalized truncated Gaussian
    (radius = ceil(3 sigma)), symmetric-reflect padding. sigma_filter = 0 is
    the identity. Channel mass is preserved.
    """
    check_smooth_sigma(sigma_filter)
    if sigma_filter == 0:
        return h
    kernel = _gaussian_kernel(sigma_filter)
    r = len(kernel) // 2
    v = h.values.astype(np.float64)
    _, height, width = v.shape

    padded = np.pad(v, ((0, 0), (r, r), (0, 0)), mode="symmetric")
    out = np.zeros_like(v)
    for t, kt in enumerate(kernel):
        out += kt * padded[:, t:t + height, :]

    padded = np.pad(out, ((0, 0), (0, 0), (r, r)), mode="symmetric")
    out = np.zeros_like(v)
    for t, kt in enumerate(kernel):
        out += kt * padded[:, :, t:t + width]

    return Heatmap(out.astype(np.float32), h.joint_set, h.crop, h.strides)


def unmirror(h_flipped: Heatmap) -> Heatmap:
    """Undo a horizontal input flip on a network output: reverse W, shift one
    cell toward +x (duplicating column 0), swap the joint set's left/right
    paired channels.
    """
    rev = h_flipped.values[:, :, ::-1]
    shifted = rev.copy()
    shifted[:, :, 1:] = rev[:, :, :-1]
    out = shifted.copy()
    for a, b in get_joint_set(h_flipped.joint_set).flip_pairs:
        out[a] = shifted[b]
        out[b] = shifted[a]
    return Heatmap(out, h_flipped.joint_set, h_flipped.crop, h_flipped.strides)


def check_flip_pair(h: Heatmap, h_flipped_input: Heatmap) -> None:
    """Raise unless a prediction and its flipped-input prediction have one
    shape and one joint set, as :func:`flip_merge` needs."""
    if h.values.shape != h_flipped_input.values.shape:
        raise PoseError(
            f"flip_merge shape mismatch: {h.values.shape} vs {h_flipped_input.values.shape}"
        )
    if h.joint_set != h_flipped_input.joint_set:
        raise PoseError("flip_merge joint-set mismatch")


def flip_merge(h: Heatmap, h_flipped_input: Heatmap) -> Heatmap:
    """Average a prediction with the un-mirrored prediction for the flipped input."""
    check_flip_pair(h, h_flipped_input)
    un = unmirror(h_flipped_input)
    merged = (h.values.astype(np.float64) + un.values.astype(np.float64)) / 2.0
    return Heatmap(merged.astype(np.float32), h.joint_set, h.crop, h.strides)


def peaks(channels: np.ndarray, use_quarter_offset: bool = True):
    """Argmax cell of each (H, W) channel of a (K, H, W) array.

    Returns ((K, 2) grid xy, (K,) values at the argmax cells). With quarter
    offsets on, an interior peak shifts each axis 0.25 cell toward the larger
    of its two neighbors (no shift on exact ties); border peaks never shift.
    """
    k, height, width = channels.shape
    py, px = np.divmod(channels.reshape(k, -1).argmax(axis=1), width)
    gxy = np.stack([px, py], axis=1).astype(np.float64)
    if use_quarter_offset:
        i = np.flatnonzero((0 < px) & (px < width - 1) & (0 < py) & (py < height - 1))
        x, y = px[i], py[i]
        for axis, lo, hi in ((0, channels[i, y, x - 1], channels[i, y, x + 1]),
                             (1, channels[i, y - 1, x], channels[i, y + 1, x])):
            gxy[i, axis] += np.where(hi > lo, 0.25, np.where(lo > hi, -0.25, 0.0))
    return gxy, channels[np.arange(k), py, px]


def decode(h: Heatmap, smooth_sigma: float = 1.0,
           use_quarter_offset: bool = True) -> DecodedPose:
    """Peak-pick each channel and map to image coordinates.

    Per channel: smooth, take the :func:`peaks` cell with its quarter offset,
    convert with the cell-center rule. The score is the smoothed value at the
    peak. All-zero channels decode to not-annotated joints with zeroed
    coordinates and score.
    """
    hm = smooth(h, smooth_sigma)
    gxy, values = peaks(hm.values, use_quarter_offset)
    annotated = h.values.reshape(len(values), -1).any(axis=1)
    coords = hm.grid_to_image(gxy)
    scores = values.astype(np.float64)
    coords[~annotated] = 0.0
    scores[~annotated] = 0.0
    return DecodedPose(h.joint_set, coords, scores, annotated)


_HEADER = struct.Struct("<4sIIII4d2dI")


def save_heatmap(h: Heatmap, path) -> None:
    k, height, width = h.values.shape
    name = h.joint_set.encode("utf-8")
    header = _HEADER.pack(
        _MAGIC, _VERSION, k, height, width,
        *h.crop, *h.strides, len(name),
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(name)
        f.write(np.ascontiguousarray(h.values, dtype="<f4").tobytes())


def load_heatmap(path) -> Heatmap:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < _HEADER.size:
        raise PoseError("truncated heatmap header", path=path)
    magic, version, k, height, width, cx, cy, cw, ch, sx, sy, name_len = \
        _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise PoseError(f"bad heatmap magic {magic!r}", path=path)
    if version != _VERSION:
        raise PoseError(f"unsupported heatmap version {version}", path=path)
    off = _HEADER.size
    if len(blob) < off + name_len:
        raise PoseError("truncated heatmap joint-set name", path=path)
    try:
        name = blob[off:off + name_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PoseError(f"heatmap joint-set name is not UTF-8: {exc}", path=path) from None
    off += name_len
    need = k * height * width * 4
    if len(blob) != off + need:
        raise PoseError(
            f"heatmap payload is {len(blob) - off} bytes, expected {need}",
            path=path,
        )
    values = np.frombuffer(blob, dtype="<f4", count=k * height * width, offset=off)
    return Heatmap(values.reshape(k, height, width).copy(), name, (cx, cy, cw, ch), (sx, sy))
