"""Per-joint score grids: Gaussian target rendering, smoothing, flip-merging,
sub-pixel decoding, and the .pkhm binary container.

Coordinate conventions (part of the golden-file contract):

* Grid coordinates place integer values on cell centers: grid x = 3.0 is the
  center of column 3. ``render_target`` takes keypoints in grid coordinates.
* A grid point maps to image pixels as ``x_img = crop_x + (gx + 0.5) * stride_x``
  (cell-center convention), so decoded cell p lands mid-cell in the image.
* Un-mirroring a flipped-input prediction reverses the W axis, then shifts one
  cell toward +x (column 0 duplicated), then swaps paired channels. The
  transform undoes itself on every column but 0.
"""

from __future__ import annotations

import functools
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import PoseError
from .skeletons import JointSet, get_joint_set

_MAGIC = b"PKHM"
_VERSION = 1
_TINY = float(np.finfo(float).tiny)   # the smallest normal float


@dataclass
class Heatmap:
    """K per-joint score grids plus the geometry linking grid to image space.

    Made with a check of every rule: values are (K, H, W), at least 3 x 3,
    with K the joint set's count, and finite; strides finite and positive;
    the crop finite. Finiteness is one ``isfinite(values).all()`` pass: a
    map is rejected exactly when a cell is NaN or +-inf, and a map of finite
    values whose sum overflows is accepted without a warning.
    """

    values: np.ndarray          # (K, H, W) float32
    joint_set: JointSet         # a registered name is resolved when made
    crop: tuple = (0.0, 0.0, None, None)   # (x, y, w, h) in image pixels
    strides: tuple = (1.0, 1.0)            # (stride_x, stride_y)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.values.ndim != 3:
            raise PoseError(f"heatmap values must be (K, H, W), got {self.values.shape}")
        k, h, w = self.values.shape
        if h < 3 or w < 3:
            raise PoseError("heatmap grid must be at least 3x3")
        self.joint_set = get_joint_set(self.joint_set)
        if k != self.joint_set.count:
            raise PoseError(f"heatmap has {k} channels but joint set "
                            f"{self.joint_set.name!r} has {self.joint_set.count}")
        if not np.isfinite(self.values).all():
            raise PoseError("heatmap values must be finite")
        self.strides = (float(self.strides[0]), float(self.strides[1]))
        if not all(0 < s < math.inf for s in self.strides):
            raise PoseError(f"heatmap strides must be finite and positive, got {self.strides}")
        x, y, cw, ch = self.crop
        if cw is None:
            cw = float(w) * self.strides[0]
        if ch is None:
            ch = float(h) * self.strides[1]
        self.crop = (float(x), float(y), float(cw), float(ch))
        if not all(map(math.isfinite, self.crop)):
            raise PoseError(f"heatmap crop must be finite, got {self.crop}")

    def _derive(self, values: np.ndarray, joint_set: JointSet = None) -> "Heatmap":
        """A map on this map's crop and strides, built without the check:
        values is float32, C-contiguous, (K, H, W) for joint_set (by default
        this map's), and comes from checked finite maps through averages,
        convex combinations and gathers, so every rule already holds."""
        out = object.__new__(Heatmap)
        out.__dict__ = {"values": values, "joint_set": joint_set or self.joint_set,
                        "crop": self.crop, "strides": self.strides}
        return out

    def grid_to_image(self, gxy: np.ndarray) -> np.ndarray:
        """Map (..., 2) grid xy to image pixels, cell-center convention."""
        out = np.add(gxy, 0.5, dtype=np.float64)
        out *= self.strides
        out += self.crop[:2]
        return out


@dataclass
class DecodedPose:
    """Per-joint image-pixel locations with peak scores."""

    joint_set: JointSet     # a registered name is resolved when made
    coords: np.ndarray      # (K, 2) image xy
    scores: np.ndarray      # (K,)
    annotated: np.ndarray   # (K,) bool

    def __post_init__(self):
        self.joint_set = get_joint_set(self.joint_set)


def check_render_sigma(sigma: float) -> None:
    """Raise unless sigma is finite and positive with a normal finite 2 sigma^2,
    so :func:`render_target` divides by no zero and draws no flat bump."""
    if not (0 < sigma < math.inf and _TINY <= 2.0 * sigma * sigma < math.inf):
        raise PoseError(f"render sigma must be finite and positive with a finite "
                        f"2 sigma^2 >= {_TINY!r}, got {sigma!r}")


def render_target(joints, sigma: float, size, joint_set="merged",
                  annotated=None, crop=(0.0, 0.0, None, None), strides=(1.0, 1.0)):
    """Render one Gaussian bump per joint on an (H, W) grid.

    joints: (K, 2) keypoints in grid coordinates (x, y) of joint_set (a
    JointSet or a registered name). Channel k holds
    exp(-((x - x_k)^2 + (y - y_k)^2) / (2 sigma^2)) per cell; a keypoint on a
    cell center peaks at exactly 1.0 there. Joints outside the grid (nearest
    cell out of bounds) and joints already masked out get an all-zero channel
    and a 0 mask bit.

    Returns (Heatmap, mask) where mask is the (K,) bool annotation mask.
    """
    check_render_sigma(sigma)
    h, w = int(size[0]), int(size[1])
    joints = np.asarray(joints, dtype=np.float64).reshape(-1, 2)
    k = joints.shape[0]
    joint_set = get_joint_set(joint_set)
    if k != joint_set.count:
        raise PoseError(f"{k} keypoints given for joint set {joint_set.name!r}")
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
    hm = Heatmap(values.astype(np.float32), joint_set, crop, strides)
    return hm, mask


@functools.lru_cache(maxsize=16)
def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = int(math.ceil(3.0 * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(t * t) / (2.0 * sigma * sigma))
    k /= k.sum()
    k.flags.writeable = False
    return k


@functools.lru_cache(maxsize=64)
def _reflect_index(n: int, r: int) -> np.ndarray:
    """Source cell of each cell of an axis of n cells padded by r on both
    sides, symmetric-reflect (also for r > n, where np.pad reflects again)."""
    idx = np.pad(np.arange(n), r, mode="symmetric")
    idx.flags.writeable = False
    return idx


def check_smooth_sigma(sigma_filter: float) -> None:
    """Raise unless sigma_filter is 0, or at most 100 and positive with a
    2 sigma^2 that is a normal float: :func:`smooth`'s kernel then divides by
    no zero, overflows nowhere and has at most 601 taps (radius 300)."""
    if sigma_filter != 0 and not (0 < sigma_filter <= 100
                                  and 2.0 * sigma_filter * sigma_filter >= _TINY):
        raise PoseError(f"smoothing sigma must be 0, or at most 100 and "
                        f"positive with 2 sigma^2 >= {_TINY!r}, got {sigma_filter!r}")


def smooth(h: Heatmap, sigma_filter: float) -> Heatmap:
    """Per-channel convolution with a normalized truncated Gaussian
    (radius = ceil(3 sigma)), symmetric-reflect padding. sigma_filter = 0 is
    the identity. Channel mass is preserved.

    Each axis is padded by one cached index gather, with that axis outermost,
    so each tap is one contiguous block, and summed tap by tap, from zero, in
    float64: the bits of an ``np.pad`` and ``out += k * window`` loop
    (``0.0 + (-0.0)`` is ``0.0``, so the zero start is kept).
    """
    check_smooth_sigma(sigma_filter)
    if sigma_filter == 0:
        return h
    kernel = _gaussian_kernel(sigma_filter)
    r = len(kernel) // 2

    def taps(values):   # the kernel along axis 0
        n = len(values)
        padded = values[_reflect_index(n, r)].astype(np.float64, copy=False)
        out, tmp = np.zeros(values.shape), np.empty(values.shape)
        for t, kt in enumerate(kernel):
            out += np.multiply(kt, padded[t:t + n], out=tmp)
        return out

    out = taps(h.values.transpose(1, 0, 2))    # (H, K, W)
    out = taps(out.transpose(2, 0, 1))         # (W, H, K)
    return h._derive(np.ascontiguousarray(out.transpose(2, 1, 0), dtype=np.float32))


@functools.lru_cache(maxsize=64)
def _unmirror_source(js: JointSet, height: int, width: int) -> np.ndarray:
    """Flat index into a (K, H, W) array of the cell each un-mirrored cell
    copies: the flip-pair channel swap composed with the column index
    [W-1, W-1, W-2, ..., 1] (W reversed, then shifted one cell toward +x)."""
    channel = np.arange(js.count)
    for a, b in js.flip_pairs:
        channel[a], channel[b] = b, a
    column = np.r_[width - 1, width - 1:0:-1]
    src = (channel[:, None, None] * height + np.arange(height)[:, None]) * width + column
    src.flags.writeable = False
    return src


def _unmirrored(h: Heatmap, rows) -> np.ndarray:
    """Rows (channels) of ``unmirror(h).values``, in one gather."""
    return h.values.take(_unmirror_source(h.joint_set, *h.values.shape[1:])[rows])


def unmirror(h_flipped: Heatmap) -> Heatmap:
    """Undo a horizontal input flip on a network output: reverse W, shift one
    cell toward +x (duplicating column 0), swap the joint set's left/right
    paired channels.
    """
    return h_flipped._derive(_unmirrored(h_flipped, slice(None)))


def check_flip_pair(h: Heatmap, h_flipped_input: Heatmap) -> None:
    """Raise unless a prediction and its flipped-input prediction have one
    shape and one joint set, as :func:`flip_merge` needs."""
    if h.values.shape != h_flipped_input.values.shape:
        raise PoseError(
            f"flip_merge shape mismatch: {h.values.shape} vs {h_flipped_input.values.shape}"
        )
    if h.joint_set != h_flipped_input.joint_set:
        raise PoseError("flip_merge joint-set mismatch")


def flip_merge(h: Heatmap, h_flipped_input: Heatmap, rows) -> Heatmap:
    """``h`` with its channels ``rows`` averaged with the un-mirrored
    prediction for the flipped input (in float64, cast once to float32);
    every other channel is ``h``'s own. Only ``rows`` are un-mirrored."""
    check_flip_pair(h, h_flipped_input)
    merged = h.values[rows].astype(np.float64)
    merged += _unmirrored(h_flipped_input, rows)
    merged /= 2.0
    values = h.values.copy()
    values[rows] = merged
    return h._derive(values)


def peaks(channels: np.ndarray, use_quarter_offset: bool = True):
    """Argmax cell of each (H, W) channel of a (K, H, W) array.

    Returns ((K, 2) grid xy, (K,) values at the argmax cells). With quarter
    offsets on, an interior peak shifts each axis 0.25 cell toward the larger
    of its two neighbors (no shift on exact ties); border peaks never shift.

    One flat argmax picks the cells, and one flat gather reads the x and y
    neighbors of the interior peaks. The shift is 0.25 times
    ``(hi > lo) - (lo > hi)``, worked out from the two comparisons, never
    from ``hi - lo``, which overflows for neighbors near +-finfo.max.
    """
    k, height, width = channels.shape
    flat = channels.reshape(k, -1)
    best = flat.argmax(axis=1)
    py, px = np.divmod(best, width)
    gxy = np.stack([px, py], axis=1).astype(np.float64)
    if use_quarter_offset:
        i = np.flatnonzero((0 < px) & (px < width - 1) & (0 < py) & (py < height - 1))
        at = i * (height * width) + best[i]
        near = flat.take(at[:, None] + np.array([-1, -width, 1, width]))
        lo, hi = near[:, :2], near[:, 2:]   # (x - 1, y - 1) and (x + 1, y + 1)
        gxy[i] += np.subtract(hi > lo, lo > hi, dtype=np.int8) * 0.25
    return gxy, flat[np.arange(k), best]


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
    missing = ~annotated
    coords[missing] = 0.0
    scores[missing] = 0.0
    return DecodedPose(h.joint_set, coords, scores, annotated)


_HEADER = struct.Struct("<4sIIII4d2dI")


def save_heatmap(h: Heatmap, path) -> None:
    k, height, width = h.values.shape
    name = h.joint_set.name.encode("utf-8")
    header = _HEADER.pack(
        _MAGIC, _VERSION, k, height, width,
        *h.crop, *h.strides, len(name),
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(name)
        f.write(np.ascontiguousarray(h.values, dtype="<f4").tobytes())


def load_heatmap(path) -> Heatmap:
    with io.FileIO(path) as f:
        blob = f.readall()
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
    try:
        return Heatmap(values.reshape(k, height, width).copy(), name, (cx, cy, cw, ch), (sx, sy))
    except PoseError as exc:
        raise PoseError(exc.message, path=path) from None
