"""A small trainable heatmap network: shared 2-layer conv backbone with a
1x1-conv prediction head per domain, written directly in numpy with manual
backpropagation.

Parameters live in a flat dict keyed ``backbone.conv1.w``, ``head.coco.b``,
etc.; the freeze mask names whole blocks (``backbone.conv1``, ``head.coco``).
Masked joints contribute neither loss nor gradient, and heads of domains
absent from a batch receive exactly zero gradient.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import PoseError, checked
from .skeletons import get_joint_set

_CKPT_MAGIC = b"PKNP"
_CKPT_VERSION = 1


@dataclass(frozen=True)
class NetConfig:
    in_channels: int = 1
    hidden: int = 16
    height: int = 32
    width: int = 24
    domains: tuple[str, ...] = ("coco", "mpii", "posetrack")
    dilation: int = 1   # dilation of the second 3x3 conv (receptive-field knob)

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        for name in ("in_channels", "hidden", "height", "width", "dilation"):
            v = getattr(self, name)
            if v < 1:
                raise PoseError(f"net {name} must be >= 1, got {v!r}")
        for d in self.domains:
            get_joint_set(d)

    def blocks(self) -> list:
        """Parameter block names: the two backbone convs, then a head per domain."""
        return ["backbone.conv1", "backbone.conv2"] + [f"head.{d}" for d in self.domains]


@dataclass
class ToyNetwork:
    config: NetConfig
    params: dict
    frozen: set = field(default_factory=set)

    def blocks(self):
        return self.config.blocks()

    def set_frozen(self, blocks) -> None:
        unknown = set(blocks) - set(self.blocks())
        if unknown:
            raise PoseError(f"unknown parameter blocks {sorted(unknown)}")
        self.frozen = set(blocks)


def param_shapes(config: NetConfig) -> dict:
    """Name -> shape of every parameter of a ``config`` network, in the order
    ``init_network`` draws them; nothing is allocated."""
    c_in, c_h = config.in_channels, config.hidden
    shapes = {"backbone.conv1.w": (c_h, c_in, 3, 3), "backbone.conv1.b": (c_h,),
              "backbone.conv2.w": (c_h, c_h, 3, 3), "backbone.conv2.b": (c_h,)}
    for d in config.domains:
        k = get_joint_set(d).count
        shapes[f"head.{d}.w"], shapes[f"head.{d}.b"] = (k, c_h), (k,)
    return shapes


def init_network(config: NetConfig = NetConfig(), seed: int = 0) -> ToyNetwork:
    """Xavier-style initialization, deterministic in the seed: each weight is
    drawn with standard deviation sqrt(1 / fan-in), each bias is zero."""
    if seed < 0:
        raise PoseError(f"network seed must be >= 0, got {seed}")
    rng = np.random.default_rng([seed, 0x706b])
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0, (1.0 / math.prod(shape[1:])) ** 0.5, shape)
    return ToyNetwork(config, params)


@functools.lru_cache(maxsize=64)
def _taps(h: int, w: int, d: int) -> tuple:
    """The 9 taps of a same-padded 3x3 conv of dilation d on an h x w grid, in
    im2col order, as (lo, hi, s, wrap) over the flattened grid.

    Output cell p in [lo, hi) reads input cell p + s. Cells outside [lo, hi)
    and the grid columns ``wrap``, whose flat shift wraps into a neighbouring
    row, read the zero padding. A tap whose shift leaves the grid has
    lo == hi == 0.
    """
    taps = []
    for dy in (-d, 0, d):
        for dx in (-d, 0, d):
            if abs(dy) >= h or abs(dx) >= w:
                taps.append((0, 0, 0, slice(0, 0)))
                continue
            s = dy * w + dx
            wrap = slice(w - dx, w) if dx > 0 else slice(0, -dx)
            taps.append((max(-s, 0), min(h * w - s, h * w), s, wrap))
    return tuple(taps)


def _im2col(x, dilation: int = 1):
    """(B, C, H, W) -> (B, C*9, H*W) patch matrix for a same-padded 3x3 conv:
    each tap's row is one flat shifted copy of the unpadded input."""
    bsz, c, h, w = x.shape
    hw = h * w
    xf = x.reshape(bsz, c, hw)
    cols = np.empty((bsz, c, 9, h, w))
    flat = cols.reshape(bsz, c, 9, hw)
    for i, (lo, hi, s, wrap) in enumerate(_taps(h, w, dilation)):
        flat[:, :, i, :lo] = 0.0
        flat[:, :, i, lo:hi] = xf[:, :, lo + s:hi + s]
        flat[:, :, i, hi:] = 0.0
        cols[:, :, i, :, wrap] = 0.0
    return flat.reshape(bsz, c * 9, hw)


def _conv3x3(cols, w, b, shape):
    """Same-padding 3x3 convolution from an _im2col matrix."""
    bsz, h, wd = shape
    out = np.matmul(w.reshape(w.shape[0], -1), cols)
    out += b[:, None]
    return out.reshape(bsz, w.shape[0], h, wd)


def _conv3x3_backward(cols, w, gout, dilation: int = 1, weights: bool = True,
                      inputs: bool = True):
    """Gradients (dw, db, dx) of _conv3x3 given upstream gout; dw and db are
    None unless weights is set, dx is None unless inputs is set."""
    bsz, _, h, wd = gout.shape
    c = w.shape[1]
    gm = gout.reshape(bsz, w.shape[0], h * wd)
    dw = db = dx = None
    if weights:
        dw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        db = gout.sum(axis=(0, 2, 3))
    del cols   # when this was the last reference, dcols can reuse its memory
    if inputs:
        # col2im: 9 flat shifted adds, in im2col's tap order, over the whole
        # flattened batch, into an accumulator that starts at +0.0. Each cell
        # that im2col fills from padding is zeroed first, since its shifted
        # add lands in a neighbouring row or plane or in the margin; adding
        # +0.0 to a sum that starts at +0.0 changes no bit.
        dcols = np.matmul(w.reshape(w.shape[0], -1).T, gm).reshape(bsz * c, 9, h, wd)
        flat = dcols.reshape(bsz * c, 9, h * wd)
        taps = _taps(h, wd, dilation)
        n, m = bsz * c * h * wd, max(abs(s) for _, _, s, _ in taps)
        acc = np.zeros(n + 2 * m)
        for i, (lo, hi, s, wrap) in enumerate(taps):
            if lo == hi:
                continue
            flat[:, i, :lo] = 0.0
            flat[:, i, hi:] = 0.0
            dcols[:, i, :, wrap] = 0.0
            shifted = acc[m + s:m + s + n].reshape(bsz * c, h * wd)
            shifted += flat[:, i]
        dx = acc[m:m + n].reshape(bsz, c, h, wd)
    return dw, db, dx


def _head(net: ToyNetwork, domain: str):
    """The (w, b) of ``domain``'s head; PoseError if the net has none."""
    if domain not in net.config.domains:
        raise PoseError(f"network has no head for domain {domain!r}")
    return net.params[f"head.{domain}.w"], net.params[f"head.{domain}.b"]


def forward(net: ToyNetwork, x, domains=None):
    """Run every (or the selected) head from the shared backbone feature.

    x is a (B, C, H, W) batch. Returns (outputs, cache) where outputs maps
    domain -> (B, K_d, H, W).
    """
    x = np.asarray(x, dtype=np.float64)
    cfg = net.config
    if x.ndim != 4 or x.shape[1:] != (cfg.in_channels, cfg.height, cfg.width):
        raise PoseError(f"input shape {x.shape} is not a (B, {cfg.in_channels}, "
                        f"{cfg.height}, {cfg.width}) batch")
    p = net.params
    shape = (x.shape[0], cfg.height, cfg.width)
    cols_x = _im2col(x)
    z1 = _conv3x3(cols_x, p["backbone.conv1.w"], p["backbone.conv1.b"], shape)
    a1 = np.tanh(z1, out=z1)
    cols_a1 = _im2col(a1, cfg.dilation)
    feat = _conv3x3(cols_a1, p["backbone.conv2.w"], p["backbone.conv2.b"], shape)
    feat_flat = feat.reshape(x.shape[0], cfg.hidden, -1)
    outputs = {}
    for d in (domains if domains is not None else cfg.domains):
        w, b = _head(net, d)
        out = np.matmul(w, feat_flat)
        out += b[:, None]
        outputs[d] = out.reshape(x.shape[0], -1, cfg.height, cfg.width)
    cache = {"cols_x": cols_x, "cols_a1": cols_a1, "a1": a1, "feat": feat}
    return outputs, cache


def _per_joint_mse(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise PoseError(f"pred/target shape mismatch: {pred.shape} vs {target.shape}")
    return np.mean((pred - target) ** 2, axis=(1, 2))


def check_loss(loss: str, ohkm_k: int) -> None:
    """Raise unless loss is "l2" or "ohkm" and ohkm_k is >= 1."""
    if loss not in ("l2", "ohkm"):
        raise PoseError(f"unknown loss {loss!r}")
    if ohkm_k < 1:
        raise PoseError("ohkm k must be >= 1")


def _select_joints(per_joint, mask, loss: str, ohkm_k: int):
    """Indices entering the loss and their common averaging weight, for a
    loss that ``check_loss`` passes."""
    ann = np.flatnonzero(np.asarray(mask, dtype=bool))
    if ann.size == 0:
        return ann, 0.0
    if loss == "l2":
        return ann, 1.0 / ann.size
    kk = min(ohkm_k, ann.size)
    order = ann[np.argsort(-per_joint[ann], kind="stable")]
    return order[:kk], 1.0 / kk


def loss_l2_masked(pred, target, mask) -> float:
    """Mean over annotated joints of the per-joint mean squared error."""
    per_joint = _per_joint_mse(pred, target)
    sel, wgt = _select_joints(per_joint, mask, "l2", 0)
    return float(per_joint[sel].sum() * wgt) if sel.size else 0.0


def loss_ohkm(pred, target, mask, k: int = 8) -> float:
    """Mean of the min(k, #annotated) largest per-joint squared errors."""
    check_loss("ohkm", k)
    per_joint = _per_joint_mse(pred, target)
    sel, wgt = _select_joints(per_joint, mask, "ohkm", k)
    return float(per_joint[sel].sum() * wgt) if sel.size else 0.0


def gradients(net: ToyNetwork, batch, loss: str = "l2", ohkm_k: int = 8):
    """Exact analytic gradients of the mean batch loss.

    batch items need .domain, .input (C, H, W), .target (K, H, W), .mask (K,).
    Returns (grads, loss_value); frozen blocks and heads of domains absent
    from the batch come back as exact zeros. Each head runs only on its own
    domain's samples, and the backward pass stops at the shallowest
    trainable backbone block.
    """
    check_loss(loss, ohkm_k)
    if not batch:
        raise PoseError("batch must be non-empty")
    cfg = net.config
    x = np.stack([np.asarray(s.input, dtype=np.float64) for s in batch])
    _, cache = forward(net, x, ())
    bsz = len(batch)
    hw = cfg.height * cfg.width
    feat = cache["feat"].reshape(bsz, cfg.hidden, hw)
    train1 = "backbone.conv1" not in net.frozen
    train2 = "backbone.conv2" not in net.frozen

    grads = {name: np.zeros_like(p) for name, p in net.params.items()}
    dfeat = np.zeros_like(feat) if train1 or train2 else None
    terms = [None] * bsz   # each sample's loss, summed in batch order at the end
    for d in dict.fromkeys(s.domain for s in batch):
        w, b = _head(net, d)
        rows = [i for i, s in enumerate(batch) if s.domain == d]
        pred = np.matmul(w, feat[rows])
        pred += b[:, None]
        target = np.stack([np.asarray(batch[i].target, dtype=np.float64) for i in rows])
        diff = pred.reshape(len(rows), -1, cfg.height, cfg.width) - target
        per_joint = np.mean(diff ** 2, axis=(2, 3))
        dout = np.zeros_like(diff)
        kept = []   # rows of the group whose sample has a selected joint
        for j, i in enumerate(rows):
            sel, wgt = _select_joints(per_joint[j], batch[i].mask, loss, ohkm_k)
            if sel.size:
                terms[i] = per_joint[j][sel].sum() * wgt
                dout[j, sel] = (2.0 * wgt / (hw * bsz)) * diff[j, sel]
                kept.append(j)
        if not kept:
            continue
        at = [rows[j] for j in kept]
        dout = dout[kept].reshape(len(kept), -1, hw)
        if f"head.{d}" not in net.frozen:
            for g in np.matmul(dout, feat[at].transpose(0, 2, 1)):
                grads[f"head.{d}.w"] += g
            for g in dout.sum(axis=2):
                grads[f"head.{d}.b"] += g
        if dfeat is not None:
            dfeat[at] = np.matmul(w.T, dout)

    if dfeat is not None:
        p = net.params
        # cols_a1 is handed over, not kept: the backward pass frees it before
        # it allocates the same-sized dcols, which lowers the step's peak
        # memory by one im2col matrix (7 MB at batch 8).
        dw2, db2, da1 = _conv3x3_backward(
            cache.pop("cols_a1"), p["backbone.conv2.w"], dfeat.reshape(cache["feat"].shape),
            cfg.dilation, weights=train2, inputs=train1)
        if train2:
            grads["backbone.conv2.w"], grads["backbone.conv2.b"] = dw2, db2
        if train1:
            dz1 = np.square(cache["a1"])   # da1 * (1 - a1**2), in one buffer
            np.subtract(1.0, dz1, out=dz1)
            np.multiply(da1, dz1, out=dz1)
            grads["backbone.conv1.w"], grads["backbone.conv1.b"], _ = _conv3x3_backward(
                cache["cols_x"], p["backbone.conv1.w"], dz1, inputs=False)
    total_loss = 0.0
    for t in terms:
        if t is not None:
            total_loss += t
    return grads, float(total_loss / bsz)


def sgd_step(net: ToyNetwork, grads, lr: float) -> None:
    """Plain SGD on every non-frozen block; frozen blocks stay bit-identical."""
    for block in net.blocks():
        if block in net.frozen:
            continue
        for suffix in ("w", "b"):
            name = f"{block}.{suffix}"
            net.params[name] -= lr * grads[name]


def save_network(net: ToyNetwork, path) -> None:
    """Binary checkpoint: header, JSON manifest, then raw float64 blocks."""
    names = sorted(net.params)
    manifest = json.dumps({
        "config": dataclasses.asdict(net.config),
        "frozen": sorted(net.frozen),
        "params": [{"name": n, "shape": list(net.params[n].shape)} for n in names],
    }).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<4sII", _CKPT_MAGIC, _CKPT_VERSION, len(manifest)))
        f.write(manifest)
        for n in names:
            f.write(np.ascontiguousarray(net.params[n], dtype="<f8").tobytes())


def checkpoint_manifest(config: dict, frozen: tuple[str, ...], params: list) -> tuple:
    """A checkpoint manifest record: (NetConfig, parameter records, frozen
    block names)."""
    return NetConfig(**checked(NetConfig, config, "checkpoint config")), params, frozen


def load_network(path) -> ToyNetwork:
    """The network of a ``save_network`` checkpoint; PoseError if malformed,
    every one naming the file."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return _parse_checkpoint(blob)
    except PoseError as exc:
        raise PoseError(exc.message, path=path) from None


def _parse_checkpoint(blob: bytes) -> ToyNetwork:
    """The network a checkpoint's bytes hold."""
    head = struct.Struct("<4sII")
    if len(blob) < head.size:
        raise PoseError("truncated checkpoint")
    magic, version, mlen = head.unpack_from(blob, 0)
    if magic != _CKPT_MAGIC or version != _CKPT_VERSION:
        raise PoseError("not a network checkpoint")
    off = head.size + mlen
    if len(blob) < off:
        raise PoseError("truncated checkpoint manifest")
    try:
        manifest = json.loads(blob[head.size:off].decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # not UTF-8, not JSON, or too deep
        raise PoseError(f"checkpoint manifest is not JSON: {exc}") from exc
    config, records, frozen = checkpoint_manifest(
        **checked(checkpoint_manifest, manifest, "checkpoint manifest"))
    shapes = param_shapes(config)
    names = sorted(shapes)
    if records != [{"name": n, "shape": list(shapes[n])} for n in names]:
        raise PoseError("checkpoint params do not match its config")
    sizes = [math.prod(shapes[n]) for n in names]
    if len(blob) < off + 8 * sum(sizes):   # sized before anything is allocated
        raise PoseError("truncated checkpoint payload")
    if len(blob) > off + 8 * sum(sizes):
        raise PoseError("trailing bytes in checkpoint")
    params = {}
    for n, size in zip(names, sizes):
        params[n] = np.frombuffer(blob, dtype="<f8", count=size,
                                  offset=off).reshape(shapes[n]).copy()
        off += 8 * size
    net = ToyNetwork(config, params)
    net.set_frozen(frozen)
    return net
