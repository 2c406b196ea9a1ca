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
import json
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    def head_channels(self, domain: str) -> int:
        return get_joint_set(domain).count

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

    def copy(self) -> "ToyNetwork":
        return ToyNetwork(self.config, {k: v.copy() for k, v in self.params.items()},
                          set(self.frozen))


def init_network(config: NetConfig = NetConfig(), seed: int = 0) -> ToyNetwork:
    """Xavier-style initialization, deterministic in the seed."""
    rng = np.random.default_rng([seed, 0x706b])
    c_in, c_h = config.in_channels, config.hidden
    params = {
        "backbone.conv1.w": rng.normal(0, (1.0 / (c_in * 9)) ** 0.5, (c_h, c_in, 3, 3)),
        "backbone.conv1.b": np.zeros(c_h),
        "backbone.conv2.w": rng.normal(0, (1.0 / (c_h * 9)) ** 0.5, (c_h, c_h, 3, 3)),
        "backbone.conv2.b": np.zeros(c_h),
    }
    for d in config.domains:
        k = config.head_channels(d)
        params[f"head.{d}.w"] = rng.normal(0, (1.0 / c_h) ** 0.5, (k, c_h))
        params[f"head.{d}.b"] = np.zeros(k)
    return ToyNetwork(config, params)


def _im2col(x, dilation: int = 1):
    """(B, C, H, W) -> (B, C*9, H*W) patch matrix for a same-padded 3x3 conv."""
    bsz, c, h, w = x.shape
    d = dilation
    xp = np.zeros((bsz, c, h + 2 * d, w + 2 * d))
    xp[:, :, d:d + h, d:d + w] = x
    win = sliding_window_view(xp, (2 * d + 1, 2 * d + 1), axis=(2, 3))[..., ::d, ::d]
    return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(bsz, c * 9, h * w)


def _conv3x3(cols, w, b, shape):
    """Same-padding 3x3 convolution from an _im2col matrix."""
    bsz, h, wd = shape
    out = np.matmul(w.reshape(w.shape[0], -1), cols)
    return out.reshape(bsz, w.shape[0], h, wd) + b[None, :, None, None]


def _conv3x3_backward(cols, w, gout, dilation: int = 1, weights: bool = True,
                      inputs: bool = True):
    """Gradients (dw, db, dx) of _conv3x3 given upstream gout; dw and db are
    None unless weights is set, dx is None unless inputs is set."""
    bsz, _, h, wd = gout.shape
    c = w.shape[1]
    d = dilation
    gm = gout.reshape(bsz, w.shape[0], h * wd)
    dw = db = dx = None
    if weights:
        dw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        db = gout.sum(axis=(0, 2, 3))
    if inputs:
        dcols = np.matmul(w.reshape(w.shape[0], -1).T, gm).reshape(bsz, c, 9, h * wd)
        dxp = np.zeros((bsz, c, h + 2 * d, wd + 2 * d))
        i = 0
        for oy in (0, d, 2 * d):
            for ox in (0, d, 2 * d):
                dxp[:, :, oy:oy + h, ox:ox + wd] += dcols[:, :, i].reshape(bsz, c, h, wd)
                i += 1
        dx = dxp[:, :, d:-d, d:-d]
    return dw, db, dx


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
    a1 = np.tanh(z1)
    cols_a1 = _im2col(a1, cfg.dilation)
    feat = _conv3x3(cols_a1, p["backbone.conv2.w"], p["backbone.conv2.b"], shape)
    feat_flat = feat.reshape(x.shape[0], cfg.hidden, -1)
    outputs = {}
    for d in (domains if domains is not None else cfg.domains):
        if d not in cfg.domains:
            raise PoseError(f"network has no head for domain {d!r}")
        out = np.matmul(p[f"head.{d}.w"], feat_flat).reshape(
            x.shape[0], -1, cfg.height, cfg.width)
        outputs[d] = out + p[f"head.{d}.b"][None, :, None, None]
    cache = {"cols_x": cols_x, "cols_a1": cols_a1, "a1": a1, "feat": feat}
    return outputs, cache


def _values(arr):
    return arr.values if hasattr(arr, "values") else np.asarray(arr, dtype=np.float64)


def _per_joint_mse(pred, target):
    pred = _values(pred).astype(np.float64)
    target = _values(target).astype(np.float64)
    if pred.shape != target.shape:
        raise PoseError(f"pred/target shape mismatch: {pred.shape} vs {target.shape}")
    return np.mean((pred - target) ** 2, axis=(1, 2))


def _select_joints(per_joint, mask, loss: str, ohkm_k: int):
    """Indices entering the loss and their common averaging weight."""
    ann = np.flatnonzero(np.asarray(mask, dtype=bool))
    if ann.size == 0:
        return ann, 0.0
    if loss == "l2":
        return ann, 1.0 / ann.size
    if loss == "ohkm":
        if ohkm_k < 1:
            raise PoseError("ohkm k must be >= 1")
        kk = min(ohkm_k, ann.size)
        order = ann[np.argsort(-per_joint[ann], kind="stable")]
        return order[:kk], 1.0 / kk
    raise PoseError(f"unknown loss {loss!r}")


def loss_l2_masked(pred, target, mask) -> float:
    """Mean over annotated joints of the per-joint mean squared error."""
    per_joint = _per_joint_mse(pred, target)
    sel, wgt = _select_joints(per_joint, mask, "l2", 0)
    return float(per_joint[sel].sum() * wgt) if sel.size else 0.0


def loss_ohkm(pred, target, mask, k: int = 8) -> float:
    """Mean of the min(k, #annotated) largest per-joint squared errors."""
    per_joint = _per_joint_mse(pred, target)
    sel, wgt = _select_joints(per_joint, mask, "ohkm", k)
    return float(per_joint[sel].sum() * wgt) if sel.size else 0.0


def gradients(net: ToyNetwork, batch, loss: str = "l2", ohkm_k: int = 8):
    """Exact analytic gradients of the mean batch loss.

    batch items need .domain, .input (C, H, W), .target (K, H, W), .mask (K,).
    Returns (grads, loss_value); frozen blocks and heads of domains absent
    from the batch come back as exact zeros. Only the heads of the batch's
    domains run, and the backward pass stops at the shallowest trainable
    backbone block.
    """
    if not batch:
        raise PoseError("batch must be non-empty")
    cfg = net.config
    present = {s.domain for s in batch}
    unknown = sorted(present - set(cfg.domains))
    if unknown:
        raise PoseError(f"network has no head for domain {unknown[0]!r}")
    x = np.stack([np.asarray(s.input, dtype=np.float64) for s in batch])
    outputs, cache = forward(net, x, [d for d in cfg.domains if d in present])
    bsz = len(batch)
    hw = cfg.height * cfg.width
    train1 = "backbone.conv1" not in net.frozen
    train2 = "backbone.conv2" not in net.frozen

    grads = {name: np.zeros_like(p) for name, p in net.params.items()}
    dfeat = np.zeros_like(cache["feat"]) if train1 or train2 else None
    total_loss = 0.0
    for i, sample in enumerate(batch):
        d = sample.domain
        pred = outputs[d][i]
        target = np.asarray(_values(sample.target), dtype=np.float64)
        per_joint = np.mean((pred - target) ** 2, axis=(1, 2))
        sel, wgt = _select_joints(per_joint, sample.mask, loss, ohkm_k)
        if sel.size == 0:
            continue
        total_loss += per_joint[sel].sum() * wgt
        dout = np.zeros_like(pred)
        dout[sel] = (2.0 * wgt / (hw * bsz)) * (pred[sel] - target[sel])
        dout_flat = dout.reshape(dout.shape[0], -1)
        if f"head.{d}" not in net.frozen:
            feat_flat = cache["feat"][i].reshape(cfg.hidden, -1)
            grads[f"head.{d}.w"] += dout_flat @ feat_flat.T
            grads[f"head.{d}.b"] += dout.sum(axis=(1, 2))
        if dfeat is not None:
            dfeat[i] = (net.params[f"head.{d}.w"].T @ dout_flat).reshape(
                cfg.hidden, cfg.height, cfg.width)

    if dfeat is not None:
        p = net.params
        dw2, db2, da1 = _conv3x3_backward(cache["cols_a1"], p["backbone.conv2.w"], dfeat,
                                          cfg.dilation, weights=train2, inputs=train1)
        if train2:
            grads["backbone.conv2.w"], grads["backbone.conv2.b"] = dw2, db2
        if train1:
            dz1 = da1 * (1.0 - cache["a1"] ** 2)
            grads["backbone.conv1.w"], grads["backbone.conv1.b"], _ = _conv3x3_backward(
                cache["cols_x"], p["backbone.conv1.w"], dz1, inputs=False)
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
    """The network of a ``save_network`` checkpoint; PoseError if malformed."""
    with open(path, "rb") as f:
        blob = f.read()
    head = struct.Struct("<4sII")
    if len(blob) < head.size:
        raise PoseError("truncated checkpoint", path=path)
    magic, version, mlen = head.unpack_from(blob, 0)
    if magic != _CKPT_MAGIC or version != _CKPT_VERSION:
        raise PoseError("not a network checkpoint", path=path)
    off = head.size + mlen
    if len(blob) < off:
        raise PoseError("truncated checkpoint manifest", path=path)
    try:
        manifest = json.loads(blob[head.size:off].decode("utf-8"))
    except ValueError as exc:   # not UTF-8, or not JSON
        raise PoseError(f"checkpoint manifest is not JSON: {exc}", path=path) from exc
    config, records, frozen = checkpoint_manifest(
        **checked(checkpoint_manifest, manifest, "checkpoint manifest"))
    like = init_network(config).params   # the names and shapes the config gives
    names = sorted(like)
    if records != [{"name": n, "shape": list(like[n].shape)} for n in names]:
        raise PoseError("checkpoint params do not match its config", path=path)
    params = {}
    for n in names:
        if len(blob) < off + like[n].nbytes:
            raise PoseError("truncated checkpoint payload", path=path)
        params[n] = np.frombuffer(blob, dtype="<f8", count=like[n].size,
                                  offset=off).reshape(like[n].shape).copy()
        off += like[n].nbytes
    if off != len(blob):
        raise PoseError("trailing bytes in checkpoint", path=path)
    net = ToyNetwork(config, params)
    net.set_frozen(frozen)
    return net
