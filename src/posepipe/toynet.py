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
    xp = np.pad(x, ((0, 0), (0, 0), (d, d), (d, d)))
    cols = np.empty((bsz, c, 9, h * w))
    i = 0
    for dy in (0, d, 2 * d):
        for dx in (0, d, 2 * d):
            cols[:, :, i] = xp[:, :, dy:dy + h, dx:dx + w].reshape(bsz, c, -1)
            i += 1
    return cols.reshape(bsz, c * 9, h * w)


def _conv3x3(cols, w, b, shape):
    """Same-padding 3x3 convolution from an _im2col matrix."""
    bsz, h, wd = shape
    out = np.matmul(w.reshape(w.shape[0], -1), cols)
    return out.reshape(bsz, w.shape[0], h, wd) + b[None, :, None, None]


def _conv3x3_backward(cols, w, gout, dilation: int = 1):
    """Gradients (dw, db, dx) of _conv3x3 given upstream gout."""
    bsz, _, h, wd = gout.shape
    c = w.shape[1]
    d = dilation
    gm = gout.reshape(bsz, w.shape[0], h * wd)
    dw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    db = gout.sum(axis=(0, 2, 3))
    dcols = np.matmul(w.reshape(w.shape[0], -1).T, gm).reshape(bsz, c, 9, h * wd)
    dxp = np.zeros((bsz, c, h + 2 * d, wd + 2 * d))
    i = 0
    for dy in (0, d, 2 * d):
        for dx in (0, d, 2 * d):
            dxp[:, :, dy:dy + h, dx:dx + wd] += dcols[:, :, i].reshape(bsz, c, h, wd)
            i += 1
    return dw, db, dxp[:, :, d:-d, d:-d]


def forward(net: ToyNetwork, x, domains=None):
    """Run every (or the selected) head from the shared backbone feature.

    x is (B, C, H, W) or a single (C, H, W) sample. Returns (outputs, cache)
    where outputs maps domain -> (B, K_d, H, W).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 3
    if single:
        x = x[None]
    cfg = net.config
    if x.shape[1:] != (cfg.in_channels, cfg.height, cfg.width):
        raise PoseError(
            f"input shape {x.shape[1:]} does not match configured "
            f"({cfg.in_channels}, {cfg.height}, {cfg.width})"
        )
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
    if single:
        outputs = {d: o[0] for d, o in outputs.items()}
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
    from the batch come back as exact zeros.
    """
    if not batch:
        raise PoseError("batch must be non-empty")
    cfg = net.config
    x = np.stack([np.asarray(s.input, dtype=np.float64) for s in batch])
    outputs, cache = forward(net, x)
    bsz = len(batch)
    hw = cfg.height * cfg.width

    grads = {name: np.zeros_like(p) for name, p in net.params.items()}
    dfeat = np.zeros_like(cache["feat"])
    total_loss = 0.0
    for i, sample in enumerate(batch):
        d = sample.domain
        if d not in cfg.domains:
            raise PoseError(f"network has no head for domain {d!r}")
        pred = outputs[d][i]
        target = np.asarray(_values(sample.target), dtype=np.float64)
        per_joint = np.mean((pred - target) ** 2, axis=(1, 2))
        sel, wgt = _select_joints(per_joint, sample.mask, loss, ohkm_k)
        if sel.size == 0:
            continue
        total_loss += per_joint[sel].sum() * wgt
        dout = np.zeros_like(pred)
        dout[sel] = (2.0 * wgt / (hw * bsz)) * (pred[sel] - target[sel])
        w_head = net.params[f"head.{d}.w"]
        dout_flat = dout.reshape(dout.shape[0], -1)
        feat_flat = cache["feat"][i].reshape(cfg.hidden, -1)
        grads[f"head.{d}.w"] += dout_flat @ feat_flat.T
        grads[f"head.{d}.b"] += dout.sum(axis=(1, 2))
        dfeat[i] = (w_head.T @ dout_flat).reshape(cfg.hidden, cfg.height, cfg.width)

    p = net.params
    dw2, db2, da1 = _conv3x3_backward(cache["cols_a1"], p["backbone.conv2.w"], dfeat,
                                      cfg.dilation)
    dz1 = da1 * (1.0 - cache["a1"] ** 2)
    dw1, db1, _ = _conv3x3_backward(cache["cols_x"], p["backbone.conv1.w"], dz1)
    grads["backbone.conv1.w"] = dw1
    grads["backbone.conv1.b"] = db1
    grads["backbone.conv2.w"] = dw2
    grads["backbone.conv2.b"] = db2

    for block in net.frozen:
        grads[f"{block}.w"] = np.zeros_like(grads[f"{block}.w"])
        grads[f"{block}.b"] = np.zeros_like(grads[f"{block}.b"])
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
    if not isinstance(manifest, dict):
        raise PoseError("checkpoint manifest must be a JSON object", path=path)
    config = NetConfig(**checked(NetConfig, manifest.get("config"), "checkpoint config"))
    like = init_network(config).params   # the names and shapes the config gives
    names = sorted(like)
    if manifest.get("params") != [{"name": n, "shape": list(like[n].shape)} for n in names]:
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
    frozen = manifest.get("frozen", [])
    if not (isinstance(frozen, list) and all(isinstance(b, str) for b in frozen)):
        raise PoseError("checkpoint frozen must be a list of block names", path=path)
    net = ToyNetwork(config, params)
    net.set_frozen(frozen)
    return net
