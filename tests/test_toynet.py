import json
import struct

import numpy as np
import pytest

from posepipe import PoseError
from posepipe.skeletons import get_joint_set
from posepipe.toynet import (
    NetConfig,
    _conv3x3_backward,
    _im2col,
    forward,
    gradients,
    init_network,
    load_network,
    loss_l2_masked,
    loss_ohkm,
    save_network,
    sgd_step,
)

from oracles import (
    numeric_gradient,
    reference_conv3x3_backward,
    reference_gradients,
    reference_im2col,
)

SMALL = NetConfig(in_channels=1, hidden=3, height=8, width=6,
                  domains=("coco", "mpii"))


class FakeSample:
    def __init__(self, rng, domain, k, height=8, width=6, mask=None):
        self.domain = domain
        self.input = rng.normal(size=(1, height, width))
        self.target = rng.random((k, height, width))
        self.mask = np.ones(k, bool) if mask is None else mask


def small_batch(seed=0, masks=None):
    rng = np.random.default_rng(seed)
    batch = [FakeSample(rng, "coco", 17), FakeSample(rng, "mpii", 16),
             FakeSample(rng, "coco", 17)]
    if masks is not None:
        for s, m in zip(batch, masks):
            s.mask = m
    return batch


def test_forward_zero_parameters_zero_output():
    net = init_network(SMALL, seed=0)
    for name in net.params:
        net.params[name][:] = 0.0
    out, _ = forward(net, np.random.default_rng(0).normal(size=(2, 1, 8, 6)))
    assert not out["coco"].any() and not out["mpii"].any()


def test_forward_head_independence():
    net = init_network(SMALL, seed=1)
    x = np.random.default_rng(2).normal(size=(1, 1, 8, 6))
    base, _ = forward(net, x)
    net2 = net.copy()
    net2.params["head.mpii.w"] += 0.5
    net2.params["head.mpii.b"] += 0.1
    out, _ = forward(net2, x)
    assert np.array_equal(out["coco"], base["coco"])
    assert not np.array_equal(out["mpii"], base["mpii"])


def test_forward_head_linearity():
    net = init_network(SMALL, seed=3)
    for d in SMALL.domains:
        net.params[f"head.{d}.b"][:] = 0.0
    x = np.random.default_rng(4).normal(size=(1, 1, 8, 6))
    base, _ = forward(net, x)
    net.params["head.coco.w"] *= 2.0
    out, _ = forward(net, x)
    assert np.allclose(out["coco"], 2.0 * base["coco"])


def test_forward_shape_mismatch():
    net = init_network(SMALL, seed=0)
    with pytest.raises(PoseError):
        forward(net, np.zeros((1, 1, 9, 6)))


def test_loss_l2_masked_examples():
    pred = np.zeros((3, 4, 4))
    target = np.zeros((3, 4, 4))
    mask = np.ones(3, bool)
    assert loss_l2_masked(pred, target, mask) == 0.0

    target[0] = 0.5   # constant error 0.5 on one annotated joint
    assert loss_l2_masked(pred, target, [True, False, False]) == pytest.approx(0.25)

    target[1] = 100.0   # huge error on a masked joint contributes nothing
    assert loss_l2_masked(pred, target, [True, False, True]) == pytest.approx(0.125)

    assert loss_l2_masked(pred, target, np.zeros(3, bool)) == 0.0


def test_loss_ohkm_examples():
    k = 21
    pred = np.zeros((k, 4, 4))
    target = np.zeros((k, 4, 4))
    mask = np.ones(k, bool)
    # equal per-joint losses: top-k mean equals the plain mean
    target[:] = 0.3
    assert loss_ohkm(pred, target, mask, 8) == pytest.approx(
        loss_l2_masked(pred, target, mask))
    # one joint with loss 1, the rest 0, k = 8 -> 1/8
    target[:] = 0.0
    target[4] = 1.0
    assert loss_ohkm(pred, target, mask, 8) == pytest.approx(1.0 / 8.0)
    # k >= number of annotated joints degenerates to masked L2
    rng = np.random.default_rng(5)
    target = rng.random((k, 4, 4))
    assert loss_ohkm(pred, target, mask, 50) == pytest.approx(
        loss_l2_masked(pred, target, mask))


def test_ohkm_at_least_l2():
    rng = np.random.default_rng(6)
    for _ in range(50):
        k = int(rng.integers(2, 22))
        pred = rng.random((k, 5, 4))
        target = rng.random((k, 5, 4))
        mask = rng.random(k) > 0.3
        if not mask.any():
            continue
        kk = int(rng.integers(1, 10))
        assert loss_ohkm(pred, target, mask, kk) >= \
            loss_l2_masked(pred, target, mask) - 1e-12


def _batch_loss(net, batch, loss, k=8):
    out, _ = forward(net, np.stack([s.input for s in batch]))
    total = 0.0
    for i, s in enumerate(batch):
        if loss == "l2":
            total += loss_l2_masked(out[s.domain][i], s.target, s.mask)
        else:
            total += loss_ohkm(out[s.domain][i], s.target, s.mask, k)
    return total / len(batch)


@pytest.mark.parametrize("loss", ["l2", "ohkm"])
def test_gradients_match_finite_differences(loss):
    net = init_network(SMALL, seed=7)
    rng = np.random.default_rng(8)
    masks = [rng.random(17) > 0.2, rng.random(16) > 0.2, rng.random(17) > 0.2]
    batch = small_batch(seed=9, masks=masks)
    grads, _ = gradients(net, batch, loss, 8)
    numeric = numeric_gradient(lambda: _batch_loss(net, batch, loss), net.params)
    for name, g in grads.items():
        scale = max(np.abs(numeric[name]).max(), 1e-8)
        rel = np.abs(numeric[name] - g).max() / scale
        assert rel <= 1e-4, (name, rel)


def test_gradients_zero_for_absent_head():
    net = init_network(SMALL, seed=10)
    rng = np.random.default_rng(11)
    batch = [FakeSample(rng, "coco", 17)]
    grads, _ = gradients(net, batch, "l2")
    assert not grads["head.mpii.w"].any()
    assert not grads["head.mpii.b"].any()
    assert grads["head.coco.w"].any()


def test_gradients_zero_for_frozen_blocks():
    net = init_network(SMALL, seed=12)
    net.set_frozen({"backbone.conv1", "head.coco"})
    grads, _ = gradients(net, small_batch(13), "l2")
    assert not grads["backbone.conv1.w"].any()
    assert not grads["head.coco.b"].any()
    assert grads["backbone.conv2.w"].any()


def test_gradients_zero_for_fully_masked_batch():
    net = init_network(SMALL, seed=14)
    masks = [np.zeros(17, bool), np.zeros(16, bool), np.zeros(17, bool)]
    grads, loss = gradients(net, small_batch(15, masks), "l2")
    assert loss == 0.0
    assert all(not g.any() for g in grads.values())


def test_gradients_empty_batch_rejected():
    net = init_network(SMALL, seed=0)
    with pytest.raises(PoseError):
        gradients(net, [], "l2")


def test_sgd_step_respects_freeze():
    net = init_network(SMALL, seed=16)
    net.set_frozen({"backbone.conv1"})
    before = {k: v.copy() for k, v in net.params.items()}
    grads, _ = gradients(net, small_batch(17), "l2")
    sgd_step(net, grads, 0.5)
    assert np.array_equal(net.params["backbone.conv1.w"], before["backbone.conv1.w"])
    assert np.array_equal(net.params["backbone.conv1.b"], before["backbone.conv1.b"])
    assert not np.array_equal(net.params["backbone.conv2.w"], before["backbone.conv2.w"])


def test_set_frozen_validates_names():
    net = init_network(SMALL, seed=0)
    with pytest.raises(PoseError):
        net.set_frozen({"head.nope"})


def test_checkpoint_round_trip(tmp_path):
    cfg = NetConfig(in_channels=2, hidden=5, height=10, width=8,
                    domains=("posetrack",), dilation=2)
    net = init_network(cfg, seed=18)
    net.set_frozen({"head.posetrack"})
    path = tmp_path / "net.pknp"
    save_network(net, path)
    again = load_network(path)
    assert again.config == cfg
    assert again.frozen == net.frozen
    for name, p in net.params.items():
        assert np.array_equal(again.params[name], p)
    save_network(again, tmp_path / "net2.pknp")
    assert (tmp_path / "net.pknp").read_bytes() == (tmp_path / "net2.pknp").read_bytes()


def test_checkpoint_truncation(tmp_path):
    net = init_network(SMALL, seed=19)
    path = tmp_path / "net.pknp"
    save_network(net, path)
    blob = path.read_bytes()
    (tmp_path / "bad.pknp").write_bytes(blob[:-16])
    with pytest.raises(PoseError):
        load_network(tmp_path / "bad.pknp")


def _spoil_manifest(case, manifest: bytes) -> bytes:
    doc = json.loads(manifest)
    if case == "not JSON":
        return b"{" + manifest
    if case == "not UTF-8":
        return b"\xff" + manifest[1:]
    if case == "no config":
        del doc["config"]
    elif case == "misspelt frozen":
        doc["frozn"] = doc.pop("frozen")
    elif case == "frozen not a list of strings":
        doc["frozen"] = ["backbone.conv1", 2]
    elif case == "not an object":
        doc = [doc]
    else:   # params not a list
        doc["params"] = {"backbone.conv1.w": [3, 1, 3, 3]}
    return json.dumps(doc).encode("utf-8")


@pytest.mark.parametrize("case", ["not JSON", "not UTF-8", "length past the end",
                                  "no config", "params not a list", "misspelt frozen",
                                  "frozen not a list of strings", "not an object"])
def test_load_network_rejects_malformed_manifest(tmp_path, case):
    path = tmp_path / "net.pknp"
    save_network(init_network(SMALL, seed=19), path)
    blob = path.read_bytes()
    head = struct.Struct("<4sII")
    magic, version, mlen = head.unpack_from(blob)
    manifest, payload = blob[head.size:head.size + mlen], blob[head.size + mlen:]
    if case == "length past the end":
        mlen = len(blob)
    else:
        manifest = _spoil_manifest(case, manifest)
        mlen = len(manifest)
    path.write_bytes(head.pack(magic, version, mlen) + manifest + payload)
    with pytest.raises(PoseError):
        load_network(path)


def test_dilated_conv_gradients():
    cfg = NetConfig(in_channels=1, hidden=2, height=9, width=7,
                    domains=("posetrack",), dilation=2)
    net = init_network(cfg, seed=20)
    rng = np.random.default_rng(21)

    class S:
        domain = "posetrack"
        input = rng.normal(size=(1, 9, 7))
        target = rng.random((15, 9, 7))
        mask = np.ones(15, bool)

    batch = [S()]
    grads, _ = gradients(net, batch, "l2")

    def loss():
        out, _ = forward(net, np.stack([batch[0].input]))
        return loss_l2_masked(out["posetrack"][0], batch[0].target, batch[0].mask)

    numeric = numeric_gradient(loss, net.params)
    for name, g in grads.items():
        scale = max(np.abs(numeric[name]).max(), 1e-8)
        assert np.abs(numeric[name] - g).max() / scale <= 1e-4


# The shortcuts of the fast paths must give the reference's bits exactly.
_SHAPES = [(dilation, c, bsz) for dilation in (1, 2) for c in (1, 2) for bsz in (1, 3, 8)]


@pytest.mark.parametrize("dilation, in_channels, bsz", _SHAPES)
def test_im2col_is_bit_equal_to_reference(dilation, in_channels, bsz):
    x = np.random.default_rng(bsz).normal(size=(bsz, in_channels, 8, 6))
    assert _im2col(x, dilation).tobytes() == reference_im2col(x, dilation).tobytes()


@pytest.mark.parametrize("dilation, in_channels, bsz", _SHAPES)
def test_conv3x3_backward_is_bit_equal_to_reference(dilation, in_channels, bsz):
    rng = np.random.default_rng(bsz)
    cols = reference_im2col(rng.normal(size=(bsz, in_channels, 8, 6)), dilation)
    w = rng.normal(size=(4, in_channels, 3, 3))
    gout = rng.normal(size=(bsz, 4, 8, 6))
    want = reference_conv3x3_backward(cols, w, gout, dilation)
    for weights in (True, False):
        for inputs in (True, False):
            got = _conv3x3_backward(cols, w, gout, dilation, weights, inputs)
            for g, ref, needed in zip(got, want, (weights, weights, inputs)):
                assert g.tobytes() == ref.tobytes() if needed else g is None


_FROZEN = [(), ("backbone.conv1",), ("backbone.conv2",),
           ("backbone.conv1", "backbone.conv2"),
           ("backbone.conv1", "backbone.conv2", "head.{first}")]


def _oracle_batch(kind, bsz, in_channels, seed):
    """(domains of the net, batch) for a single-domain, mixed or merged-only
    batch with random masks."""
    rng = np.random.default_rng(seed)
    domains = {"single": ("coco", "mpii"), "mixed": ("coco", "mpii", "posetrack"),
               "merged": ("merged",)}[kind]
    batch = []
    for i in range(bsz):
        d = domains[i % len(domains)] if kind == "mixed" else domains[0]
        k = get_joint_set(d).count
        s = FakeSample(rng, d, k, mask=rng.random(k) > 0.2)
        s.input = rng.normal(size=(in_channels, 8, 6))
        batch.append(s)
    return domains, batch


@pytest.mark.parametrize("loss", ["l2", "ohkm"])
@pytest.mark.parametrize("kind", ["single", "mixed", "merged"])
@pytest.mark.parametrize("frozen", _FROZEN, ids=lambda f: "+".join(f) or "none")
def test_gradients_are_bit_equal_to_reference(frozen, kind, loss):
    for dilation, in_channels, bsz in ((1, 1, 8), (2, 2, 3), (1, 2, 1)):
        domains, batch = _oracle_batch(kind, bsz, in_channels, seed=bsz)
        cfg = NetConfig(in_channels=in_channels, hidden=3, height=8, width=6,
                        domains=domains, dilation=dilation)
        net = init_network(cfg, seed=bsz)
        net.set_frozen({b.format(first=domains[0]) for b in frozen})
        grads, value = gradients(net, batch, loss, 4)
        want, want_value = reference_gradients(net, batch, loss, 4)
        assert value == want_value
        assert grads.keys() == want.keys()
        for name, g in grads.items():
            assert g.tobytes() == want[name].tobytes(), name
