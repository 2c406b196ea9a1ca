import json

import numpy as np
import pytest

from posepipe import PoseError
from posepipe.synthetic import DEFAULT_DOMAINS, gen_synthetic
from posepipe.toynet import NetConfig, init_network, save_network
from posepipe.training import (
    Stage,
    TrainSchedule,
    heldout_error,
    staged_schedule,
    mixed_schedule,
    multi_domain_schedule,
    single_domain_schedule,
    train,
    transfer_schedule,
)

from oracles import reference_gradients, reference_heldout_error, reference_im2col

CFG = NetConfig(in_channels=1, hidden=4, height=32, width=24)


@pytest.fixture(scope="module")
def tiny_data():
    return {d: gen_synthetic(DEFAULT_DOMAINS[d], 12, seed=5)
            for d in ("coco", "mpii", "posetrack")}


@pytest.fixture(scope="module")
def tiny_heldout():
    return {"posetrack": gen_synthetic(DEFAULT_DOMAINS["posetrack"], 4, seed=99)}


def test_presets_have_expected_shapes():
    s = staged_schedule(steps=(600, 90, 120))
    assert [st.steps for st in s.stages] == [500, 100, 90, 120]
    assert s.stages[0].loss == "l2" and s.stages[1].loss == "ohkm"
    assert s.stages[3].trainable == ("head.mpii", "head.posetrack")
    assert single_domain_schedule("coco", 600).stages[0].domains == ("coco",)
    assert len(multi_domain_schedule(steps=600).stages) == 2
    assert len(transfer_schedule("coco", "posetrack").stages) == 3
    assert mixed_schedule(steps=60).stages[0].domains == ("coco", "mpii", "posetrack")


def test_bad_schedules_rejected():
    with pytest.raises(PoseError):
        TrainSchedule([])
    with pytest.raises(PoseError):
        Stage("x", ("coco",), loss="hinge")
    with pytest.raises(PoseError):
        staged_schedule(primary="nonexistent")


def test_training_is_bit_reproducible(tiny_data):
    sched = multi_domain_schedule(steps=12, lr=1.0)
    a, _ = train(sched, tiny_data, seed=3, config=CFG)
    b, _ = train(sched, tiny_data, seed=3, config=CFG)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    c, _ = train(sched, tiny_data, seed=4, config=CFG)
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_staged_freeze_contract(tiny_data):
    # run the first three stages alone, then the full schedule with the same
    # seed: the final stage must leave backbone and primary head bit-identical
    full = staged_schedule(steps=(12, 4, 6), lr=1.0)
    prefix = TrainSchedule(full.stages[:3])
    after3, _ = train(prefix, tiny_data, seed=7, config=CFG)
    final, _ = train(full, tiny_data, seed=7, config=CFG)
    for name in ("backbone.conv1.w", "backbone.conv1.b",
                 "backbone.conv2.w", "backbone.conv2.b",
                 "head.coco.w", "head.coco.b"):
        assert np.array_equal(after3.params[name], final.params[name]), name
    assert not np.array_equal(after3.params["head.posetrack.w"],
                              final.params["head.posetrack.w"])


def test_missing_dataset_rejected(tiny_data):
    sched = multi_domain_schedule(("coco", "mpii", "posetrack"), steps=4)
    with pytest.raises(PoseError):
        train(sched, {"coco": tiny_data["coco"]}, seed=0, config=CFG)


def test_unknown_trainable_block_rejected_before_any_step(tiny_data, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before every stage was checked")
    monkeypatch.setattr("posepipe.training.gradients", no_step)
    sched = TrainSchedule([Stage("s", ("coco",), ("head.nope",), steps=3)])
    with pytest.raises(PoseError, match="head.nope"):
        train(sched, tiny_data, seed=0, config=CFG)


def test_missing_dataset_for_a_later_stage_reported_before_training(tiny_data,
                                                                    monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before every stage was checked")
    monkeypatch.setattr("posepipe.training.gradients", no_step)
    sched = TrainSchedule([Stage("first", ("coco",), steps=2),
                           Stage("second", ("mpii",), steps=2)])
    with pytest.raises(PoseError, match="mpii"):
        train(sched, {"coco": tiny_data["coco"]}, seed=0, config=CFG)


def test_heldout_logging(tiny_data, tiny_heldout, tmp_path):
    sched = multi_domain_schedule(steps=6, lr=1.0)
    log_path = tmp_path / "log.jsonl"
    _, log = train(sched, tiny_data, seed=1, config=CFG, heldout=tiny_heldout,
                   log_path=log_path)
    assert all("heldout" in e for e in log)
    # one entry per stage: stage 0 runs 5 steps, stage 1 runs 1 step
    assert [e["step"] for e in log] == [5, 1]
    lines = [json.loads(l) for l in log_path.read_text().splitlines()]
    assert lines == log


def test_heldout_error_references(tiny_data, tiny_heldout):
    sched = single_domain_schedule("posetrack", steps=4, lr=1.0)
    net, _ = train(sched, tiny_data, seed=2, config=CFG)
    ann = heldout_error(net, tiny_heldout["posetrack"], "annotation")
    tru = heldout_error(net, tiny_heldout["posetrack"], "truth")
    assert ann > 0 and tru > 0
    with pytest.raises(PoseError):
        heldout_error(net, tiny_heldout["posetrack"], "oracle")
    with pytest.raises(PoseError):
        heldout_error(net, [])
    with pytest.raises(PoseError, match="unknown reference 'oracle'"):
        heldout_error(net, [], "oracle")


def test_mixed_training_with_merged_head(tiny_data):
    cfg = NetConfig(in_channels=1, hidden=4, height=32, width=24,
                    domains=("merged",))
    sched = mixed_schedule(steps=6, lr=1.0)
    net, _ = train(sched, tiny_data, seed=3, config=cfg)
    assert net.params["head.merged.w"].shape[0] == 21


def test_mixed_training_zero_gradient_to_unannotated_joints(tiny_data):
    # a merged-head batch from one domain must not touch the head rows of
    # joints that domain never annotates
    from posepipe.skeletons import builtin_joint_set, mapping
    from posepipe.synthetic import project_to_merged
    from posepipe.toynet import gradients, init_network

    cfg = NetConfig(in_channels=1, hidden=4, height=32, width=24,
                    domains=("merged",))
    net = init_network(cfg, seed=4)
    batch = [project_to_merged(s) for s in tiny_data["mpii"][:3]]
    grads, _ = gradients(net, batch, "l2")
    merged = builtin_joint_set("merged")
    covered = {j for _, j in mapping("mpii", "merged").index_map}
    for j in range(merged.count):
        row = grads["head.merged.w"][j]
        if j in covered:
            assert row.any()
        else:
            assert not row.any()
            assert grads["head.merged.b"][j] == 0.0


@pytest.fixture(scope="module")
def mixed_heldout():
    """17 held-out samples, the three domains interleaved."""
    per_domain = [gen_synthetic(DEFAULT_DOMAINS[d], 6, seed=77)
                  for d in ("coco", "mpii", "posetrack")]
    return [s for trio in zip(*per_domain) for s in trio][:17]


@pytest.mark.parametrize("reference", ["annotation", "truth"])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 17])
def test_chunked_heldout_error_is_bit_equal_to_reference(mixed_heldout, n, reference):
    samples = mixed_heldout[:n]
    for net in (init_network(NetConfig(), seed=n),
                init_network(NetConfig(domains=("merged",)), seed=n)):
        assert heldout_error(net, samples, reference) == \
            reference_heldout_error(net, samples, reference)


def test_staged_checkpoint_bytes_match_reference_gradients(monkeypatch, tmp_path,
                                                           mixed_heldout):
    # the fast gradients (fewer heads, shallower backward, window im2col)
    # against the reference ones patched in: the same checkpoint, byte for byte
    data = {d: gen_synthetic(DEFAULT_DOMAINS[d], 16, seed=5)
            for d in ("coco", "mpii", "posetrack")}

    def run(name):
        net, _ = train(staged_schedule(steps=(16, 4, 4)), data, seed=0)
        save_network(net, tmp_path / name)
        return net, (tmp_path / name).read_bytes()

    fast_net, fast = run("fast.pknp")
    monkeypatch.setattr("posepipe.training.gradients", reference_gradients)
    monkeypatch.setattr("posepipe.toynet._im2col", reference_im2col)
    _, slow = run("reference.pknp")
    assert fast == slow
    assert heldout_error(fast_net, mixed_heldout) == \
        reference_heldout_error(fast_net, mixed_heldout)
