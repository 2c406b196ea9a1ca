"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criterion 6 is implemented exactly as stated and is expected to fail
on this architecture; see the README's benchmark notes.
"""

import dataclasses
import functools
import json
import math
import time

import numpy as np
import pytest

from oracles import (
    assignment_total,
    brute_force_assignment,
    numeric_gradient,
    reference_greedy_nms,
)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {number:2d} FAIL: {title} ({exc})")
                raise
            print(f"ACCEPTANCE {number:2d} PASS: {title}"
                  + (f" [{detail}]" if detail else ""))
        return run
    return wrap


@criterion(1, "Hungarian matches the permutation brute force on 1000 matrices, < 5 s")
def test_criterion_1_assignment_optimality():
    from posepipe.assignment import solve_hungarian

    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for trial in range(1000):
        r = int(rng.integers(1, 8))
        c = int(rng.integers(1, 8))
        if trial % 2:
            cost = rng.integers(0, 9, (r, c)).astype(float)
        else:
            cost = np.round(rng.normal(size=(r, c)) * 4, 3)
        got = solve_hungarian(cost)
        want, want_total = brute_force_assignment(cost)
        assert got == want, (cost, got, want)
        assert assignment_total(cost, got) == pytest.approx(want_total, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    return f"{elapsed:.2f}s"


@criterion(2, "OKS-NMS and box NMS match exhaustive references on 500+ cases each")
def test_criterion_2_nms_oracles():
    from posepipe import builtin_joint_set
    from posepipe.instances import InstanceStack, PersonInstance
    from posepipe.suppression import OksConstants, box_ious, box_nms, oks, oks_nms

    js = builtin_joint_set("posetrack")
    consts = OksConstants.for_joint_set("posetrack")
    rng = np.random.default_rng(102)

    for _ in range(500):
        n = int(rng.integers(1, 9))
        instances = []
        for _ in range(n):
            instances.append(PersonInstance(
                box=(0, 0, rng.uniform(5, 30), rng.uniform(5, 30)),
                box_score=1.0,
                coords=rng.uniform(0, 25, (js.count, 2)),
                scores=rng.uniform(0, 1, js.count),
                annotated=rng.random(js.count) > 0.2,
                joint_set="posetrack",
                score=float(rng.random()),
            ))
        thr = float(rng.uniform(0.05, 1.0))
        rows = [InstanceStack.of(js, [p]) for p in instances]
        sims = np.array([[oks(rows[i], rows[j], consts)[0, 0]
                          for j in range(n)] for i in range(n)])
        want = reference_greedy_nms(sims, [p.score for p in instances], thr)
        assert oks_nms(InstanceStack.of(js, instances), thr, consts) == want

    for _ in range(500):
        n = int(rng.integers(1, 9))
        boxes = np.column_stack([rng.uniform(0, 12, n), rng.uniform(0, 12, n),
                                 rng.uniform(1, 8, n), rng.uniform(1, 8, n)])
        scores = rng.random(n)
        thr = float(rng.uniform(0.05, 1.0))
        ious = np.array([[box_ious(boxes[i], boxes[j])[0, 0] for j in range(n)]
                         for i in range(n)])
        want = reference_greedy_nms(ious, scores, thr)
        assert box_nms(boxes, scores, thr) == want
    return "500 + 500 cases"


@criterion(3, "decode(render(sigma 9)) within 0.5 cells; quarter offsets help")
def test_criterion_3_decode_fidelity():
    from posepipe.heatmaps import decode, render_target
    from posepipe.skeletons import JointSet, get_joint_set, register_joint_set
    from posepipe.errors import PoseError

    try:
        get_joint_set("single")
    except PoseError:
        register_joint_set(JointSet("single", ("joint",)))

    rng = np.random.default_rng(103)
    height, width = 48, 40
    errs_on, errs_off = [], []
    for _ in range(1000):
        gx = rng.uniform(2.0, width - 3.0)
        gy = rng.uniform(2.0, height - 3.0)
        hm, _ = render_target([[gx, gy]], 9.0, (height, width), joint_set="single")
        for use_quarter, sink in ((True, errs_on), (False, errs_off)):
            d = decode(hm, smooth_sigma=1.0, use_quarter_offset=use_quarter)
            ex = d.coords[0, 0] - 0.5 - gx
            ey = d.coords[0, 1] - 0.5 - gy
            sink.append(math.hypot(ex, ey))
    assert max(errs_on) <= 0.5, max(errs_on)
    assert np.mean(errs_off) > np.mean(errs_on)
    return (f"max {max(errs_on):.3f} cells; mean {np.mean(errs_on):.3f} with vs "
            f"{np.mean(errs_off):.3f} without offsets")


@criterion(4, "analytic gradients match finite differences to 1e-4, < 30 s")
def test_criterion_4_gradient_correctness():
    from posepipe.skeletons import get_joint_set
    from posepipe.toynet import (
        NetConfig, forward, gradients, init_network, loss_l2_masked, loss_ohkm,
    )

    start = time.perf_counter()
    rng = np.random.default_rng(104)
    domain_pool = ("coco", "mpii", "posetrack")
    for config_index in range(10):
        domains = tuple(rng.choice(domain_pool,
                                   size=int(rng.integers(1, 3)), replace=False))
        cfg = NetConfig(
            in_channels=int(rng.integers(1, 3)),
            hidden=int(rng.integers(2, 4)),
            height=int(rng.integers(5, 8)),
            width=int(rng.integers(4, 7)),
            domains=domains,
            dilation=int(rng.integers(1, 3)),
        )
        net = init_network(cfg, seed=int(rng.integers(0, 10_000)))

        class S:
            pass

        batch = []
        for _ in range(int(rng.integers(1, 4))):
            s = S()
            s.domain = domains[int(rng.integers(0, len(domains)))]
            s.input = rng.normal(size=(cfg.in_channels, cfg.height, cfg.width))
            k = get_joint_set(s.domain).count
            s.target = rng.random((k, cfg.height, cfg.width))
            s.mask = rng.random(k) > 0.25
            batch.append(s)

        loss = ("l2", "ohkm")[config_index % 2]

        def batch_loss():
            out, _ = forward(net, np.stack([s.input for s in batch]))
            total = 0.0
            for i, s in enumerate(batch):
                if loss == "l2":
                    total += loss_l2_masked(out[s.domain][i], s.target, s.mask)
                else:
                    total += loss_ohkm(out[s.domain][i], s.target, s.mask, 8)
            return total / len(batch)

        grads, _ = gradients(net, batch, loss, 8)
        numeric = numeric_gradient(batch_loss, net.params)
        for name, g in grads.items():
            scale = max(np.abs(numeric[name]).max(), 1e-8)
            rel = np.abs(numeric[name] - g).max() / scale
            assert rel <= 1e-4, (config_index, loss, name, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    return f"10 configs, both losses, {elapsed:.1f}s"


@criterion(5, "staged freeze contract and exact zero gradients for absent heads")
def test_criterion_5_schedule_contract():
    from posepipe.synthetic import DEFAULT_DOMAINS, gen_synthetic
    from posepipe.toynet import NetConfig, gradients, init_network
    from posepipe.training import TrainSchedule, staged_schedule, train

    cfg = NetConfig(in_channels=1, hidden=4)
    data = {d: gen_synthetic(DEFAULT_DOMAINS[d], 10, seed=5)
            for d in ("coco", "mpii", "posetrack")}
    full = staged_schedule(steps=(18, 6, 8), lr=1.0)
    prefix = TrainSchedule(full.stages[:3])   # everything before the frozen stage
    after_ft, _ = train(prefix, data, seed=11, config=cfg)
    final, _ = train(full, data, seed=11, config=cfg)
    for name in ("backbone.conv1.w", "backbone.conv1.b", "backbone.conv2.w",
                 "backbone.conv2.b", "head.coco.w", "head.coco.b"):
        assert np.array_equal(after_ft.params[name], final.params[name]), name
    assert not np.array_equal(after_ft.params["head.posetrack.w"],
                              final.params["head.posetrack.w"])

    net = init_network(cfg, seed=12)
    batch_samples = data["mpii"][:4]
    grads, _ = gradients(net, batch_samples, "ohkm", 8)
    assert not grads["head.coco.w"].any()
    assert not grads["head.coco.b"].any()
    assert not grads["head.posetrack.w"].any()
    assert grads["head.mpii.w"].any()
    return "frozen blocks bit-identical; absent heads exactly zero"


@pytest.mark.slow
@criterion(6, "multi-domain schedule beats target-only and no-fine-tune baselines")
def test_criterion_6_directional_benefit():
    from posepipe.benchmark import run_benchmark

    start = time.perf_counter()
    result = run_benchmark()
    elapsed = time.perf_counter() - start
    summary = {k: round(v, 3) for k, v in result.summary().items()}
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    assert result.mean("staged") < result.mean("target-only"), summary
    assert result.mean("staged") < result.mean("multi-domain-no-ft"), summary
    return f"{summary}, {elapsed:.0f}s"


@criterion(7, "fusion identities: vote == single decode; head-swap touches only heads")
def test_criterion_7_fusion_identities():
    from posepipe import builtin_joint_set
    from posepipe.fusion import BranchOutputs, fuse_head_swap, fuse_select, fuse_vote
    from posepipe.heatmaps import decode, render_target
    from posepipe.skeletons import mapping

    rng = np.random.default_rng(107)
    merged = builtin_joint_set("merged")
    grid = (16, 12)
    pts = np.column_stack([rng.uniform(2, grid[1] - 3, merged.count),
                           rng.uniform(2, grid[0] - 3, merged.count)])

    def branch(name):
        m = mapping("merged", name)
        k = builtin_joint_set(name).count
        kp = np.zeros((k, 2))
        for mi, di in m.index_map:
            kp[di] = pts[mi]
        hm, _ = render_target(kp, 1.5, grid, joint_set=name)
        return hm

    b = BranchOutputs({n: branch(n) for n in ("coco", "mpii", "posetrack")})

    vote = fuse_vote(b, "posetrack", smooth_sigma=1.0)
    single = decode(b["posetrack"], smooth_sigma=1.0)
    assert np.array_equal(vote.coords, single.coords)
    assert np.array_equal(vote.scores, single.scores)
    assert np.array_equal(vote.annotated, single.annotated)

    swap = fuse_head_swap(b, "coco", "mpii", "posetrack", smooth_sigma=1.0)
    select = fuse_select(b, "coco", "posetrack", smooth_sigma=1.0)
    pt = builtin_joint_set("posetrack")
    head = {pt.index("head_top"), pt.index("head_bottom")}
    differs = []
    for i in range(pt.count):
        same = (np.array_equal(swap.coords[i], select.coords[i])
                and swap.scores[i] == select.scores[i]
                and swap.annotated[i] == select.annotated[i])
        if not same:
            differs.append(i)
        if i not in head:
            assert same, pt.joints[i]
    assert set(differs) <= head
    return "exact equality on all joints checked"


@criterion(8, "metrics sanity: perfect = 100, swap scenario = 90, injections reduce")
def test_criterion_8_metrics_sanity():
    from posepipe import builtin_joint_set
    from posepipe.evaluation import compute_map, compute_mota
    from posepipe.instances import PersonInstance
    from posepipe.poseio import PoseSequence

    js = builtin_joint_set("posetrack")
    k = js.count

    def gt_person(cx, pid):
        coords = np.column_stack([cx + 2.0 * np.arange(k), np.zeros(k)])
        return PersonInstance(box=(cx - 5, -5, 40, 60), box_score=1.0,
                              coords=coords, scores=np.ones(k),
                              annotated=np.ones(k, bool), joint_set="posetrack",
                              person_id=pid, head_size=10.0)

    def pred(gt, ds=(0.0, 0.0), score=0.9, tid=None):
        return PersonInstance(box=gt.box.copy(), box_score=1.0,
                              coords=gt.coords + np.asarray(ds, float),
                              scores=np.full(k, score),
                              annotated=np.ones(k, bool), joint_set="posetrack",
                              score=score, track_id=tid)

    # perfect predictions
    gt_frames = [(t, [gt_person(0, 0), gt_person(200, 1)]) for t in range(10)]
    gts = PoseSequence(js, gt_frames)
    perfect = PoseSequence(js, [(t, [pred(g[0], score=1.0, tid=1),
                                     pred(g[1], score=1.0, tid=2)]) for t, g in gt_frames])
    rep = compute_map(perfect, gts)
    assert rep["total_map"] == 100.0 and all(v == 100.0 for v in rep["per_joint_ap"].values())
    rep = compute_mota(perfect, gts)
    assert rep["total_mota"] == 100.0 and all(v == 100.0 for v in rep["per_joint_mota"].values())

    # swap scenario: per joint GT = 20, IDSW = 2, MOTA = 90 exactly
    swapped = []
    for t, g in gt_frames:
        ids = (1, 2) if t < 5 else (2, 1)
        swapped.append((t, [pred(g[0], score=1.0, tid=ids[0]),
                            pred(g[1], score=1.0, tid=ids[1])]))
    rep = compute_mota(PoseSequence(js, swapped), gts)
    assert all(v == 90.0 for v in rep["per_joint_mota"].values()), rep["per_joint_mota"]
    assert rep["total_mota"] == 90.0

    # injected false positives / negatives reduce both metrics monotonically
    base = [(t, [pred(g[0], score=0.9, tid=1), pred(g[1], score=0.9, tid=2)])
            for t, g in gt_frames]
    base_map = compute_map(PoseSequence(js, base), gts)["total_map"]
    base_mota = compute_mota(PoseSequence(js, base), gts)["total_mota"]
    fp = PoseSequence(js, [(t, p + [pred(gt_person(600, 9), score=0.95, tid=3)])
                           for t, p in base])
    fn = PoseSequence(js, [(t, p[:1]) for t, p in base])
    assert compute_map(fp, gts)["total_map"] < base_map
    assert compute_mota(fp, gts)["total_mota"] < base_mota
    assert compute_map(fn, gts)["total_map"] < base_map
    assert compute_mota(fn, gts)["total_mota"] < base_mota
    return "perfect 100 / swap 90.0 exactly / injections reduce"


@criterion(9, "golden-sequence ablations change false positives as documented")
def test_criterion_9_tracking_ablations(tmp_path_factory):
    from posepipe.config import PipelineConfig
    from posepipe.evaluation import compute_mota
    from posepipe.pipeline import load_manifest, run_pipeline
    from posepipe.poseio import load_pose_file
    from posepipe.scenes import generate_scene

    outdir = tmp_path_factory.mktemp("acceptance_scene")
    manifest_path, gt_path = generate_scene(str(outdir), seed=0)
    frames = load_manifest(manifest_path)
    gt = load_pose_file(gt_path)
    cfg = PipelineConfig()

    def run(config):
        seq = run_pipeline(config, frames)
        rep = compute_mota(seq, gt)
        tracks = {p.track_id for _, ii in seq.frames for p in ii}
        return rep["counts"]["fp"], tracks

    base_fp, base_tracks = run(cfg)
    noprune_fp, noprune_tracks = run(dataclasses.replace(cfg, min_track_length=1))
    nokp_fp, _ = run(dataclasses.replace(cfg, keypoint_threshold=0))

    one_frame_tracks = noprune_tracks - base_tracks
    assert len(one_frame_tracks) >= 1      # pruning removed at least one track
    assert noprune_fp > base_fp            # and those tracks are false positives
    assert nokp_fp >= base_fp + 1          # threshold removal adds FP joints
    return (f"pruning removes {len(one_frame_tracks)} track(s); "
            f"kp-threshold off adds {nokp_fp - base_fp} FP joints")


@criterion(10, "run and train-toy are byte-reproducible")
def test_criterion_10_determinism(tmp_path_factory):
    from posepipe.cli import main
    from posepipe.scenes import generate_scene

    tmp = tmp_path_factory.mktemp("acceptance_det")
    scene_dir = tmp / "scene"
    scene_dir.mkdir()
    generate_scene(str(scene_dir), seed=4)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp / name
        assert main(["run", "--manifest", str(scene_dir / "manifest.json"),
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    cfg = {
        "domains": {"coco": {}, "posetrack": {}},
        "train_sizes": {"coco": 8, "posetrack": 8},
        "heldout_sizes": {"coco": 2, "posetrack": 2},
        "net": {"hidden": 4},
        "schedule": {"preset": "multi", "domains": ["coco", "posetrack"],
                     "steps": 8, "lr": 1.0},
    }
    cfg_path = tmp / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs, logs = [], []
    for tag in ("1", "2"):
        ckpt = tmp / f"net{tag}.pknp"
        logp = tmp / f"log{tag}.jsonl"
        assert main(["train-toy", "--config", str(cfg_path), "--seed", "9",
                     "--out", str(ckpt), "--log", str(logp)]) == 0
        blobs.append(ckpt.read_bytes())
        logs.append(logp.read_text())
    assert blobs[0] == blobs[1]
    assert logs[0] == logs[1]
    return "pipeline output and checkpoints byte-identical"
