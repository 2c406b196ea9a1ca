import hashlib
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import posepipe
from posepipe import PoseError, heatmaps
from posepipe.cli import main
from posepipe.config import PipelineConfig
from posepipe.evaluation import compute_map, compute_mota, format_table
from posepipe.heatmaps import Heatmap, load_heatmap, render_target, save_heatmap
from posepipe.instances import InstanceStack, PersonInstance
from posepipe.poseio import (
    PoseSequence,
    document_text,
    load_pose_file,
    pose_document,
    save_pose_file,
)
from posepipe.skeletons import JointSet, builtin_joint_set, register_joint_set
from posepipe.toynet import load_network
from posepipe.training import TRAIN_BYTES_LIMIT, TrainConfig

from make_golden import GOLDEN_PATH, GOLDEN_SEED


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_scene")
    rc = main(["synth", "--out", str(out), "--seed", "1"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def golden_scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_scene")
    assert main(["synth", "--out", str(out), "--seed", str(GOLDEN_SEED)]) == 0
    return out


def _run(manifest, out, tmp_path, **config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--manifest", str(manifest),
                 "--out", str(out)]) == 0
    return load_pose_file(out)


def _error_doc(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_synth_writes_expected_files(scene_dir):
    assert (scene_dir / "manifest.json").exists()
    assert (scene_dir / "gt.json").exists()
    assert any(f.endswith(".pkhm") for f in os.listdir(scene_dir / "heatmaps"))


def test_run_and_eval_round_trip(scene_dir, tmp_path, capsys):
    out = tmp_path / "pred.json"
    rc = main(["run", "--manifest", str(scene_dir / "manifest.json"),
               "--out", str(out)])
    assert rc == 0
    seq = load_pose_file(out)
    assert seq.joint_set.name == "posetrack"
    assert all(p.track_id is not None for _, ii in seq.frames for p in ii.instances())

    report = tmp_path / "map.json"
    rc = main(["eval-map", "--pred", str(out), "--gt", str(scene_dir / "gt.json"),
               "--json", str(report)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "Total" in table
    doc = json.loads(report.read_text())
    assert doc["total_map"] > 80.0

    report2 = tmp_path / "mota.json"
    rc = main(["eval-mota", "--pred", str(out), "--gt", str(scene_dir / "gt.json"),
               "--json", str(report2)])
    assert rc == 0
    doc = json.loads(report2.read_text())
    assert doc["total_mota"] > 80.0
    assert doc["total_precision"] == 100.0


def test_run_is_byte_reproducible(scene_dir, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["run", "--manifest", str(scene_dir / "manifest.json"),
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_with_config_file(scene_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"use_tracking": False, "fusion": "vote"}))
    out = tmp_path / "pred.json"
    assert main(["run", "--config", str(cfg),
                 "--manifest", str(scene_dir / "manifest.json"),
                 "--out", str(out)]) == 0
    seq = load_pose_file(out)
    assert all(p.track_id is None for _, ii in seq.frames for p in ii.instances())


def test_decode_subcommand(tmp_path):
    hm, _ = render_target(np.array([[6.0, 8.0]] * 15), 2.0, (16, 12),
                          joint_set="posetrack")
    path = tmp_path / "h.pkhm"
    save_heatmap(hm, path)
    out = tmp_path / "pose.json"
    assert main(["decode", "--heatmap", str(path), "--out", str(out)]) == 0
    seq = load_pose_file(out)
    inst = seq.frames[0][1].instances()[0]
    assert inst.annotated.all()
    assert np.allclose(inst.coords[:, 0], 6.5, atol=0.3)


def test_fuse_subcommand(tmp_path):
    for name in ("coco", "mpii", "posetrack"):
        k = builtin_joint_set(name).count
        hm, _ = render_target(np.tile([[5.0, 7.0]], (k, 1)), 2.0, (16, 12),
                              joint_set=name)
        save_heatmap(hm, tmp_path / f"{name}.pkhm")
    out = tmp_path / "pose.json"
    rc = main(["fuse", "--strategy", "head-swap:coco,mpii", "--target", "posetrack",
               "--branch", f"coco={tmp_path / 'coco.pkhm'}",
               "--branch", f"mpii={tmp_path / 'mpii.pkhm'}",
               "--out", str(out)])
    assert rc == 0
    seq = load_pose_file(out)
    assert seq.joint_set.name == "posetrack"
    assert seq.frames[0][1].instances()[0].annotated.all()


def test_merge_boxes_subcommand(tmp_path):
    a = {"frames": [{"frame_index": 0, "boxes": [
        {"box": [0, 0, 10, 10], "score": 0.9}]}]}
    b = {"frames": [{"frame_index": 0, "boxes": [
        {"box": [1, 1, 10, 10], "score": 0.8},
        {"box": [50, 50, 10, 10], "score": 0.7}]}]}
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    out = tmp_path / "merged.json"
    rc = main(["merge-boxes", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
               "--iou-thr", "0.6", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    kept = doc["frames"][0]["boxes"]
    assert len(kept) == 2   # overlapping pair merged, distant box kept
    assert kept[0]["score"] == 0.9


def test_nms_and_track_subcommands(scene_dir, tmp_path):
    raw = tmp_path / "raw.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"use_tracking": False, "use_oks_nms": False}))
    assert main(["run", "--config", str(cfg),
                 "--manifest", str(scene_dir / "manifest.json"),
                 "--out", str(raw)]) == 0
    deduped = tmp_path / "dedup.json"
    assert main(["nms", str(raw), "--oks-thr", "0.4", "--out", str(deduped)]) == 0
    tracked = tmp_path / "tracked.json"
    assert main(["track", str(deduped), "--matcher", "hungarian",
                 "--propagator", "velocity", "--out", str(tracked)]) == 0
    seq = load_pose_file(tracked)
    assert all(p.track_id is not None for _, ii in seq.frames for p in ii.instances())


# sha256 of the nms output and of the track output (default settings, then
# identity propagation, greedy matching and no pruning) on the golden scene
# with a suppressible copy added
_NMS_TRACK_SHA256 = {
    "nms": "0011526ce3062bffea5d4ee828c089a7b551c13fce9885a29f199b6b12fac3e5",
    "track": "f937574f2ca1e1279cf6a29f3bfb3b54c5be7ebd7664e76042d74937f79b2386",
    "track-identity-greedy": "d42e8ee5acb2da72a3c838822fbf4f6dfb9e8f8b4ea1103b0cf4723e804dd054",
}


def test_nms_and_track_outputs_are_pinned(golden_scene_dir, tmp_path):
    raw = tmp_path / "raw.json"
    _run(golden_scene_dir / "manifest.json", raw, tmp_path, use_tracking=False,
         use_oks_nms=False)
    # a copy of frame 0's first instance, one pixel to the right at half its
    # score: OKS-NMS drops it again
    doc = json.loads(raw.read_text())
    copy = dict(doc["frames"][0]["instances"][0])
    copy["score"] /= 2
    copy["keypoints"] = [v + 1.0 if i % 3 == 0 else v for i, v in enumerate(copy["keypoints"])]
    doc["frames"][0]["instances"].append(copy)
    raw.write_text(json.dumps(doc))
    out = {name: tmp_path / f"{name}.json" for name in _NMS_TRACK_SHA256}
    assert main(["nms", str(raw), "--out", str(out["nms"])]) == 0
    assert main(["track", str(out["nms"]), "--out", str(out["track"])]) == 0
    assert main(["track", str(out["nms"]), "--propagator", "identity", "--matcher", "greedy",
                 "--min-len", "1", "--out", str(out["track-identity-greedy"])]) == 0
    counts = {name: [len(ii) for _, ii in load_pose_file(path).frames]
              for name, path in out.items()}
    # NMS drops the copy; pruning drops frame 2's one-frame track
    assert counts == {"nms": [2, 2, 3, 2, 2], "track": [2, 2, 2, 2, 2],
                      "track-identity-greedy": [2, 2, 3, 2, 2]}
    assert len(doc["frames"][0]["instances"]) == 3
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in out.items()} == _NMS_TRACK_SHA256


def _far_person(x, unannotated_x=None, **ids):
    """A posetrack person with every joint at (x, 0), or, given
    unannotated_x, at (0, 0) with joint 3 there and not annotated."""
    k = builtin_joint_set("posetrack").count
    coords, annotated = np.zeros((k, 2)), np.ones(k, bool)
    if unannotated_x is None:
        coords[:, 0] = x
    else:
        coords[3, 0], annotated[3] = unannotated_x, False
    return PersonInstance(box=[x, 0, 10, 20], box_score=0.9, coords=coords,
                          scores=np.full(k, 0.8), annotated=annotated, joint_set="posetrack",
                          **ids)


def _track_ids(path):
    return [list(stack.track_id) for _, stack in load_pose_file(path).frames]


@pytest.mark.parametrize("xs, unannotated, ids", [
    # OKS of poses ~1.6e308 apart: d^2 overflows to inf, OKS 0, a new track
    ([0.0, 1.6e308, 1.7e308], False, [[0], [1], [2]]),
    # the velocity of a joint that is not annotated overflows to inf
    ([1.7e308, -1.7e308, 0.0], True, [[0], [0], [0]]),
])
def test_far_apart_poses_track_without_warnings(tmp_path, xs, unannotated, ids):
    # pyproject.toml makes a RuntimeWarning an error
    frames = [(t, InstanceStack.of("posetrack", [
        _far_person(0.0, x) if unannotated else _far_person(x)])) for t, x in enumerate(xs)]
    save_pose_file(PoseSequence("posetrack", frames), tmp_path / "in.json")
    assert main(["track", str(tmp_path / "in.json"), "--min-len", "1",
                 "--out", str(tmp_path / "out.json")]) == 0
    assert _track_ids(tmp_path / "out.json") == ids


def test_far_apart_poses_evaluate_without_warnings(tmp_path):
    pred = InstanceStack.of("posetrack", [_far_person(1.7e308, track_id=0)])
    save_pose_file(PoseSequence("posetrack", [(0, pred)]), tmp_path / "pred.json")
    gt = InstanceStack.of("posetrack", [_far_person(-1.7e308, person_id=0, head_size=10.0)])
    save_pose_file(PoseSequence("posetrack", [(0, gt)]), tmp_path / "gt.json")
    reports = {}
    for command in ("eval-map", "eval-mota"):
        argv = [command, "--pred", str(tmp_path / "pred.json"), "--gt", str(tmp_path / "gt.json"),
                "--json", str(tmp_path / f"{command}.json")]
        assert main(argv) == 0
        reports[command] = json.loads((tmp_path / f"{command}.json").read_text())
    # no joint is correct: AP 0, and every joint a miss and a false positive
    assert reports["eval-map"]["total_map"] == 0.0
    assert reports["eval-mota"]["total_mota"] == -100.0


def test_train_toy_subcommand(tmp_path):
    cfg = {
        "domains": {"coco": {"noise": 0.05}, "posetrack": {"noise": 0.1}},
        "train_sizes": {"coco": 8, "posetrack": 8},
        "heldout_sizes": {"coco": 2, "posetrack": 2},
        "net": {"hidden": 4},
        "schedule": {"preset": "multi", "domains": ["coco", "posetrack"],
                     "steps": 6, "lr": 1.0},
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    ckpt = tmp_path / "net.pknp"
    log = tmp_path / "log.jsonl"
    rc = main(["train-toy", "--config", str(cfg_path), "--seed", "3",
               "--out", str(ckpt), "--log", str(log)])
    assert rc == 0
    assert ckpt.exists()
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert lines and "heldout" in lines[-1]

    # byte reproducibility of the checkpoint
    ckpt2 = tmp_path / "net2.pknp"
    rc = main(["train-toy", "--config", str(cfg_path), "--seed", "3",
               "--out", str(ckpt2), "--log", str(tmp_path / "log2.jsonl")])
    assert rc == 0
    assert ckpt.read_bytes() == ckpt2.read_bytes()
    assert log.read_text() == (tmp_path / "log2.jsonl").read_text()


def test_cli_error_reporting(tmp_path, capsys):
    rc = main(["nms", str(tmp_path / "missing.json"), "--out",
               str(tmp_path / "o.json")])
    assert rc != 0
    err = capsys.readouterr().err
    doc = json.loads(err.strip().splitlines()[-1])
    assert "error" in doc

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"joint_set": "nope", "frames": []}))
    rc = main(["nms", str(bad), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["kind"] == "contract"


@pytest.mark.parametrize("strategy", ["select:coco", "head-swap:coco,mpii", "vote"])
def test_fuse_subcommand_matches_run_without_post_processing(golden_scene_dir,
                                                            tmp_path, strategy):
    manifest = golden_scene_dir / "manifest.json"
    seq = _run(manifest, tmp_path / "run.json", tmp_path, fusion=strategy,
               use_box_rescore=False, box_threshold=0,
               keypoint_threshold=0, use_oks_nms=False,
               use_tracking=False)
    doc = json.loads(manifest.read_text())
    for (fidx, instances), frame in zip(seq.frames, doc["frames"], strict=True):
        for inst, entry in zip(instances.instances(), frame["instances"], strict=True):
            argv = ["fuse", "--strategy", strategy, "--target", "posetrack",
                    "--out", str(tmp_path / "fused.json")]
            for flag, key in (("--branch", "heatmaps"), ("--flipped", "flipped_heatmaps")):
                for name, path in entry[key].items():
                    argv += [flag, f"{name}={golden_scene_dir / path}"]
            assert main(argv) == 0
            fused = load_pose_file(tmp_path / "fused.json").frames[0][1].instances()[0]
            assert np.array_equal(fused.coords, inst.coords), (fidx, strategy)
            assert np.array_equal(fused.scores, inst.scores), (fidx, strategy)
            assert np.array_equal(fused.annotated, inst.annotated), (fidx, strategy)


def test_track_subcommand_matches_run_with_tracking(golden_scene_dir, tmp_path):
    manifest = golden_scene_dir / "manifest.json"
    _run(manifest, tmp_path / "raw.json", tmp_path, use_tracking=False)
    assert main(["track", str(tmp_path / "raw.json"),
                 "--out", str(tmp_path / "tracked.json")]) == 0
    tracked = load_pose_file(tmp_path / "tracked.json")
    ran = _run(manifest, tmp_path / "run.json", tmp_path)
    ids = [[(p.track_id, p.coords.tobytes()) for p in ii.instances()]
           for _, ii in tracked.frames]
    assert ids == [[(p.track_id, p.coords.tobytes()) for p in ii.instances()]
                   for _, ii in ran.frames]
    assert [f for f, _ in tracked.frames] == [f for f, _ in ran.frames]
    assert any(p.track_id is not None for _, ii in ran.frames for p in ii.instances())


def _coco_heatmap(path):
    """Write a coco heatmap with every joint at one spot to path."""
    k = builtin_joint_set("coco").count
    save_heatmap(render_target(np.tile([[5.0, 7.0]], (k, 1)), 2.0, (16, 12),
                               joint_set="coco")[0], path)
    return path


def test_fuse_rejects_a_flipped_file_for_a_branch_with_no_heatmap(tmp_path, capsys):
    # the stray file used to be skipped, never read, and fuse exited 0
    coco = _coco_heatmap(tmp_path / "coco.pkhm")
    out = tmp_path / "o.json"
    assert main(["fuse", "--strategy", "vote", "--target", "posetrack",
                 "--branch", f"coco={coco}", "--flipped", "mpii=/nonexistent.pkhm",
                 "--out", str(out)]) == 2
    assert _error_doc(capsys) == {
        "error": "flipped heatmap for branch 'mpii', which has no heatmap",
        "kind": "contract"}
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--branch", "--flipped"])
def test_fuse_rejects_a_branch_named_twice(tmp_path, capsys, flag):
    # the last path used to win silently
    coco = _coco_heatmap(tmp_path / "coco.pkhm")
    out = tmp_path / "o.json"
    assert main(["fuse", "--strategy", "select:coco", "--target", "posetrack",
                 "--branch", f"coco={coco}", flag, f"coco={coco}", flag, f"coco={coco}",
                 "--out", str(out)]) == 2
    assert _error_doc(capsys) == {"error": "branch 'coco' is named twice",
                                  "kind": "contract"}
    assert not out.exists()


def test_fuse_rejects_a_branch_with_no_path(tmp_path, capsys):
    out = tmp_path / "o.json"
    assert main(["fuse", "--strategy", "select:coco", "--target", "posetrack",
                 "--branch", "coco", "--out", str(out)]) == 2
    assert _error_doc(capsys) == {"error": "expected NAME=PATH, got 'coco'", "kind": "contract"}
    assert not out.exists()


def test_fuse_rejects_unknown_strategy_before_reading(tmp_path, capsys):
    rc = main(["fuse", "--strategy", "median", "--target", "posetrack",
               "--branch", f"coco={tmp_path / 'missing.pkhm'}",
               "--out", str(tmp_path / "o.json")])
    assert rc == 2
    doc = _error_doc(capsys)
    assert doc["kind"] == "contract" and "median" in doc["error"]


@pytest.mark.parametrize("manifest", [
    [],
    {"frames": {"frame_index": 0}},
    {"frames": [3]},
    {"frames": [{"frame_index": 0, "instances": 5}]},
    {"frames": [{"frame_index": 0, "instances": [7]}]},
])
def test_run_rejects_malformed_manifest_structure(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    rc = main(["run", "--manifest", str(path), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    assert _error_doc(capsys)["kind"] == "contract"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("schedule, key", [
    ({"preset": "single"}, "domain"),
    ({"preset": "transfer", "target": "mpii"}, "source"),
    ({"stages": [{"name": "s", "steps": 2}]}, "domains"),
    ({"stages": [{"name": "s", "domains": ["coco"]}]}, "steps"),
])
def test_train_toy_names_missing_schedule_key(tmp_path, capsys, schedule, key):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"schedule": schedule}))
    rc = main(["train-toy", "--config", str(cfg)])
    assert rc == 2
    doc = _error_doc(capsys)
    assert doc["kind"] == "contract" and repr(key) in doc["error"]


def _bad_input(tmp_path, capsys, doc, argv):
    """Write doc (raw text when a str) and run argv with {path} and {out}
    filled in; the CLI must exit 2 with the one-line contract error."""
    path, out = tmp_path / "input.json", tmp_path / "o.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    rc = main([a.format(path=path, out=out) for a in argv])
    assert rc == 2
    assert _error_doc(capsys)["kind"] == "contract"
    assert not out.exists()


_INSTANCE = {"box": [0, 0, 10, 10], "heatmaps": {"coco": "c.pkhm"}}


@pytest.mark.parametrize("manifest", [
    {"frames": [{"frame_index": 0, "instances": [dict(_INSTANCE, box=["a", 0, 1, 1])]}]},
    {"frames": [{"frame_index": 0, "instances": [dict(_INSTANCE, box=5)]}]},
    {"frames": [{"frame_index": 0, "instances": [dict(_INSTANCE, heatmaps=["x"])]}]},
    {"frames": [{"frame_index": 0, "instances": [dict(_INSTANCE, heatmaps={"coco": 5})]}]},
    {"frames": [{"frame_index": 0,
                 "instances": [dict(_INSTANCE, flipped_heatmaps="c.pkhm")]}]},
    {"frames": [{"frame_index": 0}, {"frame_index": "1"}]},
    {"frames": [{"frame_index": 0.5}]},
    {"frames": [{"frame_index": 0, "instances": [dict(_INSTANCE, box=["1", "2", "3", "4"])]}]},
    {"frames": [{"frame_index": 0, "instances": [dict(_INSTANCE, box_score="0.5")]}]},
    {"frames": [{"frame_index": 0, "instances": [dict(_INSTANCE, box=[0, 0, 0, 1])]}]},
    {"frames": [{"frame_index": 0, "instances": [dict(_INSTANCE, box_score=float("nan"))]}]},
    {"frames": [{"frame_index": 0, "instances": [dict(_INSTANCE, heatmap={})]}]},
    {"frames": [{"frame_index": 1}, {"frame_index": 0}]},
])
def test_run_rejects_malformed_manifest_values(tmp_path, capsys, manifest):
    _bad_input(tmp_path, capsys, manifest, ["run", "--manifest", "{path}", "--out", "{out}"])


@pytest.mark.parametrize("config", [{"use_tracking": "no"}, {"similarity_threshold": "x"}])
def test_run_rejects_mistyped_config_before_reading_manifest(tmp_path, capsys, config):
    # the manifest does not exist: only a config checked first reports a
    # contract error
    _bad_input(tmp_path, capsys, config,
               ["run", "--config", "{path}", "--manifest", str(tmp_path / "missing.json"),
                "--out", "{out}"])


@pytest.mark.parametrize("config", [
    {"keypoint_threshold": 2}, {"box_threshold": 5}, {"similarity_threshold": -1},
    {"oks_nms_threshold": 2}, {"oks_nms_threshold": 0}, {"lookback": 0},
    {"smooth_sigma": -1}, {"oks_falloff_overrides": {"nose": 0}},
    {"fusion": "vote:coco"}, {"fusion": "head-swap:coco"}, {"fusion": "select:"},
    {"fusion": "head-swap:,mpii"}, {"fusion": "head-swap:coco,mpii,posetrack"},
    {"oks_falloff_overrides": {"nose_typo": 0.5}}, {"target_joint_set": "nope"},
    {"smooth_sigma": float("inf")}, {"smooth_sigma": float("nan")},
])
def test_run_rejects_out_of_range_config_before_reading_manifest(tmp_path, capsys, config):
    # each of these used to exit 0 with nothing tracked, or fail only after
    # every heatmap was decoded
    _bad_input(tmp_path, capsys, config,
               ["run", "--config", "{path}", "--manifest", str(tmp_path / "missing.json"),
                "--out", "{out}"])


# a one-instance coco pose file whose every value has the right type; each
# case below changes one value to a wrong type, or adds a key
_COCO = builtin_joint_set("coco").count
_POSE = {"box": [0, 0, 10, 10], "box_score": 0.9, "score": 0.8, "track_id": 1,
         "person_id": 1, "head_size": 5.0, "keypoints": [1.0, 2.0, 0.5] * _COCO,
         "annotated": [1] * _COCO}


def _pose_file(**changes):
    return {"joint_set": "coco", "frames": [{"frame_index": 0,
                                             "instances": [dict(_POSE, **changes)]}]}


@pytest.mark.parametrize("pose_doc", [
    {"joint_set": "posetrack", "frames": 5},
    {"joint_set": "posetrack", "frames": [3]},
    {"joint_set": "posetrack", "frames": [{"frame_index": 0, "instances": 5}]},
    # each of these used to exit 0 with a misread value, or end in a traceback
    _pose_file(box=["1", "2", "3", "4"]),
    _pose_file(keypoints=["1"] * 3 * _COCO),
    _pose_file(keypoints=[True] * 3 * _COCO),
    _pose_file(annotated=["a"] * _COCO),
    _pose_file(box_score="0.5"),
    _pose_file(person_id=1.5),
    _pose_file(person_id=True),
    _pose_file(track_id="x"),
    _pose_file(score="hi"),
    _pose_file(head_size="12"),
    _pose_file(track_id=None),
    _pose_file(area=100.0),
    _pose_file(keypoints=[1.0, 2.0, float("nan")] * _COCO),
    _pose_file(box=[0, 0, float("inf"), 10]),
    _pose_file(box=[float("nan"), 0, 10, 10]),
    _pose_file(score=float("nan")),
    _pose_file(score=-5),
    _pose_file(score=7),
    {"joint_set": ["coco"], "frames": []},
    {"joint_set": "coco", "frames": [], "sequence": "a"},
    {"joint_set": "coco", "frames": [{"frame_index": 0, "instance": []}]},
])
def test_nms_rejects_malformed_pose_file(tmp_path, capsys, pose_doc):
    _bad_input(tmp_path, capsys, pose_doc, ["nms", "{path}", "--out", "{out}"])


@pytest.mark.parametrize("box_doc", [
    [],
    {"frames": 5},
    {"frames": [{"frame_index": 0, "boxes": [{"box": "ab"}]}]},
    {"frames": [{"frame_index": 0, "boxes": [{"score": 1.0}]}]},
    {"frames": [{"frame_index": 0, "boxes": [[0, 0, 1, 1]]}]},
    {"frames": [{"frame_index": 0}, {"frame_index": "1"}]},
    {"frames": [{"frame_index": 0, "boxes": [{"box": ["1", "2", "3", "4"]}]}]},
    {"frames": [{"frame_index": 0, "boxes": [{"box": [0, 0, 1, 1], "score": "0.5"}]}]},
    {"frames": [{"frame_index": 0, "boxes": [{"box": [0, 0, 1, 1], "scroe": 0.5}]}]},
    {"frames": [{"frame_index": 0, "boxes": [{"box": [0, 0, 1, 1, 1]}]}]},
    {"frames": [{"frame_index": 0, "boxes": [{"box": [0, 0, 1e200, 1e200]}]}]},
    # a score outside [0, 1]; a NaN-scored box used to be dropped silently
    {"frames": [{"frame_index": 0, "boxes": [{"box": [0, 0, 1, 1], "score": float("nan")}]}]},
    {"frames": [{"frame_index": 0, "boxes": [{"box": [0, 0, 1, 1], "score": -5}]}]},
    {"frames": [{"frame_index": 0, "boxes": [{"box": [0, 0, 1, 1], "score": 7}]}]},
    {"frames": [{"frame_index": 1}, {"frame_index": 1}]},
])
def test_merge_boxes_rejects_malformed_box_file(tmp_path, capsys, box_doc):
    _bad_input(tmp_path, capsys, box_doc, ["merge-boxes", "{path}", "--out", "{out}"])


# a config that trains in a moment; each bad case below changes one key of it
_TINY_TRAIN = {"domains": {"coco": {}}, "train_sizes": {"coco": 2},
               "heldout_sizes": {"coco": 1}, "net": {"hidden": 2},
               "schedule": {"preset": "single", "domain": "coco", "steps": 1}}


@pytest.mark.parametrize("argv", [["synth", "--out", "{out}"],
                                  ["train-toy", "--config", "{path}", "--out", "{out}"]],
                         ids=["synth", "train-toy"])
def test_negative_seed_is_a_contract_error(tmp_path, capsys, argv):
    # the seed's owners, generate_scene and init_network, reject it; numpy
    # used to raise a ValueError traceback
    _bad_input(tmp_path, capsys, _TINY_TRAIN, argv + ["--seed", "-1"])


@pytest.mark.parametrize("sigma", ["1e-200", "inf", "1e300", "nan", "0", "-1"])
def test_synth_rejects_a_degenerate_render_sigma_before_writing(tmp_path, capsys, sigma):
    # 1e-200 used to end in a ZeroDivisionError traceback (exit 1), inf and
    # 1e300 wrote flat all-1 maps and exited 0
    out = tmp_path / "scene"
    assert main(["synth", "--out", str(out), "--sigma", sigma]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert json.loads(err) == {"kind": "contract", "error": (
        f"render sigma must be finite and positive with a finite 2 sigma^2 >= "
        f"{float(np.finfo(float).tiny)!r}, got {float(sigma)!r}")}
    assert not out.exists()


@pytest.mark.parametrize("train_doc", [
    "{not json",
    [],
    {"schedule": []},
    {"schedule": {"stages": "oops"}},
    {"schedule": {"stages": [3]}},
    {"schedule": {"stages": [{"domains": ["coco"], "steps": "x"}]}},
    {"domains": {"coco": 5}},
    {"domains": {"coco": {"noise": "x"}}},
    {"net": {"domains": 5}},
    {"schedule": {"stages": [{"domains": ["coco"], "steps": 1, "lr": "x"}]}},
    {"schedule": {"lr": "x"}},
    {"train_sizes": {"coco": 2}},
    {"heldout_sizes": {"coco": 2, "mpii": 2, "posetrack": "x"}},
    dict(_TINY_TRAIN, domains={"coco": {"nosie": 9}}),
    dict(_TINY_TRAIN, domains={"coco": {"height": 40}}),
    dict(_TINY_TRAIN, net={"hiden": 4}),
    dict(_TINY_TRAIN, schedule={"stages": [{"domains": ["coco"], "steps": 1, "los": "l2"}]}),
    dict(_TINY_TRAIN, schedule={"stages": [{"domains": ["coco"], "steps": 1, "ohkm": 4}]}),
    dict(_TINY_TRAIN, trian_sizes=3),
    dict(_TINY_TRAIN, schedule=dict(_TINY_TRAIN["schedule"], stpes=1)),
    dict(_TINY_TRAIN, net={"hidden": "x"}),
    dict(_TINY_TRAIN, net={"hidden": 0}),
    dict(_TINY_TRAIN, schedule={"stages": [{"domains": ["coco"], "steps": 1}], "lr": 2}),
    dict(_TINY_TRAIN, schedule=dict(_TINY_TRAIN["schedule"], primary="mpii")),
    # each of these used to end in a traceback, exit 0, misread a value or
    # fail only after the data was generated
    dict(_TINY_TRAIN, data_seed="x"),
    dict(_TINY_TRAIN, data_seed=1.5),
    dict(_TINY_TRAIN, data_seed=-1),
    dict(_TINY_TRAIN, heldout_reference="bogus"),
    dict(_TINY_TRAIN, domains={"coco": {"offset": "ab"}}),
    dict(_TINY_TRAIN, domains={"coco": {"contrast": "x"}}),
    dict(_TINY_TRAIN, schedule={"stages": [{"domains": ["coco"], "steps": 1.5}]}),
    dict(_TINY_TRAIN, schedule={"preset": "staged", "domains": ["coco"], "steps": [1]}),
    dict(_TINY_TRAIN, schedule={"stages": [{"domains": "coco", "steps": 1}]}),
    dict(_TINY_TRAIN, schedule={"preset": "multi", "domains": "coco", "steps": 1}),
    dict(_TINY_TRAIN, schedule={"stages": [{"domains": ["coco"], "steps": 1,
                                            "trainable": ["head.nope"]}]}),
    dict(_TINY_TRAIN, schedule={"stages": [{"domains": ["mpii"], "steps": 1}]}),
    dict(_TINY_TRAIN, schedule={"preset": "single", "domain": "mpii", "steps": 1}),
    dict(_TINY_TRAIN, domains={"coco": {}, "mpii": {}}, train_sizes={"coco": 2, "mpii": 2},
         heldout_sizes={"coco": 1, "mpii": 1}, net={"hidden": 2, "domains": ["coco"]},
         schedule={"stages": [{"domains": ["mpii"], "steps": 1}]}),
    dict(_TINY_TRAIN, train_sizes={"coco": 0}),
    dict(_TINY_TRAIN, heldout_sizes={"coco": 0}),
    # each of these used to train and exit 0
    dict(_TINY_TRAIN, schedule=dict(_TINY_TRAIN["schedule"], lr=float("nan"))),
    dict(_TINY_TRAIN, schedule={"stages": [{"domains": ["coco"], "steps": 1,
                                            "lr": float("nan")}]}),
    dict(_TINY_TRAIN, schedule={"stages": [{"domains": ["coco"], "steps": 1, "lr": 0}]}),
    dict(_TINY_TRAIN, domains={"coco": {"noise": float("nan")}}),
    dict(_TINY_TRAIN, domains={"coco": {"contrast": float("nan")}}),
    dict(_TINY_TRAIN, domains={"coco": {"offset": [float("nan"), 0]}}),
    dict(_TINY_TRAIN, domains={"coco": {"target_sigma": float("nan")}}),
    # 2 sigma^2 underflows (a ZeroDivisionError traceback, exit 1) or
    # overflows (flat all-1 targets, exit 0)
    dict(_TINY_TRAIN, domains={"coco": {"target_sigma": 1e-200}}),
    dict(_TINY_TRAIN, domains={"coco": {"target_sigma": 1e300}}),
    dict(_TINY_TRAIN, domains={"coco": {"label_noise": float("inf")}}),
    # these used to fail only after the data was made: the first after
    # stage 0 trained and logged, the second with numpy's traceback
    dict(_TINY_TRAIN, schedule={"stages": [{"domains": ["coco"], "steps": 1},
                                           {"domains": ["coco"], "steps": 1,
                                            "loss": "ohkm", "ohkm_k": 0}]}),
    dict(_TINY_TRAIN, schedule={"stages": [{"domains": [], "steps": 1}]}),
])
def test_train_toy_rejects_malformed_config(tmp_path, capsys, monkeypatch, train_doc):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the config was checked")
    monkeypatch.setattr("posepipe.cli.gen_synthetic", no_data)
    _bad_input(tmp_path, capsys, train_doc, ["train-toy", "--config", "{path}",
                                             "--out", "{out}"])


def test_train_toy_with_no_annotated_heldout_joint_exits_2(tmp_path, capsys, monkeypatch):
    # an offset that moves every joint off the grid masks them all; this
    # used to print a NaN held-out error, which is not JSON, and exit 0.
    # The held-out set is checked before the first training step.
    steps = []
    monkeypatch.setattr("posepipe.training.gradients", lambda *a: steps.append(a))
    path, out = tmp_path / "train.json", tmp_path / "net.pknp"
    path.write_text(json.dumps(dict(_TINY_TRAIN, domains={"coco": {"offset": [1000, 0]}})))
    assert main(["train-toy", "--config", str(path), "--out", str(out)]) == 2
    assert _error_doc(capsys) == {"error": "no held-out sample has an annotated joint",
                                  "kind": "contract"}
    assert not out.exists()
    assert steps == []


@pytest.mark.parametrize("train_doc", [
    dict(_TINY_TRAIN, net={"hidden": 100_000}),   # 720 GB of conv2 weights
    dict(_TINY_TRAIN, net={"hidden": 2, "height": 1_000_000}),
    dict(_TINY_TRAIN, train_sizes={"coco": 10_000_000}),
    dict(_TINY_TRAIN, schedule={"preset": "single", "domain": "coco", "steps": 1,
                                "batch_size": 10_000_000}),
], ids=["hidden", "height", "train_sizes", "batch_size"])
def test_train_toy_rejects_a_config_over_the_byte_limit(tmp_path, capsys, monkeypatch,
                                                        train_doc):
    # the hidden case used to end in a MemoryError traceback; the limit is
    # checked from the config's sizes alone, before any data or network
    made = []
    monkeypatch.setattr("posepipe.cli.gen_synthetic", lambda *a: made.append(a))
    monkeypatch.setattr("posepipe.training.init_network", lambda *a: made.append(a))
    path, out = tmp_path / "train.json", tmp_path / "net.pknp"
    path.write_text(json.dumps(train_doc))
    assert main(["train-toy", "--config", str(path), "--out", str(out)]) == 2
    doc = _error_doc(capsys)
    assert doc["kind"] == "contract" and doc["error"].startswith(
        f"train config asks for more than {TRAIN_BYTES_LIMIT} bytes of parameters, samples")
    assert made == [] and not out.exists()


def test_readme_train_config_is_within_the_byte_limit():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("### train-toy config", 1)[1].split("```json", 1)[1].split("```")[0]
    config = TrainConfig(**json.loads(block))
    assert config.footprint() <= TRAIN_BYTES_LIMIT


# each key PipelineConfig no longer has, with a value it used to accept
_REMOVED_CONFIG_KEYS = {
    "render_sigma": 9.0, "box_merge_iou_threshold": 0.6, "pckh_threshold": 0.5,
    "head_size_factor": 0.6, "ohkm_k": 8, "use_gaussian_filter": False,
    "use_box_threshold": False, "use_keypoint_threshold": False,
    "use_tracklet_pruning": False, "head_bottom_coef": 0.5, "head_top_coef": 1.0,
}


@pytest.mark.parametrize("key", sorted(_REMOVED_CONFIG_KEYS))
def test_run_rejects_removed_config_key_before_reading_manifest(tmp_path, capsys, key):
    doc = {key: _REMOVED_CONFIG_KEYS[key]}
    with pytest.raises(PoseError, match=key):
        PipelineConfig.from_dict(doc)
    _bad_input(tmp_path, capsys, doc,
               ["run", "--config", "{path}", "--manifest", str(tmp_path / "missing.json"),
                "--out", "{out}"])


@pytest.mark.parametrize("sim_thr", ["5", "-1"])
def test_track_rejects_out_of_range_similarity_threshold(tmp_path, capsys, sim_thr):
    _bad_input(tmp_path, capsys, {"joint_set": "posetrack", "frames": []},
               ["track", "{path}", "--sim-thr", sim_thr, "--out", "{out}"])


def test_train_toy_takes_domain_geometry_from_net(tmp_path):
    cfg = {
        "domains": {"coco": {}},
        "train_sizes": {"coco": 4},
        "heldout_sizes": {"coco": 2},
        "net": {"hidden": 2, "height": 40, "width": 20},
        "schedule": {"preset": "single", "domain": "coco", "steps": 3},
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    ckpt = tmp_path / "net.pknp"
    assert main(["train-toy", "--config", str(cfg_path), "--out", str(ckpt)]) == 0
    net = load_network(ckpt)
    assert (net.config.height, net.config.width) == (40, 20)


@pytest.fixture(scope="module")
def tiny_scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_scene")
    assert main(["synth", "--out", str(out), "--frames", "1", "--persons", "1",
                 "--seed", "1"]) == 0
    return out


def _break_branch_file(case, path, flip_path):
    """Spoil a branch's file (or its flipped file) in one way; returns the
    (exit code, error kind, error text) that reading it must give."""
    h = load_heatmap(path)
    if case == "missing":
        path.unlink()
        return 1, "io", f"[Errno 2] No such file or directory: '{path}'"
    if case == "mis-tagged":
        k = builtin_joint_set("coco").count
        save_heatmap(Heatmap(np.zeros((k,) + h.values.shape[1:]), "coco", h.crop, h.strides),
                     path)
        return 2, "contract", f"branch {h.joint_set.name!r} points at a 'coco' heatmap"
    if case == "truncated":
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        need = h.values.nbytes
        return 2, "contract", (f"heatmap payload is {need - 4} bytes, expected {need} "
                               f"(file={path})")
    if case == "non-finite":
        path.write_bytes(path.read_bytes()[:-4] + np.float32(np.nan).tobytes())
        return 2, "contract", f"heatmap values must be finite (file={path})"
    if case == "non-finite-stride":
        # the .pkhm header holds magic, 4 counts and the crop before stride x
        at = struct.calcsize("<4sIIII4d")
        blob = path.read_bytes()
        path.write_bytes(blob[:at] + struct.pack("<d", math.nan) + blob[at + 8:])
        return 2, "contract", (f"heatmap strides must be finite and positive, "
                               f"got (nan, {h.strides[1]}) (file={path})")
    if case == "flipped-truncated":
        blob = flip_path.read_bytes()
        flip_path.write_bytes(blob[:-4])
        need = h.values.nbytes
        return 2, "contract", (f"heatmap payload is {need - 4} bytes, expected {need} "
                               f"(file={flip_path})")
    if case == "flipped-shape":
        small = h.values[:, :-1, :-1]
        save_heatmap(Heatmap(small, h.joint_set, h.crop, h.strides), flip_path)
        return 2, "contract", f"flip_merge shape mismatch: {h.values.shape} vs {small.shape}"
    # flipped-tag: a set of the same size under another name
    js = h.joint_set
    register_joint_set(JointSet(f"{js.name}_twin", js.joints, js.flip_pairs))
    save_heatmap(Heatmap(h.values, f"{js.name}_twin", h.crop, h.strides), flip_path)
    return 2, "contract", "flip_merge joint-set mismatch"


_BROKEN_FILE_CASES = ("missing", "mis-tagged", "truncated", "non-finite", "non-finite-stride",
                      "flipped-truncated", "flipped-shape", "flipped-tag")


@pytest.mark.parametrize("case, fusion", [
    *(pytest.param(case, "head-swap:coco,mpii", id=case) for case in _BROKEN_FILE_CASES),
    *(pytest.param(case, "select:mpii", id=f"{case}-select") for case in _BROKEN_FILE_CASES)])
def test_run_checks_every_branch_file_the_strategy_does_not_read(
        tiny_scene_dir, tmp_path, capsys, case, fusion):
    # neither strategy reads a posetrack row, yet a broken posetrack file
    # fails the run as it does for a branch in use
    scene = tmp_path / "scene"
    shutil.copytree(tiny_scene_dir, scene)
    manifest = scene / "manifest.json"
    entry = json.loads(manifest.read_text())["frames"][0]["instances"][0]
    rc, kind, error = _break_branch_file(case, scene / entry["heatmaps"]["posetrack"],
                                         scene / entry["flipped_heatmaps"]["posetrack"])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fusion": fusion}))
    out = tmp_path / "o.json"
    assert main(["run", "--config", str(cfg), "--manifest", str(manifest),
                 "--out", str(out)]) == rc
    assert _error_doc(capsys) == {"error": error, "kind": kind}
    assert not out.exists()


def test_run_rejects_a_flipped_file_for_a_branch_with_no_heatmap(tiny_scene_dir, tmp_path,
                                                                capsys):
    # head-swap:coco,mpii reads no posetrack channel; the stray flipped file
    # used to be skipped, never read, and run exited 0
    manifest = tmp_path / "manifest.json"
    doc = json.loads((tiny_scene_dir / "manifest.json").read_text())
    entry = doc["frames"][0]["instances"][0]
    entry["heatmaps"] = {b: str(tiny_scene_dir / entry["heatmaps"][b]) for b in ("coco", "mpii")}
    entry["flipped_heatmaps"] = {"posetrack": "/nonexistent/x.pkhm"}
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert _error_doc(capsys) == {
        "error": "flipped heatmap for branch 'posetrack', which has no heatmap",
        "kind": "contract"}
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
@pytest.mark.parametrize("command", ["decode", "fuse"])
def test_decode_and_fuse_reject_non_finite_smooth_sigma(tmp_path, capsys, command, sigma):
    hm, _ = render_target(np.tile([[5.0, 7.0]], (15, 1)), 2.0, (16, 12),
                          joint_set="posetrack")
    save_heatmap(hm, tmp_path / "h.pkhm")
    out = tmp_path / "pose.json"
    if command == "decode":
        argv = ["decode", "--heatmap", str(tmp_path / "h.pkhm")]
    else:
        argv = ["fuse", "--strategy", "select:posetrack", "--target", "posetrack",
                "--branch", f"posetrack={tmp_path / 'h.pkhm'}"]
    assert main(argv + ["--smooth-sigma", sigma, "--out", str(out)]) == 2
    assert _error_doc(capsys)["kind"] == "contract"
    assert not out.exists()


@pytest.mark.parametrize("sigma", [1e-200, 1e-160])
def test_run_rejects_a_smooth_sigma_whose_kernel_underflows(golden_scene_dir, tmp_path, capsys,
                                                             sigma):
    # 2 sigma^2 is 0 (1e-200) or subnormal (1e-160): the kernel's centre tap
    # was exp(0/0), blamed on the heatmap files, or its other taps overflowed
    # on the way to 0 with a warning
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"smooth_sigma": sigma}))
    out = tmp_path / "o.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "--config", str(cfg), "--manifest",
                   str(golden_scene_dir / "manifest.json"), "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    doc = json.loads(err)
    assert doc["kind"] == "contract" and doc["error"].startswith("smoothing sigma")
    assert not out.exists()


@pytest.fixture(scope="module")
def scene_pred(scene_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("scene_pred") / "pred.json"
    assert main(["run", "--manifest", str(scene_dir / "manifest.json"),
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("thr", ["0", "-1", "nan"])
@pytest.mark.parametrize("command", ["eval-map", "eval-mota"])
def test_eval_rejects_pckh_threshold_out_of_range(scene_dir, scene_pred, tmp_path, capsys,
                                                  command, thr):
    report = tmp_path / "report.json"
    assert main([command, "--pred", str(scene_pred), "--gt", str(scene_dir / "gt.json"),
                 "--pckh-thr", thr, "--json", str(report)]) == 2
    assert _error_doc(capsys)["kind"] == "contract"
    assert not report.exists()


@pytest.mark.parametrize("head_size", [float("nan"), float("inf")])
def test_eval_rejects_non_finite_head_size(scene_dir, scene_pred, tmp_path, capsys,
                                           head_size):
    gt = json.loads((scene_dir / "gt.json").read_text())
    gt["frames"][0]["instances"][0]["head_size"] = head_size
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(gt))
    report = tmp_path / "report.json"
    assert main(["eval-map", "--pred", str(scene_pred), "--gt", str(path),
                 "--json", str(report)]) == 2
    assert _error_doc(capsys)["kind"] == "contract"
    assert not report.exists()


@pytest.mark.parametrize("command", ["eval-map", "eval-mota"])
def test_eval_rejects_a_ground_truth_head_box_of_negative_size(scene_dir, scene_pred, tmp_path,
                                                              capsys, command):
    gt = json.loads((scene_dir / "gt.json").read_text())
    record = gt["frames"][1]["instances"][0]
    del record["head_size"]
    record["head_box"] = [0, 0, -10, -10]
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(gt))
    report = tmp_path / "report.json"
    assert main([command, "--pred", str(scene_pred), "--gt", str(path),
                 "--json", str(report)]) == 2
    doc = _error_doc(capsys)
    assert doc["kind"] == "contract"
    assert "pose instance 0: head_box must be finite with positive width and height" in doc["error"]
    assert "frame=1" in doc["error"] and str(path) in doc["error"]
    assert not report.exists()


@pytest.mark.parametrize("command", ["eval-map", "eval-mota"])
@pytest.mark.parametrize("key, value", [("head_size", "12"), ("person_id", True),
                                        ("person_id", 1.5)])
def test_eval_rejects_mistyped_ground_truth(scene_dir, scene_pred, tmp_path, capsys,
                                            command, key, value):
    gt = json.loads((scene_dir / "gt.json").read_text())
    gt["frames"][-1]["instances"][0][key] = value
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(gt))
    report = tmp_path / "report.json"
    assert main([command, "--pred", str(scene_pred), "--gt", str(path),
                 "--json", str(report)]) == 2
    assert _error_doc(capsys)["kind"] == "contract"
    assert not report.exists()


_KEYPOINTS = [v for j in range(15) for v in (10.0 + j, 20.0, 0.9)]


def _pose_file(path, frames, joint_set="posetrack"):
    """Write a pose file whose instances all sit on _KEYPOINTS; frames maps
    each frame index to its instances' further keys."""
    path.write_text(json.dumps({"joint_set": joint_set, "frames": [
        {"frame_index": t, "instances": [
            {"box": [0.0, 0.0, 40.0, 60.0], "keypoints": _KEYPOINTS, **keys} for keys in instances]}
        for t, instances in frames.items()]}))
    return path


@pytest.mark.parametrize("command", ["eval-map", "eval-mota"])
def test_eval_rejects_a_frame_over_the_pair_limit_before_judging(tmp_path, capsys, monkeypatch,
                                                                 command):
    # 1025 x 1024 co-located poses in frame 3: 2**20 + 1024 pairs, each with a
    # correct joint, which matching would keep at about 130 B a pair
    monkeypatch.setattr("posepipe.evaluation._judge", _never)
    pred = _pose_file(tmp_path / "pred.json", {0: [], 3: [{"track_id": i} for i in range(1025)]})
    gt = _pose_file(tmp_path / "gt.json",
                    {0: [], 3: [{"person_id": i, "head_size": 10.0} for i in range(1024)]})
    report = tmp_path / "report.json"
    assert main([command, "--pred", str(pred), "--gt", str(gt), "--json", str(report)]) == 2
    assert _error_doc(capsys) == {
        "error": "1025 predictions x 1024 ground truths exceed 1048576 pairs in a frame "
                 "(frame=3)", "kind": "contract"}
    assert not report.exists()


@pytest.mark.parametrize("command", ["eval-map", "eval-mota"])
def test_eval_rejects_files_of_different_joint_sets(scene_pred, tmp_path, capsys, command):
    gt = _pose_file(tmp_path / "gt.json", {}, joint_set="coco")
    report = tmp_path / "report.json"
    assert main([command, "--pred", str(scene_pred), "--gt", str(gt), "--json", str(report)]) == 2
    assert _error_doc(capsys) == {
        "error": "prediction joint set 'posetrack' != ground truth 'coco'", "kind": "contract"}
    assert not report.exists()


def test_eval_map_scores_0_for_a_joint_no_prediction_reports(tmp_path, capsys):
    pred = _pose_file(tmp_path / "pred.json", {0: [{"annotated": [0] + [1] * 14}]})
    gt = _pose_file(tmp_path / "gt.json", {0: [{"person_id": 0, "head_size": 10.0}]})
    report = tmp_path / "report.json"
    assert main(["eval-map", "--pred", str(pred), "--gt", str(gt), "--json", str(report)]) == 0
    ap = json.loads(report.read_text())["per_joint_ap"]
    assert ap.pop("nose") == 0.0 and set(ap.values()) == {100.0}


@pytest.mark.parametrize("k, height, width, message", [
    (14, 16, 12, "heatmap has 14 channels but joint set 'posetrack' has 15"),
    (15, 2, 12, "heatmap grid must be at least 3x3"),
    (15, 16, 2, "heatmap grid must be at least 3x3"),
])
def test_decode_rejects_a_heatmap_header_that_breaks_a_heatmap_rule(tmp_path, capsys, k, height,
                                                                   width, message):
    path = tmp_path / "h.pkhm"
    path.write_bytes(heatmaps._HEADER.pack(
        heatmaps._MAGIC, heatmaps._VERSION, k, height, width, 0.0, 0.0, float(width),
        float(height), 1.0, 1.0, len(b"posetrack")) + b"posetrack" + bytes(4 * k * height * width))
    out = tmp_path / "pose.json"
    assert main(["decode", "--heatmap", str(path), "--out", str(out)]) == 2
    assert _error_doc(capsys) == {"error": f"{message} (file={path})", "kind": "contract"}
    assert not out.exists()


def test_decode_rejects_heatmap_with_non_utf8_name(tmp_path, capsys):
    hm, _ = render_target(np.tile([[5.0, 7.0]], (15, 1)), 2.0, (16, 12),
                          joint_set="posetrack")
    path = tmp_path / "h.pkhm"
    save_heatmap(hm, path)
    blob = bytearray(path.read_bytes())
    name_end = len(blob) - hm.values.nbytes
    blob[name_end - len("posetrack"):name_end] = b"\xff" * len("posetrack")
    path.write_bytes(bytes(blob))
    out = tmp_path / "pose.json"
    assert main(["decode", "--heatmap", str(path), "--out", str(out)]) == 2
    doc = _error_doc(capsys)
    assert doc["kind"] == "contract" and "UTF-8" in doc["error"]
    assert not out.exists()


def test_eval_mota_rejects_repeated_person_id_in_a_frame(scene_dir, scene_pred, tmp_path,
                                                         capsys):
    gt = json.loads((scene_dir / "gt.json").read_text())
    first, second = gt["frames"][0]["instances"][:2]
    second["person_id"] = first["person_id"]
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(gt))
    report = tmp_path / "report.json"
    assert main(["eval-mota", "--pred", str(scene_pred), "--gt", str(path),
                 "--json", str(report)]) == 2
    doc = _error_doc(capsys)
    assert doc["kind"] == "contract" and "duplicate person ids" in doc["error"]
    assert not report.exists()


# sha256 of the --json report of each eval command on the golden output
# against the golden scene's ground truth, per PCKh threshold
_EVAL_JSON_SHA256 = {
    ("eval-map", "0.2"): "f923c8dfe5a0be2d958c6c9380134a777895a717e651809f1bbf57a76e5ce387",
    ("eval-map", "0.5"): "f923c8dfe5a0be2d958c6c9380134a777895a717e651809f1bbf57a76e5ce387",
    ("eval-map", "1.0"): "f923c8dfe5a0be2d958c6c9380134a777895a717e651809f1bbf57a76e5ce387",
    ("eval-mota", "0.2"): "3e69bace36aea43ab2eaa14cb4cd8488eefb3b688d65c1f9fe6db1d4b4a3a606",
    ("eval-mota", "0.5"): "983b7b50a884c4bf779bde9fe19b1bccfcfd4fd5f38dd8380db7d43f1a4d1d58",
    ("eval-mota", "1.0"): "1d6b73fbc5bc236fa8777990821a9bfdf4fae5b6ec1f94f983c435aac11a8c81",
}


@pytest.mark.parametrize("command, thr", sorted(_EVAL_JSON_SHA256))
def test_eval_json_bytes_are_pinned(golden_scene_dir, tmp_path, command, thr):
    report = tmp_path / "report.json"
    assert main([command, "--pred", GOLDEN_PATH, "--gt", str(golden_scene_dir / "gt.json"),
                 "--pckh-thr", thr, "--json", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == _EVAL_JSON_SHA256[command, thr]


# sha256 of the golden scene's input files: manifest.json, gt.json, and the
# 78 heatmaps/* files, each name then its bytes, in sorted-name order
_GOLDEN_SCENE_SHA256 = {
    "manifest.json": "4ec22b1a5e5c0c098225191ac791a9eaad23f6b031f9d1c5a9e034814b0dd9b0",
    "gt.json": "e792b6ad2e576509c01fead743d1f4493eba1c217ca9458d936eaa2b579036c4",
    "heatmaps": "d351aee579bd1ea86eb418a92aac8531da32cd19f8b9bd65fa7ebf2b1b89aaa2",
}


def test_golden_scene_inputs_are_pinned(golden_scene_dir):
    got = {name: hashlib.sha256((golden_scene_dir / name).read_bytes()).hexdigest()
           for name in ("manifest.json", "gt.json")}
    names = sorted(os.listdir(golden_scene_dir / "heatmaps"))
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode("utf-8"))
        digest.update((golden_scene_dir / "heatmaps" / name).read_bytes())
    got["heatmaps"] = digest.hexdigest()
    assert len(names) == 78
    assert got == _GOLDEN_SCENE_SHA256


def _blas_core(coretype=None):
    """The ``Core:`` OpenBLAS reports when numpy loads in a fresh interpreter,
    with OPENBLAS_CORETYPE set to coretype (unset for None); None if none."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["OPENBLAS_VERBOSE"] = "2"
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                          capture_output=True, text=True)
    cores = re.findall(r"^Core: (\S+)", proc.stdout + proc.stderr, re.MULTILINE)
    return cores[-1] if cores else None


# synth --seed 0, run, and both evals at PCKh 0.5, all in one interpreter
_GOLDEN_SCRIPT = """
import sys
from posepipe.cli import main
out = sys.argv[1]
steps = [["synth", "--out", out, "--seed", "0"],
         ["run", "--manifest", out + "/manifest.json", "--out", out + "/pred.json"]]
steps += [[cmd, "--pred", out + "/pred.json", "--gt", out + "/gt.json",
           "--pckh-thr", "0.5", "--json", out + "/" + cmd + ".json"]
          for cmd in ("eval-map", "eval-mota")]
sys.exit(max(main(step) for step in steps))
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_golden_and_eval_bytes_hold_under_a_forced_blas_kernel(tmp_path, coretype):
    default, forced = _blas_core(), _blas_core(coretype)
    if forced is None or forced == default:
        pytest.skip(f"OPENBLAS_CORETYPE={coretype} selects no kernel other than the "
                    f"default (OpenBLAS reports {forced!r}, default {default!r})")
    src = os.path.dirname(os.path.dirname(posepipe.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _GOLDEN_SCRIPT, str(tmp_path)], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    with open(GOLDEN_PATH, "rb") as f:
        assert (tmp_path / "pred.json").read_bytes() == f.read()
    for command in ("eval-map", "eval-mota"):
        report = (tmp_path / f"{command}.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == _EVAL_JSON_SHA256[command, "0.5"]


_HEADER = "    Head | Shoulder |    Elbow |    Wrist |      Hip |     Knee |    Ankle |    Total"
_GROUPS = "   100.0 |    100.0 |    100.0 |     75.0 |    100.0 |    100.0 |     75.0 |     93.3"
# the stdout table of each eval command on the golden output at PCKh 0.2
_EVAL_TABLE = {
    "eval-map": f"{_HEADER}\n{_GROUPS}\n",
    "eval-mota": f"{_HEADER} |     MOTP |     Prec |      Rec\n"
                 f"{_GROUPS} |     40.8 |    100.0 |     93.3\n",
}


@pytest.mark.parametrize("command, fn", [("eval-map", compute_map), ("eval-mota", compute_mota)])
def test_eval_report_is_the_json_document(golden_scene_dir, tmp_path, capsys, command, fn):
    # compute_map/compute_mota return the document --json writes, key for
    # key, and the table on stdout is format_table of that same document
    gt_path, report = golden_scene_dir / "gt.json", tmp_path / "report.json"
    assert main([command, "--pred", GOLDEN_PATH, "--gt", str(gt_path), "--pckh-thr", "0.2",
                 "--json", str(report)]) == 0
    doc = fn(load_pose_file(GOLDEN_PATH), load_pose_file(gt_path), threshold=0.2)
    assert report.read_text() == json.dumps(doc, indent=2) + "\n"
    assert capsys.readouterr().out == format_table(doc) + "\n" == _EVAL_TABLE[command]


def test_golden_file_is_canonical():
    with open(GOLDEN_PATH) as f:
        golden = f.read()
    assert document_text(pose_document(load_pose_file(GOLDEN_PATH))) == golden


def _never(*args):
    # stands in for the kernel and index builders: raising, not building,
    # keeps a broken bound from allocating what sigma 1e6 asks for (~15 GB)
    raise AssertionError(f"smoothing built a kernel or index for {args}")


@pytest.mark.parametrize("sigma", ["100.000001", "1e6"])
@pytest.mark.parametrize("command", ["decode", "fuse", "run"])
def test_a_smooth_sigma_above_100_is_rejected_before_smoothing(golden_scene_dir, tmp_path,
                                                              capsys, monkeypatch, command,
                                                              sigma):
    monkeypatch.setattr("posepipe.heatmaps._gaussian_kernel", _never)
    monkeypatch.setattr("posepipe.heatmaps._reflect_index", _never)
    hm, _ = render_target(np.tile([[5.0, 7.0]], (15, 1)), 2.0, (16, 12),
                          joint_set="posetrack")
    save_heatmap(hm, tmp_path / "h.pkhm")
    out = tmp_path / "pose.json"
    if command == "run":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"smooth_sigma": {sigma}}}')
        argv = ["run", "--config", str(cfg),
                "--manifest", str(golden_scene_dir / "manifest.json")]
    elif command == "decode":
        argv = ["decode", "--heatmap", str(tmp_path / "h.pkhm"), "--smooth-sigma", sigma]
    else:
        argv = ["fuse", "--strategy", "select:posetrack", "--target", "posetrack",
                "--branch", f"posetrack={tmp_path / 'h.pkhm'}", "--smooth-sigma", sigma]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    doc = json.loads(err)
    assert doc["kind"] == "contract" and doc["error"].startswith("smoothing sigma")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["nms", "{deep}"],
    ["track", "{deep}"],
    ["merge-boxes", "{deep}"],
    ["run", "--manifest", "{deep}"],
    ["run", "--config", "{deep}", "--manifest", "{deep}"],
    ["train-toy", "--config", "{deep}"],
    ["eval-map", "--pred", "{deep}", "--gt", GOLDEN_PATH],
    ["eval-mota", "--pred", GOLDEN_PATH, "--gt", "{deep}"],
], ids=lambda argv: " ".join(argv[:2]))
def test_a_1000_deep_document_is_a_one_line_contract_error(tmp_path, capsys, argv):
    # 2 KB of nesting used to end in a RecursionError traceback and exit 1
    deep, out = tmp_path / "deep.json", tmp_path / "out.json"
    deep.write_text("[" * 1000 + "]" * 1000)
    flag = "--json" if argv[0].startswith("eval") else "--out"
    assert main([a.format(deep=deep) for a in argv] + [flag, str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    doc = json.loads(err)
    assert doc["kind"] == "contract"
    assert re.fullmatch(r"[a-z ]+ is not valid JSON: maximum recursion depth exceeded .* "
                        rf"\(file={re.escape(str(deep))}\)", doc["error"])
    assert not out.exists()


def test_the_parser_is_built_once_and_dispatches_by_name(monkeypatch):
    from posepipe import cli
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_run", lambda args: seen.append(args.manifest))
    assert main(["run", "--manifest", "m.json", "--out", "o.json"]) == 0
    assert seen == ["m.json"]


@pytest.mark.parametrize("command", [[], ["synth"], ["train-toy"], ["decode"], ["fuse"],
                                     ["merge-boxes"], ["nms"], ["track"], ["eval-map"],
                                     ["eval-mota"], ["run"]])
def test_help_is_the_help_of_a_freshly_built_parser(capsys, command):
    from posepipe import cli
    with pytest.raises(SystemExit):
        cli.build_parser.__wrapped__().parse_args(command + ["--help"])
    fresh = capsys.readouterr().out
    for _ in range(2):
        with pytest.raises(SystemExit):
            main(command + ["--help"])
        assert capsys.readouterr().out == fresh


def test_run_rejects_a_box_whose_area_underflows(golden_scene_dir, tmp_path, capsys):
    # w * h = 1e-400 is 0.0; the stacked instance check of the decoded frame
    # reports it as each crop's own check did
    doc = json.loads((golden_scene_dir / "manifest.json").read_text())
    for frame in doc["frames"]:
        for entry in frame["instances"]:
            for key in ("heatmaps", "flipped_heatmaps"):
                entry[key] = {b: str(golden_scene_dir / p) for b, p in entry[key].items()}
    doc["frames"][1]["instances"][1]["box"][2:] = [1e-200, 1e-200]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert _error_doc(capsys) == {"error": "instance area must be positive", "kind": "contract"}
    assert not out.exists()


def test_run_reads_a_manifest_as_utf8_under_an_ascii_locale(tmp_path, capsys):
    # under LC_ALL=C without UTF-8 mode the manifest used to be decoded as
    # ASCII, and run exited 2 with "manifest is not valid JSON"; now its path
    # is read as written, and only the file system's ASCII names fail (io)
    root = os.fsencode(tmp_path)
    os.mkdir(os.path.join(root, "h\u00e9".encode("utf-8")))
    _coco_heatmap(os.path.join(root, "h\u00e9/coco.pkhm".encode("utf-8")))
    manifest, out = tmp_path / "manifest.json", tmp_path / "out.json"
    manifest.write_bytes(json.dumps({"frames": [{"frame_index": 0, "instances": [
        {"box": [0, 0, 10, 10], "heatmaps": {"coco": "h\u00e9/coco.pkhm"}}]}]},
        ensure_ascii=False).encode("utf-8"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fusion": "select:coco", "use_tracking": False}))
    argv = ["run", "--config", str(config), "--manifest", str(manifest), "--out", str(out)]
    src = os.path.dirname(os.path.dirname(posepipe.__file__))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "posepipe.cli"] + argv, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    error = json.loads(proc.stderr)
    assert error["kind"] == "io"
    assert error["error"].startswith("'ascii' codec can't encode character '\\xe9'")
    # the error names the file it could not open
    assert error["error"].endswith(": " + repr(os.path.join(str(tmp_path), "hé/coco.pkhm")))
    assert not out.exists()
    if sys.getfilesystemencoding() == "utf-8":   # a locale that can name the file
        assert main(argv) == 0 and out.exists()
