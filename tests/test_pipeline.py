import dataclasses
import json
import logging

import numpy as np
import pytest

from posepipe import PoseError
from posepipe.config import PipelineConfig
from posepipe.evaluation import compute_mota
from posepipe.heatmaps import Heatmap
from posepipe.instances import PersonInstance
from posepipe.pipeline import fuse, load_manifest, run_pipeline, steps, to_instances
from posepipe.poseio import document_text, load_pose_file, pose_document, write_document
from posepipe.scenes import generate_scene

from make_golden import GOLDEN_PATH, GOLDEN_SEED


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("scene")
    manifest_path, gt_path = generate_scene(str(outdir), seed=GOLDEN_SEED)
    return {
        "frames": load_manifest(manifest_path),
        "manifest_path": manifest_path,
        "gt": load_pose_file(gt_path),
    }


def test_default_pipeline_matches_golden_file(scene):
    seq = run_pipeline(PipelineConfig(), scene["frames"])
    with open(GOLDEN_PATH) as f:
        golden = f.read()
    assert document_text(pose_document(seq)) == golden


def test_pipeline_is_byte_reproducible(scene):
    a = document_text(pose_document(run_pipeline(PipelineConfig(), scene["frames"])))
    b = document_text(pose_document(run_pipeline(PipelineConfig(), scene["frames"])))
    assert a == b


def test_decode_only_pipeline_keeps_everything(scene):
    cfg = PipelineConfig(use_box_rescore=False, box_threshold=0,
                         keypoint_threshold=0, use_oks_nms=False,
                         use_tracking=False)
    seq = run_pipeline(cfg, scene["frames"])
    for (fidx, instances), (fidx2, entries) in zip(seq.frames, scene["frames"]):
        assert fidx == fidx2
        assert len(instances) == len(entries)
        # without re-scoring the instance score is the box score
        for inst, entry in zip(instances.instances(), entries):
            assert inst.score == entry["box_score"]


def test_disabling_oks_nms_doubles_duplicated_instances(scene):
    # duplicate every instance entry of the first frame
    fidx, entries = scene["frames"][0]
    frames = [(fidx, entries + entries)]
    cfg = PipelineConfig(use_tracking=False)
    with_nms = run_pipeline(cfg, frames)
    without = run_pipeline(dataclasses.replace(cfg, use_oks_nms=False), frames)
    assert len(without.frames[0][1]) == 2 * len(with_nms.frames[0][1])


def test_tracklet_pruning_removes_one_frame_clutter(scene):
    gt = scene["gt"]
    base = run_pipeline(PipelineConfig(), scene["frames"])
    nopr = run_pipeline(PipelineConfig(min_track_length=1), scene["frames"])
    base_fp = compute_mota(base, gt)["counts"]["fp"]
    nopr_fp = compute_mota(nopr, gt)["counts"]["fp"]
    base_tracks = {p.track_id for _, ii in base.frames for p in ii.instances()}
    nopr_tracks = {p.track_id for _, ii in nopr.frames for p in ii.instances()}
    assert len(nopr_tracks) > len(base_tracks)
    assert nopr_fp > base_fp


def test_keypoint_threshold_removes_weak_joints(scene):
    gt = scene["gt"]
    base = run_pipeline(PipelineConfig(), scene["frames"])
    nokp = run_pipeline(PipelineConfig(keypoint_threshold=0), scene["frames"])
    base_fp = compute_mota(base, gt)["counts"]["fp"]
    nokp_fp = compute_mota(nokp, gt)["counts"]["fp"]
    assert nokp_fp > base_fp
    base_joints = sum(int(p.annotated.sum()) for _, ii in base.frames for p in ii.instances())
    nokp_joints = sum(int(p.annotated.sum()) for _, ii in nokp.frames for p in ii.instances())
    assert nokp_joints > base_joints


def test_box_threshold_removes_low_scored_clutter(scene):
    gt = scene["gt"]
    base = run_pipeline(PipelineConfig(), scene["frames"])
    nobx = run_pipeline(PipelineConfig(box_threshold=0), scene["frames"])
    base_fp = compute_mota(base, gt)["counts"]["fp"]
    nobx_fp = compute_mota(nobx, gt)["counts"]["fp"]
    assert nobx_fp > base_fp


def test_pipeline_quality_on_clean_scene(scene):
    seq = run_pipeline(PipelineConfig(), scene["frames"])
    rep = compute_mota(seq, scene["gt"])
    assert rep["total_mota"] > 80.0
    assert rep["total_precision"] == 100.0
    # two true persons tracked without identity switches
    assert rep["counts"]["idsw"] == 0
    ids = {p.track_id for _, ii in seq.frames for p in ii.instances()}
    assert len(ids) == 2


def test_manifest_validation(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{bad json")
    with pytest.raises(PoseError):
        load_manifest(path)
    path.write_text(json.dumps({"frames": [{"frame_index": 1},
                                           {"frame_index": 0}]}))
    with pytest.raises(PoseError):
        load_manifest(path)
    path.write_text(json.dumps({"frames": [
        {"frame_index": 0, "instances": [{"box": [0, 0, 1, 1]}]}]}))
    with pytest.raises(PoseError):
        load_manifest(path)


def test_manifest_branch_mismatch(tmp_path, scene):
    # point a "coco" branch at a posetrack heatmap
    fidx, entries = scene["frames"][0]
    entry = {
        "box": entries[0]["box"],
        "box_score": 0.9,
        "heatmaps": {"coco": entries[0]["heatmaps"]["posetrack"]},
    }
    with pytest.raises(PoseError):
        run_pipeline(PipelineConfig(fusion="select:coco"), [(0, [entry])])


def test_config_round_trip_and_defaults(tmp_path):
    cfg = PipelineConfig()
    assert cfg.smooth_sigma == 1.0
    assert cfg.oks_nms_threshold == 0.4
    assert cfg.keypoint_threshold == 0.3
    assert cfg.lookback == 8
    assert cfg.min_track_length == 2
    assert cfg.similarity_threshold == 0.3
    path = tmp_path / "cfg.json"
    write_document(path, dataclasses.asdict(cfg))
    assert PipelineConfig.load(path) == cfg
    # omitted knobs get defaults
    path.write_text(json.dumps({"oks_nms_threshold": 0.5}))
    loaded = PipelineConfig.load(path)
    assert loaded.oks_nms_threshold == 0.5
    assert loaded.box_threshold == 0.4
    # unknown keys rejected
    path.write_text(json.dumps({"okr_nms_threshold": 0.5}))
    with pytest.raises(PoseError):
        PipelineConfig.load(path)


def test_config_validation():
    with pytest.raises(PoseError):
        PipelineConfig(matcher="exhaustive")
    with pytest.raises(PoseError):
        PipelineConfig(fusion="blend:coco")
    # each strategy takes its own number of non-empty branch names
    for bad in ("vote:coco", "head-swap:coco", "select:", "select:coco,mpii",
                "head-swap:,mpii", "head-swap:coco,mpii,posetrack"):
        with pytest.raises(PoseError):
            PipelineConfig(fusion=bad)
    assert PipelineConfig(use_flow_track=False).tracker().propagator == "identity"
    # each field must have its annotated type; an int is a float, a bool is
    # neither
    for bad in ({"use_tracking": "no"}, {"use_tracking": 0},
                {"similarity_threshold": "x"}, {"box_threshold": True},
                {"lookback": 8.0}, {"min_track_length": False},
                {"fusion": 5}, {"oks_falloff_overrides": []}):
        with pytest.raises(PoseError):
            PipelineConfig.from_dict(bad)
    assert PipelineConfig(box_threshold=0).box_threshold == 0
    # and each number must lie in its range
    for bad in ({"box_threshold": 5}, {"box_threshold": -0.1},
                {"keypoint_threshold": 2}, {"similarity_threshold": -1},
                {"similarity_threshold": float("nan")},
                {"oks_nms_threshold": 0}, {"oks_nms_threshold": 2},
                {"smooth_sigma": -1}, {"smooth_sigma": 100.000001},
                {"lookback": 0}, {"min_track_length": 0},
                {"oks_extra_falloff": 0}, {"oks_falloff_overrides": {"nose": -1}},
                {"oks_falloff_overrides": {"nose": "x"}},
                {"oks_falloff_overrides": {"nose": True}},
                {"oks_falloff_overrides": {"nose_typo": 0.5}},
                {"target_joint_set": "nope"}):
        with pytest.raises(PoseError):
            PipelineConfig.from_dict(bad)
    edges = PipelineConfig(box_threshold=1, keypoint_threshold=0, similarity_threshold=1,
                           oks_nms_threshold=1, smooth_sigma=0, lookback=1,
                           min_track_length=1, oks_falloff_overrides={"nose": 0.5})
    assert edges.oks_nms_threshold == 1 and edges.smooth_sigma == 0
    assert PipelineConfig(smooth_sigma=100).smooth_sigma == 100


STAGES = ["decode+fuse", "rescore", "thresholds", "oks-nms"]


def step_names(config):
    return [name for name, _ in steps(config)]


def test_steps_walk_the_fixed_stage_order():
    assert step_names(PipelineConfig()) == STAGES
    # a number at its off value and tracking off leave every per-frame step in
    assert step_names(PipelineConfig(box_threshold=0, keypoint_threshold=0,
                                     use_tracking=False)) == STAGES


@pytest.mark.parametrize("switch, stage", [("use_box_rescore", "rescore"),
                                           ("use_oks_nms", "oks-nms")])
def test_a_stage_switch_removes_exactly_its_step(switch, stage):
    assert step_names(PipelineConfig(**{switch: False})) == [s for s in STAGES if s != stage]


@pytest.mark.parametrize("use_tracking", [True, False])
@pytest.mark.parametrize("switches", [{}, {"use_box_rescore": False}, {"use_oks_nms": False}])
def test_logged_stages_are_the_step_names(scene, caplog, switches, use_tracking):
    cfg = PipelineConfig(use_tracking=use_tracking, **switches)
    with caplog.at_level(logging.INFO, logger="posepipe.pipeline"):
        run_pipeline(cfg, scene["frames"][:1])
    names = step_names(cfg) + ["track"] * use_tracking
    assert caplog.messages == ["pipeline stages: " + " -> ".join(names)]


def test_default_run_logs_every_stage(scene, caplog):
    with caplog.at_level(logging.INFO, logger="posepipe.pipeline"):
        run_pipeline(PipelineConfig(), scene["frames"][:1])
    assert caplog.messages == [
        "pipeline stages: decode+fuse -> rescore -> thresholds -> oks-nms -> track"]


def _recheck(h):
    """The full Heatmap check, run again on a copy of h; h must come out of
    it unchanged."""
    again = Heatmap(h.values.copy(), h.joint_set, h.crop, h.strides)
    assert h.values.dtype == np.float32 and h.values.flags.c_contiguous
    assert again.values.tobytes() == h.values.tobytes()
    assert (again.crop, again.strides) == (h.crop, h.strides)


@pytest.mark.parametrize("fusion", ["head-swap:coco,mpii", "vote", "select:coco"])
def test_every_map_built_without_the_check_passes_it(scene, monkeypatch, fusion):
    derive, built = Heatmap._derive, []

    def rechecked(self, values, joint_set=None):
        out = derive(self, values, joint_set)
        _recheck(out)
        built.append(out.joint_set)
        return out

    monkeypatch.setattr(Heatmap, "_derive", rechecked)
    seq = run_pipeline(PipelineConfig(fusion=fusion), scene["frames"])
    # per crop: flip-merges of the branches read, then the assembled map
    # (head-swap, vote) and its smoothed copy
    crops = sum(len(entries) for _, entries in scene["frames"])
    assert len(built) == crops * {"head-swap:coco,mpii": 4, "vote": 5, "select:coco": 2}[fusion]
    if fusion == PipelineConfig().fusion:
        with open(GOLDEN_PATH) as f:
            assert document_text(pose_document(seq)) == f.read()


def test_a_vote_crop_runs_the_full_heatmap_check_once_per_file(scene, monkeypatch):
    post_init, checked = Heatmap.__post_init__, []
    monkeypatch.setattr(Heatmap, "__post_init__",
                        lambda self: (checked.append(self.joint_set), post_init(self)))
    entry = scene["frames"][0][1][0]
    assert len(entry["heatmaps"]) == len(entry["flipped_heatmaps"]) == 3
    fuse(entry["heatmaps"], entry["flipped_heatmaps"], "vote", "posetrack", 1.0, True)
    assert sorted(checked) == sorted(list(entry["heatmaps"]) * 2)


def test_a_frame_s_instances_are_each_crop_s_instance(scene):
    # one stacked check over a frame gives the instances that checking each
    # crop alone gives, field by field
    entries = scene["frames"][0][1]
    decoded = [fuse(e["heatmaps"], e["flipped_heatmaps"], "vote", "posetrack", 1.0, True)
               for e in entries]
    stacked = to_instances(decoded[0].joint_set, decoded, [e["box"] for e in entries],
                           [e["box_score"] for e in entries]).instances()
    assert len(stacked) == len(entries) > 1
    for p, d, e in zip(stacked, decoded, entries):
        one = PersonInstance(box=np.asarray(e["box"], dtype=np.float64),
                             box_score=e["box_score"], coords=d.coords,
                             scores=np.clip(d.scores, 0.0, 1.0), annotated=d.annotated,
                             joint_set=d.joint_set)
        assert vars(p).keys() == vars(one).keys()
        for name, value in vars(one).items():
            got = vars(p)[name]
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype and got.tobytes() == value.tobytes()
            else:
                assert type(got) is type(value) and got == value
    assert to_instances("posetrack", [], [], []).instances() == []


@pytest.mark.parametrize("fusion", ["head-swap:coco,mpii", "vote"])
def test_a_joint_set_name_is_resolved_where_it_comes_in(scene, monkeypatch, fusion):
    # a run resolves each heatmap file's set name once, and the config's
    # target set a few times; 276 (head-swap) and 339 (vote) lookups when
    # every layer looked its set up by name
    from collections import Counter
    from posepipe import skeletons

    # a file's set name is its branch name
    files = Counter(branch for _, entries in scene["frames"] for e in entries
                    for key in ("heatmaps", "flipped_heatmaps") for branch in e[key])
    assert files.total() == 78
    names = []

    class Counting(dict):
        def __getitem__(self, name):
            names.append(name)
            return super().__getitem__(name)

    monkeypatch.setattr(skeletons, "_registry", Counting(skeletons._registry))
    seq = run_pipeline(PipelineConfig(fusion=fusion), scene["frames"])
    assert seq.frames and not files - Counter(names)
    rest = Counter(names) - files
    assert set(rest) == {"posetrack"} and rest.total() <= 5
