"""Byte pins for every ``PipelineConfig`` field: changing any one field
changes the output of ``posepipe run`` on some pinned scene.

Eleven fields change the golden scene's output (``synth --seed 0``) with one
value each. The persons of ``generate_scene`` move slowly, stand far apart
and are never hidden, and no two detections overlap, so the golden output is
the same under the other six fields' values tried here. Each of those gets a
scene built from rendered heatmaps so that it changes the output:

* propagator: one person whose first step is 2 px and every later one 7 or
  8 px. Velocity propagation predicts each later step closely enough to keep
  track 0; identity propagation loses it on every frame from frame 2, and
  pruning drops the one-frame tracks left behind;
* matcher: two persons 9 px apart, both stepping 5 px left per frame. On
  frame 1 the left person's track lies nearer the right person's detection
  (4 px) than its own (5 px). The greedy matcher takes that cell first, so
  each frame opens a track that pruning drops; Hungarian keeps both
  identities;
* oks_nms_threshold: one person detected twice on each of 2 frames, the
  copies 4 px apart. Their OKS, 0.553, is over the default 0.4, so NMS keeps
  one copy; at 0.9 it keeps both;
* oks_falloff_overrides: the same with the copies 6 px apart (OKS 0.298,
  both kept). Fall-off 1.0 for the hips and knees raises it to 0.444, so NMS
  drops one;
* oks_extra_falloff: the same with the copies 5 px apart (OKS 0.416, one
  kept). Fall-off 0.02 for the two head joints that COCO lacks lowers it to
  0.359, so both are kept;
* lookback: one person, absent on frames 2 and 3. The default 8-frame
  lookback keeps track 0 across the gap; at 1 the track retires and the
  person comes back as track 1.

The sha256 of the default run and of the knob run are pinned for the first
two scenes, and of the run with the one field changed for every field, so
wiring a field to a constant fails a pin.
"""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from posepipe import scenes
from posepipe.cli import main
from posepipe.config import PipelineConfig
from posepipe.poseio import load_pose_file, write_document
from posepipe.synthetic import figure_points

from make_golden import GOLDEN_SEED


def _write_scene(outdir, paths):
    """Write heatmaps/ and manifest.json for one body per path; paths[p][t]
    is the (x, y) offset of person p on frame t, or None where p is absent.
    Returns the manifest path."""
    base = figure_points(np.random.default_rng(0), 24, 18)
    body = (base - base.mean(axis=0)) * 4.0
    os.makedirs(os.path.join(outdir, "heatmaps"))
    frames = []
    for t in range(len(paths[0])):
        entries = []
        for p, path in enumerate(paths):
            if path[t] is None:
                continue
            pts = body + np.asarray(path[t], dtype=np.float64)
            crop, strides = scenes._crop_for(pts, 0.18)
            heatmaps = {branch: scenes._render_instance(pts, crop, strides, 2.5, branch, {},
                                                        np.random.default_rng([t, p, b]))
                        for b, branch in enumerate(scenes.BRANCHES)}
            entries.append(scenes._write_crop(outdir, f"f{t}_p{p}", crop, 0.93, heatmaps,
                                              with_flipped=True))
        frames.append({"frame_index": t, "instances": entries})
    manifest = os.path.join(outdir, "manifest.json")
    write_document(manifest, {"frames": frames})
    return manifest


_SCENES = {
    "propagator": [[(300.0 + x, 240.0) for x in (0, 2, 9, 17, 24, 32)]],
    "matcher": [[(300.0 - x, 240.0) for x in (0, 5, 10)],
                [(309.0 - x, 240.0) for x in (0, 5, 10)]],
    "oks_nms_threshold": [[(300.0, 240.0)] * 2, [(304.0, 240.0)] * 2],
    "oks_falloff_overrides": [[(300.0, 240.0)] * 2, [(306.0, 240.0)] * 2],
    "oks_extra_falloff": [[(300.0, 240.0)] * 2, [(305.0, 240.0)] * 2],
    "lookback": [[None if t in (2, 3) else (300.0, 240.0) for t in range(6)]],
}

# scene -> (config, track ids per frame of its run, sha256 of its pose file)
_PINS = {
    "propagator": [
        ({}, [[0]] * 6,
         "cd8ff12cdc6404572c8d7a8d3b92e56dcdcf2c119f473f3db067b42a0e655485"),
        ({"use_flow_track": False}, [[0], [0], [], [], [], []],
         "c0d26fb066c63d83fcd6c7ea6239e46af2023d675c0a2d0a6974c6231b02c9f1"),
    ],
    "matcher": [
        ({}, [[0, 1]] * 3,
         "70bd4a3183a1f61ee6246c4e3aabd581017899a605ef3afdebdf9a675956f6fb"),
        ({"matcher": "greedy"}, [[1], [1, 2], [2]],
         "070c729d44be5817ea0e2a89dc258eb8cc1f040730d08f499f53705417c8b069"),
    ],
}


# field -> (scene, the field's value, track ids per frame of the run where
# the scene is built here, sha256 of the run)
_ABLATIONS = {
    "target_joint_set": ("golden", "coco", None,
                         "39d974b5b5e4b59390cafaedbcac13cf636e4261e08f4ce8ad6682a7a3e1ae27"),
    "fusion": ("golden", "vote", None,
               "721625174df07915ada913fa9f0153167306cd0a34122e84cf3e2f45a3d897c2"),
    "use_tracking": ("golden", False, None,
                     "0011526ce3062bffea5d4ee828c089a7b551c13fce9885a29f199b6b12fac3e5"),
    "similarity_threshold": ("golden", 0.9, None,
                             "398bc8617ef113efc8922c4d10abdf06eb206a0d22b44a067f2273bf36a1c85c"),
    "use_oks_nms": ("golden", False, None,
                    "c0d6125f79727eebf51fdbec199ca95be76d9cd34fa5ac0e1c9130dfff2a775d"),
    "use_box_rescore": ("golden", False, None,
                        "33d51bebff3d1bd5aa93e293af984a074c137803780fe3a6a4468594a940069f"),
    "min_track_length": ("golden", 1, None,
                         "d42e8ee5acb2da72a3c838822fbf4f6dfb9e8f8b4ea1103b0cf4723e804dd054"),
    "smooth_sigma": ("golden", 0, None,
                     "705c02e1697af8e7b00a3eda1e4f7126a283661717539c36c26cb78fdeec286d"),
    "use_quarter_offset": ("golden", False, None,
                           "9c5c1e51facb7871b47895f18e2aee2530e4d932e8c7570bb7a1fec96db5b7d9"),
    "keypoint_threshold": ("golden", 0, None,
                           "e71f2f005530dfb19849fae8728a90ff8f429ded33167faad6e678c8977ecc91"),
    "box_threshold": ("golden", 0, None,
                      "8a40fb7a88a94a0b84fad365a73a8a489eff183784e87ec5749093779c3efa29"),
    "oks_nms_threshold": ("oks_nms_threshold", 0.9, [[0, 1]] * 2,
                          "0bfcb73fc4fb828332f05bb453577d1c0cffa4e9f898443ccd891a04d1284fe9"),
    "oks_falloff_overrides": ("oks_falloff_overrides",
                              dict.fromkeys(("left_hip", "right_hip", "left_knee", "right_knee"),
                                            1.0), [[0]] * 2,
                              "de29489651328c2573c05d036be87ab9f347a643d4be7f82f6593299908a8d30"),
    "oks_extra_falloff": ("oks_extra_falloff", 0.02, [[0, 1]] * 2,
                          "034990d3037f20c83dceb4179d4adeb8416be569910f5b3a3e5a46d464ea4051"),
    "lookback": ("lookback", 1, [[0], [0], [], [], [1], [1]],
                 "38e51ef40597465c40895748f74588c4909fba8d687d05b60a9e6521644be016"),
}


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    out = {name: _write_scene(str(tmp_path_factory.mktemp(name)), paths)
           for name, paths in _SCENES.items()}
    out["golden"], _ = scenes.generate_scene(str(tmp_path_factory.mktemp("golden")),
                                             seed=GOLDEN_SEED)
    return out


def _run(manifest, config, tmp_path):
    """(track ids per frame, sha256) of ``posepipe run`` under config."""
    cfg, out = tmp_path / "config.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--manifest", manifest,
                 "--out", str(out)]) == 0
    frames = load_pose_file(out).frames
    return ([list(stack.track_id) for _, stack in frames],
            hashlib.sha256(out.read_bytes()).hexdigest())


@pytest.mark.parametrize("scene", sorted(_PINS))
def test_tracker_knob_changes_the_pinned_bytes(manifests, tmp_path, scene):
    digests = []
    for config, want_ids, want_sha256 in _PINS[scene]:
        ids, digest = _run(manifests[scene], config, tmp_path)
        assert ids == want_ids
        digests.append(digest)
        assert digests[-1] == want_sha256, config
    assert digests[0] != digests[1]


@pytest.mark.parametrize("field", sorted(_ABLATIONS))
def test_config_field_changes_the_pinned_bytes(manifests, tmp_path, field):
    scene, value, want_ids, want_sha256 = _ABLATIONS[field]
    ids, digest = _run(manifests[scene], {field: value}, tmp_path)
    assert digest != _run(manifests[scene], {}, tmp_path)[1]
    if want_ids is not None:
        assert ids == want_ids
    assert digest == want_sha256


def test_every_config_field_has_a_pin():
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert fields == set(_ABLATIONS) | {"matcher", "use_flow_track"}
