"""Byte pins for the tracker knobs that the golden scene cannot tell apart.

The persons of ``generate_scene`` move slowly and stand far apart, so the
golden output is the same under ``{"matcher": "greedy"}`` and under
``{"use_flow_track": false}``. Each scene here is built from rendered
heatmaps so that one knob changes the output of ``posepipe run``:

* propagator: one person whose first step is 2 px and every later one 7 or
  8 px. Velocity propagation predicts each later step closely enough to keep
  track 0; identity propagation loses it on every frame from frame 2, and
  pruning drops the one-frame tracks left behind;
* matcher: two persons 9 px apart, both stepping 5 px left per frame. On
  frame 1 the left person's track lies nearer the right person's detection
  (4 px) than its own (5 px). The greedy matcher takes that cell first, so
  each frame opens a track that pruning drops; Hungarian keeps both
  identities.

The sha256 of the default run and of the knob run are pinned for each
scene, so wiring a knob to a constant fails one of them.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from posepipe import scenes
from posepipe.cli import main
from posepipe.poseio import load_pose_file, write_document
from posepipe.synthetic import figure_points


def _write_scene(outdir, paths):
    """Write heatmaps/ and manifest.json for one body per path; paths[p][t]
    is the (x, y) offset of person p on frame t. Returns the manifest path."""
    base = figure_points(np.random.default_rng(0), 24, 18)
    body = (base - base.mean(axis=0)) * 4.0
    os.makedirs(os.path.join(outdir, "heatmaps"))
    frames = []
    for t in range(len(paths[0])):
        entries = []
        for p, path in enumerate(paths):
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


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    return {name: _write_scene(str(tmp_path_factory.mktemp(name)), paths)
            for name, paths in _SCENES.items()}


@pytest.mark.parametrize("scene", sorted(_PINS))
def test_tracker_knob_changes_the_pinned_bytes(manifests, tmp_path, scene):
    digests = []
    for config, want_ids, want_sha256 in _PINS[scene]:
        cfg, out = tmp_path / "config.json", tmp_path / "out.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--manifest", manifests[scene],
                     "--out", str(out)]) == 0
        frames = load_pose_file(out).frames
        assert [[p.track_id for p in instances] for _, instances in frames] == want_ids
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[-1] == want_sha256, config
    assert digests[0] != digests[1]
