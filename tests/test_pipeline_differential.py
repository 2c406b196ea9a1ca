"""Differential property test of the pipeline against tests/oracles.py.

Hypothesis draws a small generated scene and a config. ``run_pipeline``'s
bytes must equal those of the same run with its step list rewritten: the
``decode+fuse`` step flip-merges each branch whole through
``reference_flip_merge`` and fuses through ``reference_fuse_head_swap`` or
``reference_fuse_vote``, the ``oks-nms`` step suppresses through
``reference_oks`` and ``reference_greedy_nms``, and tracking assigns through
``reference_lex_hungarian`` in place of the Hungarian solver.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from posepipe import pipeline, tracking
from posepipe.config import PipelineConfig
from posepipe.fusion import BranchOutputs, parse_fusion_spec
from posepipe.heatmaps import load_heatmap
from posepipe.instances import InstanceStack
from posepipe.pipeline import load_manifest, run_pipeline, steps, to_instances
from posepipe.poseio import document_text, pose_document
from posepipe.scenes import generate_scene

from oracles import (
    reference_flip_merge,
    reference_fuse_head_swap,
    reference_fuse_vote,
    reference_greedy_nms,
    reference_lex_hungarian,
    reference_oks,
)


def reference_steps(config):
    """steps(config) with decode+fuse and oks-nms composed from the oracles."""
    kind, names = parse_fusion_spec(config.fusion)
    consts = config.oks_constants()
    decode_args = (config.target_joint_set, config.smooth_sigma, config.use_quarter_offset)

    def branch(entry, name):
        h = load_heatmap(entry["heatmaps"][name])
        flipped = entry.get("flipped_heatmaps", {})
        return reference_flip_merge(h, load_heatmap(flipped[name])) if name in flipped else h

    def decode_fuse(entries):
        out = []
        for e in entries:
            b = BranchOutputs({name: branch(e, name) for name in e["heatmaps"]})
            decoded = (reference_fuse_head_swap(b, *names, *decode_args) if kind == "head-swap"
                       else reference_fuse_vote(b, *decode_args))
            out += to_instances(consts.joint_set, [decoded], [e["box"]],
                                [e["box_score"]]).instances()
        return InstanceStack.of(consts.joint_set, out)

    def nms(stack):
        instances = stack.instances()
        sims = [[reference_oks(a, b, consts) for b in instances] for a in instances]
        keep = reference_greedy_nms(sims, [p.score for p in instances], config.oks_nms_threshold)
        return stack.take(keep)

    reference = {"decode+fuse": decode_fuse, "oks-nms": nms}
    return [(name, reference.get(name, step)) for name, step in steps(config)]


def pose_bytes(config, frames):
    return document_text(pose_document(run_pipeline(config, frames)))


@pytest.fixture(scope="module")
def scenes():
    """(num_frames, num_persons, seed) -> that scene's manifest frames, filled
    as examples draw them, so that each scene is generated once."""
    return {}


@settings(derandomize=True, max_examples=80, deadline=None)
@given(num_frames=st.integers(1, 4), num_persons=st.integers(1, 3), seed=st.integers(0, 15),
       duplicate=st.booleans(),
       fusion=st.sampled_from(["head-swap:coco,mpii", "head-swap:posetrack,mpii", "vote"]),
       use_box_rescore=st.booleans(), use_oks_nms=st.booleans(), use_tracking=st.booleans())
def test_pipeline_matches_the_oracle_composition(scenes, tmp_path_factory, num_frames,
                                                 num_persons, seed, duplicate, fusion,
                                                 **switches):
    key = (num_frames, num_persons, seed)
    if key not in scenes:
        manifest, _ = generate_scene(str(tmp_path_factory.mktemp("scene")), *key)
        scenes[key] = load_manifest(manifest)
    frames = scenes[key]
    if duplicate:   # every detection twice, so that OKS-NMS has work to do
        frames = [(fidx, entries + entries) for fidx, entries in frames]
    config = PipelineConfig(fusion=fusion, **switches)
    want = pose_bytes(config, frames)
    with mock.patch.object(pipeline, "steps", reference_steps), \
            mock.patch.dict(tracking.MATCHERS, hungarian=reference_lex_hungarian):
        assert pose_bytes(config, frames) == want
