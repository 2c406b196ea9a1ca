"""Command-line interface.

Subcommands cover the whole pipeline: synth (make a synthetic sequence),
train-toy (multi-domain toy training), decode, fuse, merge-boxes, nms, track,
eval-map, eval-mota, and run (manifest -> tracked pose file). Errors print a
one-line JSON report on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys

import numpy as np

from .config import PipelineConfig
from .errors import PoseError
from .evaluation import PCKH_THRESHOLD, compute_map, compute_mota, format_table
from .heatmaps import decode, load_heatmap
from .instances import InstanceStack
from .pipeline import fuse, load_manifest, run_pipeline, to_instances, track_sequence
from .poseio import (
    BoxSequence,
    PoseSequence,
    load_box_file,
    load_pose_file,
    save_box_file,
    save_pose_file,
    write_document,
)
from .suppression import OksConstants, box_nms, oks_nms
from .scenes import generate_scene
from .synthetic import gen_synthetic
from .toynet import save_network
from .tracking import MATCHERS, PROPAGATORS, TrackerState
from .training import TrainConfig, train


def _save_decoded(decoded, path) -> None:
    """Save a lone decoded pose as a one-frame pose file, its box bounding
    the annotated joints with a one-cell margin."""
    ann = decoded.annotated
    if ann.any():
        lo = decoded.coords[ann].min(axis=0) - 1.0
        hi = decoded.coords[ann].max(axis=0) + 1.0
        box = np.concatenate([lo, hi - lo])
    else:
        box = [0.0, 0.0, 1.0, 1.0]
    stack = to_instances(decoded.joint_set, [decoded], [box], [1.0])
    save_pose_file(PoseSequence(decoded.joint_set, [(0, stack.instances())]), path)


def cmd_synth(args):
    manifest, gt = generate_scene(
        args.out, num_frames=args.frames, num_persons=args.persons,
        seed=args.seed, sigma=args.sigma,
        with_flipped=not args.no_flipped,
        with_weak_joints=not args.no_weak_joints,
        with_clutter=not args.no_clutter,
    )
    print(json.dumps({"manifest": manifest, "gt": gt}))


def cmd_train_toy(args):
    config = TrainConfig.load(args.config)
    specs = config.domain_specs
    datasets = {n: gen_synthetic(specs[n], config.train_sizes[n], config.data_seed)
                for n in specs}
    heldout = {n: gen_synthetic(specs[n], config.heldout_sizes[n], config.heldout_seed)
               for n in specs}
    if args.log:
        open(args.log, "w").close()   # truncate; train appends
    net, log = train(config.train_schedule, datasets, seed=args.seed,
                     config=config.net_config, heldout=heldout, log_path=args.log,
                     heldout_reference=config.heldout_reference)
    if args.out:
        save_network(net, args.out)
    print(json.dumps({"stages": len(config.train_schedule.stages), "final": log[-1]}))


def cmd_decode(args):
    h = load_heatmap(args.heatmap)
    _save_decoded(decode(h, args.smooth_sigma, not args.no_quarter_offset), args.out)


def _parse_branch_args(pairs):
    out = {}
    for spec in pairs or []:
        name, _, path = spec.partition("=")
        if not path:
            raise PoseError(f"expected NAME=PATH, got {spec!r}")
        if name in out:
            raise PoseError(f"branch {name!r} is named twice")
        out[name] = path
    return out


def cmd_fuse(args):
    _save_decoded(fuse(_parse_branch_args(args.branch), _parse_branch_args(args.flipped),
                       args.strategy, args.target, args.smooth_sigma,
                       not args.no_quarter_offset), args.out)


def cmd_merge_boxes(args):
    inputs = [load_box_file(p) for p in args.inputs]
    by_frame = {}
    for seq in inputs:
        for fidx, boxes in seq.frames:
            by_frame.setdefault(fidx, []).extend(boxes)
    frames = []
    for fidx in sorted(by_frame):
        boxes = by_frame[fidx]
        keep = box_nms([b for b, _ in boxes], [s for _, s in boxes], args.iou_thr)
        frames.append((fidx, [boxes[i] for i in keep]))
    save_box_file(BoxSequence(frames), args.out)


def cmd_nms(args):
    seq = load_pose_file(args.input)
    consts = OksConstants.for_joint_set(seq.joint_set)
    frames = []
    for fidx, instances in seq.frames:
        keep = oks_nms(InstanceStack.of(seq.joint_set, instances), args.oks_thr, consts)
        frames.append((fidx, [instances[i] for i in keep]))
    save_pose_file(PoseSequence(seq.joint_set, frames), args.out)


def cmd_track(args):
    seq = load_pose_file(args.input)
    tracker = TrackerState(OksConstants.for_joint_set(seq.joint_set),
                           sim_threshold=args.sim_thr, lookback=args.lookback,
                           matcher=args.matcher, propagator=args.propagator)
    frames = track_sequence([(fidx, InstanceStack.of(seq.joint_set, instances))
                             for fidx, instances in seq.frames], tracker, args.min_len)
    save_pose_file(PoseSequence(seq.joint_set, frames), args.out)


def _eval_common(args):
    fn = compute_map if args.kind == "map" else compute_mota
    report = fn(load_pose_file(args.pred), load_pose_file(args.gt), args.pckh_thr)
    print(format_table(report))
    if args.json:
        write_document(args.json, report)


def cmd_run(args):
    config = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    frames = load_manifest(args.manifest)
    seq = run_pipeline(config, frames)
    save_pose_file(seq, args.out)


@functools.cache
def build_parser():
    """The argument parser, built once per process. A subcommand names its
    function, which ``main`` looks up when it runs."""
    defaults = PipelineConfig()
    p = argparse.ArgumentParser(prog="posepipe",
                                description="multi-domain pose pipeline tools")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic heatmap sequence")
    s.add_argument("--out", required=True)
    s.add_argument("--frames", type=int, default=5)
    s.add_argument("--persons", type=int, default=2)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--sigma", type=float, default=2.5,
                   help="render sigma in heatmap cells")
    s.add_argument("--no-flipped", action="store_true")
    s.add_argument("--no-weak-joints", action="store_true")
    s.add_argument("--no-clutter", action="store_true")
    s.set_defaults(fn="cmd_synth")

    s = sub.add_parser("train-toy", help="train the toy multi-domain network")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="checkpoint path")
    s.add_argument("--log", help="JSON-lines metrics log path")
    s.set_defaults(fn="cmd_train_toy")

    s = sub.add_parser("decode", help="decode one heatmap file to a pose")
    s.add_argument("--heatmap", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--smooth-sigma", type=float, default=defaults.smooth_sigma)
    s.add_argument("--no-quarter-offset", action="store_true")
    s.set_defaults(fn="cmd_decode")

    s = sub.add_parser("fuse", help="fuse branch heatmaps into one pose")
    s.add_argument("--strategy", required=True,
                   help="select:<branch> | head-swap:<body>,<head> | vote")
    s.add_argument("--target", required=True)
    s.add_argument("--branch", action="append", metavar="NAME=PATH")
    s.add_argument("--flipped", action="append", metavar="NAME=PATH")
    s.add_argument("--smooth-sigma", type=float, default=defaults.smooth_sigma)
    s.add_argument("--no-quarter-offset", action="store_true")
    s.add_argument("--out", required=True)
    s.set_defaults(fn="cmd_fuse")

    s = sub.add_parser("merge-boxes", help="merge detector box files with IoU NMS")
    s.add_argument("inputs", nargs="+")
    s.add_argument("--iou-thr", type=float, default=0.6)
    s.add_argument("--out", required=True)
    s.set_defaults(fn="cmd_merge_boxes")

    s = sub.add_parser("nms", help="OKS-NMS over a pose file")
    s.add_argument("input")
    s.add_argument("--oks-thr", type=float, default=defaults.oks_nms_threshold)
    s.add_argument("--out", required=True)
    s.set_defaults(fn="cmd_nms")

    s = sub.add_parser("track", help="associate identities across frames")
    s.add_argument("input")
    tracker = defaults.tracker()
    s.add_argument("--matcher", choices=tuple(MATCHERS), default=tracker.matcher)
    s.add_argument("--propagator", choices=tuple(PROPAGATORS), default=tracker.propagator)
    s.add_argument("--sim-thr", type=float, default=tracker.sim_threshold)
    s.add_argument("--lookback", type=int, default=tracker.lookback)
    s.add_argument("--min-len", type=int, default=defaults.min_track_length)
    s.add_argument("--out", required=True)
    s.set_defaults(fn="cmd_track")

    for kind in ("map", "mota"):
        s = sub.add_parser(f"eval-{kind}",
                           help=f"eval-{kind} over prediction and ground truth")
        s.add_argument("--pred", required=True)
        s.add_argument("--gt", required=True)
        s.add_argument("--pckh-thr", type=float, default=PCKH_THRESHOLD)
        s.add_argument("--json", help="also write a machine-readable report")
        s.set_defaults(fn="_eval_common", kind=kind)

    s = sub.add_parser("run", help="full pipeline over a heatmap manifest")
    s.add_argument("--config")
    s.add_argument("--manifest", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn="cmd_run")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(name)s: %(message)s")
    try:
        globals()[args.fn](args)
    except PoseError as exc:
        print(json.dumps({"error": str(exc), "kind": "contract"}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": str(exc), "kind": "io"}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
