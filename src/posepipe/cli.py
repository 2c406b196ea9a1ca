"""Command-line interface.

Subcommands cover the whole pipeline: synth (make a synthetic sequence),
train-toy (multi-domain toy training), decode, fuse, merge-boxes, nms, track,
eval-map, eval-mota, and run (manifest -> tracked pose file). Errors print a
one-line JSON report on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

import numpy as np

from .config import PipelineConfig
from .errors import PoseError
from .evaluation import compute_map, compute_mota, format_table, report_to_dict
from .heatmaps import decode, load_heatmap
from .instances import PersonInstance
from .pipeline import fuse, load_manifest, run_pipeline, track_sequence
from .poseio import (
    BoxSequence,
    PoseSequence,
    load_box_file,
    load_pose_file,
    read_json_object,
    save_box_file,
    save_pose_file,
)
from .suppression import OksConstants, box_nms, oks_nms
from .scenes import generate_scene
from .synthetic import DEFAULT_DOMAINS, DomainSpec, gen_synthetic
from .toynet import NetConfig, save_network
from .tracking import TrackerConfig
from .training import (
    Stage,
    TrainSchedule,
    staged_schedule,
    mixed_schedule,
    multi_domain_schedule,
    single_domain_schedule,
    train,
    transfer_schedule,
)


def _decoded_to_instance(decoded, box_score=1.0):
    ann = decoded.annotated
    if ann.any():
        lo = decoded.coords[ann].min(axis=0) - 1.0
        hi = decoded.coords[ann].max(axis=0) + 1.0
        box = [float(lo[0]), float(lo[1]), float(hi[0] - lo[0]), float(hi[1] - lo[1])]
    else:
        box = [0.0, 0.0, 1.0, 1.0]
    return PersonInstance(
        box=np.asarray(box),
        box_score=box_score,
        coords=decoded.coords,
        scores=np.clip(decoded.scores, 0.0, 1.0),
        annotated=ann,
        joint_set=decoded.joint_set,
    )


def cmd_synth(args):
    manifest, gt = generate_scene(
        args.out, num_frames=args.frames, num_persons=args.persons,
        seed=args.seed, sigma=args.sigma,
        with_flipped=not args.no_flipped,
        with_weak_joints=not args.no_weak_joints,
        with_clutter=not args.no_clutter,
    )
    print(json.dumps({"manifest": manifest, "gt": gt}))


def _require(doc, key, what):
    """doc[key]; a missing key is a contract error naming it."""
    if key not in doc:
        raise PoseError(f"{what} needs key {key!r}")
    return doc[key]


def _object(value, what):
    """value, which must be a JSON object."""
    if not isinstance(value, dict):
        raise PoseError(f"{what} must be a JSON object")
    return value


def _known(doc, keys, what):
    """doc, each of whose keys must be one of keys."""
    unknown = set(doc) - set(keys)
    if unknown:
        raise PoseError(f"unknown {what} keys {sorted(unknown)}")
    return doc


def _fields(doc, cls, what, exclude=()):
    """doc, each of whose keys must name a field of dataclass cls (less
    exclude)."""
    return _known(doc, {f.name for f in dataclasses.fields(cls)} - set(exclude), what)


def _stage_from_dict(doc):
    _object(doc, "train stage")
    _require(doc, "domains", "train stage")
    _require(doc, "steps", "train stage")
    return Stage(**{"name": "stage", **_fields(doc, Stage, "train stage")})


# schedule preset -> the keys it reads besides "preset"
_PRESET_KEYS = {
    "staged": ("domains", "primary", "steps", "lr", "batch_size"),
    "single": ("domain", "steps", "lr", "batch_size"),
    "multi": ("domains", "steps", "lr", "batch_size"),
    "mixed": ("domains", "steps", "lr", "batch_size"),
    "transfer": ("source", "target", "steps", "lr", "batch_size"),
}


def _schedule_from_config(doc):
    if "stages" in doc:
        _known(doc, ("stages",), "train schedule")
        if not isinstance(doc["stages"], list):
            raise PoseError("train schedule stages must be a list")
        return TrainSchedule([_stage_from_dict(s) for s in doc["stages"]])
    preset = doc.get("preset", "staged")
    if preset not in _PRESET_KEYS:
        raise PoseError(f"unknown schedule preset {preset!r}")
    _known(doc, ("preset",) + _PRESET_KEYS[preset], f"train schedule preset {preset!r}")
    domains = tuple(doc.get("domains", ("coco", "mpii", "posetrack")))
    lr = doc.get("lr", 1.2)
    batch = doc.get("batch_size", 8)
    if preset == "staged":
        return staged_schedule(domains, doc.get("primary", "coco"),
                             tuple(doc.get("steps", (2000, 300, 400))), lr, batch)
    if preset == "single":
        return single_domain_schedule(_require(doc, "domain", "preset 'single'"),
                                      doc.get("steps", 2000), lr, batch)
    if preset == "multi":
        return multi_domain_schedule(domains, doc.get("steps", 2000), lr, batch)
    if preset == "mixed":
        return mixed_schedule(domains, doc.get("steps", 2000), lr, batch)
    return transfer_schedule(_require(doc, "source", "preset 'transfer'"),
                             _require(doc, "target", "preset 'transfer'"),
                             tuple(doc.get("steps", (2000, 400))), lr, batch)


_GEOMETRY = ("height", "width", "in_channels")   # set by "net", shared by every domain
_TRAIN_KEYS = ("schedule", "domains", "net", "train_sizes", "heldout_sizes",
               "data_seed", "heldout_seed", "heldout_reference")


def _train_config(doc):
    """(schedule, domain specs, NetConfig) from a train config document."""
    _known(doc, _TRAIN_KEYS, "train config")
    schedule = _schedule_from_config(_object(doc.get("schedule", {}), "train schedule"))
    domain_docs = _object(doc.get("domains", {n: {} for n in DEFAULT_DOMAINS}),
                          "train config domains")
    net_doc = _fields(_object(doc.get("net", {}), "train config net"), NetConfig,
                      "train config net")
    config = NetConfig(**{**net_doc, "domains": tuple(net_doc.get("domains", domain_docs))})
    geometry = {k: getattr(config, k) for k in _GEOMETRY}
    domain_specs = {}
    for name, d in domain_docs.items():
        what = f"train config domain {name!r}"
        d = _fields(_object(d, what), DomainSpec, what, exclude=("name",) + _GEOMETRY)
        base = DEFAULT_DOMAINS.get(name) or DomainSpec(name)
        domain_specs[name] = dataclasses.replace(base, **d, **geometry)
    return schedule, domain_specs, config


def _domain_sizes(doc, key, default, domains):
    """doc[key], a sample count for every domain (default for each when absent)."""
    sizes = _object(doc.get(key, {n: default for n in domains}), f"train config {key}")
    for name in domains:
        size = _require(sizes, name, f"train config {key}")
        if isinstance(size, bool) or not isinstance(size, int):
            raise PoseError(f"train config {key}[{name!r}] must be an integer")
    return sizes


def cmd_train_toy(args):
    doc = read_json_object(args.config, "train config")
    try:
        schedule, domain_specs, config = _train_config(doc)
    except PoseError:
        raise
    except (TypeError, ValueError) as exc:
        raise PoseError(f"bad train config: {exc}", path=args.config) from exc
    sizes = _domain_sizes(doc, "train_sizes", 200, domain_specs)
    heldout_sizes = _domain_sizes(doc, "heldout_sizes", 50, domain_specs)
    data_seed = doc.get("data_seed", 5)
    heldout_seed = doc.get("heldout_seed", 995)
    datasets = {n: gen_synthetic(domain_specs[n], sizes[n], data_seed)
                for n in domain_specs}
    heldout = {n: gen_synthetic(domain_specs[n], heldout_sizes[n], heldout_seed)
               for n in domain_specs}
    if args.log:
        open(args.log, "w").close()   # truncate; train appends
    net, log = train(schedule, datasets, seed=args.seed, config=config,
                     heldout=heldout, log_path=args.log,
                     heldout_reference=doc.get("heldout_reference", "annotation"))
    if args.out:
        save_network(net, args.out)
    print(json.dumps({"stages": len(schedule.stages), "final": log[-1]}))


def cmd_decode(args):
    h = load_heatmap(args.heatmap)
    d = decode(h, args.smooth_sigma, not args.no_quarter_offset)
    seq = PoseSequence(d.joint_set, [(0, [_decoded_to_instance(d)])])
    save_pose_file(seq, args.out)


def _parse_branch_args(pairs):
    out = {}
    for spec in pairs or []:
        name, _, path = spec.partition("=")
        if not path:
            raise PoseError(f"expected NAME=PATH, got {spec!r}")
        out[name] = path
    return out


def cmd_fuse(args):
    d = fuse(_parse_branch_args(args.branch), _parse_branch_args(args.flipped),
             args.strategy, args.target, args.smooth_sigma, not args.no_quarter_offset)
    seq = PoseSequence(d.joint_set, [(0, [_decoded_to_instance(d)])])
    save_pose_file(seq, args.out)


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
        keep = oks_nms(instances, args.oks_thr, consts)
        frames.append((fidx, [instances[i] for i in keep]))
    save_pose_file(PoseSequence(seq.joint_set, frames), args.out)


def cmd_track(args):
    seq = load_pose_file(args.input)
    frames = track_sequence(seq.frames, OksConstants.for_joint_set(seq.joint_set),
                            TrackerConfig(sim_threshold=args.sim_thr,
                                          lookback=args.lookback, matcher=args.matcher,
                                          propagator=args.propagator),
                            args.min_len)
    save_pose_file(PoseSequence(seq.joint_set, frames), args.out)


def _eval_common(args, kind):
    pred = load_pose_file(args.pred)
    gt = load_pose_file(args.gt)
    if pred.joint_set != gt.joint_set:
        raise PoseError(
            f"prediction joint set {pred.joint_set!r} != ground truth {gt.joint_set!r}"
        )
    fn = compute_map if kind == "map" else compute_mota
    report = fn(pred.frames, gt.frames, joint_set=gt.joint_set,
                threshold=args.pckh_thr)
    print(format_table(report, kind))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report_to_dict(report, kind), f, indent=2)
            f.write("\n")


def cmd_eval_map(args):
    _eval_common(args, "map")


def cmd_eval_mota(args):
    _eval_common(args, "mota")


def cmd_run(args):
    config = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    frames = load_manifest(args.manifest)
    seq = run_pipeline(config, frames)
    save_pose_file(seq, args.out)


def build_parser():
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
    s.set_defaults(fn=cmd_synth)

    s = sub.add_parser("train-toy", help="train the toy multi-domain network")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="checkpoint path")
    s.add_argument("--log", help="JSON-lines metrics log path")
    s.set_defaults(fn=cmd_train_toy)

    s = sub.add_parser("decode", help="decode one heatmap file to a pose")
    s.add_argument("--heatmap", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--smooth-sigma", type=float, default=1.0)
    s.add_argument("--no-quarter-offset", action="store_true")
    s.set_defaults(fn=cmd_decode)

    s = sub.add_parser("fuse", help="fuse branch heatmaps into one pose")
    s.add_argument("--strategy", required=True,
                   help="select:<branch> | head-swap:<body>,<head> | vote")
    s.add_argument("--target", required=True)
    s.add_argument("--branch", action="append", metavar="NAME=PATH")
    s.add_argument("--flipped", action="append", metavar="NAME=PATH")
    s.add_argument("--smooth-sigma", type=float, default=1.0)
    s.add_argument("--no-quarter-offset", action="store_true")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_fuse)

    s = sub.add_parser("merge-boxes", help="merge detector box files with IoU NMS")
    s.add_argument("inputs", nargs="+")
    s.add_argument("--iou-thr", type=float, default=0.6)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_merge_boxes)

    s = sub.add_parser("nms", help="OKS-NMS over a pose file")
    s.add_argument("input")
    s.add_argument("--oks-thr", type=float, default=0.4)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_nms)

    s = sub.add_parser("track", help="associate identities across frames")
    s.add_argument("input")
    s.add_argument("--matcher", choices=("hungarian", "greedy"), default="hungarian")
    s.add_argument("--propagator", choices=("identity", "velocity"), default="velocity")
    s.add_argument("--sim-thr", type=float, default=0.3)
    s.add_argument("--lookback", type=int, default=8)
    s.add_argument("--min-len", type=int, default=2)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_track)

    for name, fn in (("eval-map", cmd_eval_map), ("eval-mota", cmd_eval_mota)):
        s = sub.add_parser(name, help=f"{name} over prediction and ground truth")
        s.add_argument("--pred", required=True)
        s.add_argument("--gt", required=True)
        s.add_argument("--pckh-thr", type=float, default=0.5)
        s.add_argument("--json", help="also write a machine-readable report")
        s.set_defaults(fn=fn)

    s = sub.add_parser("run", help="full pipeline over a heatmap manifest")
    s.add_argument("--config")
    s.add_argument("--manifest", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_run)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(name)s: %(message)s")
    try:
        args.fn(args)
    except PoseError as exc:
        print(json.dumps({"error": str(exc), "kind": "contract"}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"error": str(exc), "kind": "io"}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
