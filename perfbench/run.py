"""posepipe benchmark: closed-loop workloads timed from outside the program.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; the package is imported from ./src. One
caller runs passes back to back, each starting when the previous one ends.
A pass is a full ``posepipe run`` over the workload's scene, ``eval-map`` and
``eval-mota --json`` on its output, a ``staged_schedule`` training run and the
held-out error of the trained network. End-to-end times are scaled to a
reference host speed by probes run next to each timed call. Standard output
carries one ``info`` JSON line (environment, per-pass samples, wall-clock
rates, computed counts) and, last, the result line ``{"correct",
"attempted", "failed", "metrics"}``: end-to-end metrics with ``--trace 0``,
per-layer metrics from a traced run with ``--trace 1``. See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is a single caller and starts no threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "data", "golden_output.json")
HERE = os.path.dirname(os.path.abspath(__file__))


def _since_process_start() -> float:
    """Seconds since this process started, from /proc (0 where unavailable)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


T_BEGIN = time.perf_counter()
BEFORE_BEGIN = _since_process_start()
LOADAVG_AT_START = os.getloadavg()


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class SceneSpec:
    sequences: int      # independent sequences, one manifest and run call each
    frames: int         # frames per sequence
    slow: int           # persons per sequence the tracker can follow
    fast: int           # persons per sequence moving faster than that
    fusion: str = ""    # PipelineConfig.fusion override ("" = default)


@dataclass(frozen=True)
class TrainSpec:
    steps: tuple        # staged_schedule stage budgets (joint, primary, heads)
    train_n: int        # training samples per domain
    heldout_n: int      # held-out samples per domain


# Both workloads share one trainer part, sized to take about as long as the
# eval call: every rate is printed on every workload, and none stays steady
# on a shared host unless its call gets a fair share of each pass.
WORKLOADS = {
    # Decode and fusion dominate the pipeline part: few persons, all
    # trackable, so assignment only ever sees 3-wide matrices; default
    # head-swap fusion reads 2 of the 3 loaded branches.
    "long-sparse": (SceneSpec(1, 150, 3, 0), TrainSpec((16, 4, 4), 64, 100)),
    # Assignment dominates the pipeline part: 12 persons, two of them too
    # fast for the tracker, so their one-frame tracks pile up and the
    # matrices grow to 20 wide; vote fusion reads every branch and decodes
    # once. The solver's work depends on the order of tracks and detections,
    # which the seed draws per sequence; five short sequences average it
    # out where one long one varied ~1.5x between seeds.
    "crowd": (SceneSpec(5, 6, 10, 2, "vote"), TrainSpec((16, 4, 4), 64, 100)),
}
TINY = (SceneSpec(2, 4, 2, 1), TrainSpec((2, 1, 1), 8, 4))   # smoke-test sizes

# Relative speed = per-frame displacement / sqrt(box area). At the default
# OKS constants and similarity threshold the tracker links persons below
# about 0.12 and never links those above about 0.14 (it has no velocity for a
# track's first match). Persons are drawn from either side with a margin, so
# every seed yields the same number of lost persons.
SLOW_MAX = 0.10
FAST_MIN = 0.15
SEQUENCE_GAP = 100       # frame-index gap between sequences, > lookback
TRAIN_SEED = 0           # network init and batch order: fixed with the config
HELDOUT_SEED_OFFSET = 1_000_000
SETUP_REPEATS = 3
MIN_PASSES = 3
MAX_ATTEMPTS = 64


# ---------------------------------------------------------------- helpers

def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def environment() -> dict:
    import numpy as np
    head = os.path.join(ROOT, ".git", "HEAD")
    commit = None
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                ref = f.read().strip()
        commit = ref
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_at_start": LOADAVG_AT_START,
    }


def computed_counts(spec: TrainSpec) -> dict:
    """toynet work per training step, derived from NetConfig (not measured)."""
    from posepipe.skeletons import get_joint_set
    from posepipe.toynet import NetConfig
    from posepipe.training import DEFAULT_BATCH
    cfg = NetConfig()
    hw, c, h, b = cfg.height * cfg.width, cfg.in_channels, cfg.hidden, DEFAULT_BATCH
    ks = [get_joint_set(d).count for d in cfg.domains]
    conv = hw * 9 * (h * c + h * h)
    fwd = b * (conv + hw * h * sum(ks))          # forward runs every head
    bwd = b * (2 * conv + 2 * hw * h * statistics.mean(ks))   # weight + input grads
    im2col = 8 * b * 9 * hw * (c + h)            # float64 patch matrices
    return {
        "label": "computed from NetConfig, not measured",
        "batch": b,
        "forward_macs_per_step": fwd,
        "backward_macs_per_step": bwd,
        "im2col_bytes_per_step": 2 * im2col,     # forward patches + backward dcols
        "steps_per_pass": sum(spec.steps),
    }


# ---------------------------------------------------------------- host probes

_PROBE = {}


def _probe_inputs():
    import numpy as np
    if not _PROBE:
        rng = np.random.default_rng(0)
        _PROBE["doc"] = json.dumps({"frames": [
            {"frame_index": i, "instances": [
                {"keypoints": [round(float(x), 3) for x in rng.random(51)],
                 "score": float(rng.random()), "track_id": j} for j in range(4)]}
            for i in range(12)]})
        _PROBE["maps"] = rng.random((17, 64, 48), dtype=np.float32)
        _PROBE["cols"] = rng.random((8 * 768, 144))
        _PROBE["w"] = rng.random((144, 16))
    return _PROBE


def _probe_interpreter(p):
    import numpy as np
    for _ in range(2):
        doc = json.loads(p["doc"])
        kps = sorted((inst["score"], inst["keypoints"][0], f["frame_index"])
                     for f in doc["frames"] for inst in f["instances"])
        json.dumps({"kept": kps, "doc": doc})
        maps = p["maps"]
        for k in range(maps.shape[0]):
            m = maps[k]
            np.unravel_index(int(np.argmax(m)), m.shape)
            np.maximum(m[1:, :], m[:-1, :]).sum()


def _probe_batched(p):
    for _ in range(4):
        p["cols"] @ p["w"]


def _probe_single(p):
    cols = p["cols"][:768]
    for _ in range(16):
        (cols @ p["w"]).max(axis=0)


# Which probe stands next to which timed call, and how long it takes on the
# reference host (the 2-vCPU VM of perfbench/README.md, unloaded). The
# pipeline and eval calls run in the interpreter, training runs batched
# GEMMs, held-out inference one-sample GEMMs.
PROBES = {"run_s": (_probe_interpreter, 0.0046), "eval_s": (_probe_interpreter, 0.0046),
          "train_s": (_probe_batched, 0.0055), "heldout_s": (_probe_single, 0.0031)}


def host_probe(key) -> float:
    """Seconds for a fixed piece of work that involves no posepipe code and
    resembles the timed call named by key. It tracks how fast the host runs
    that kind of work at the moment."""
    p = _probe_inputs()
    t0 = time.perf_counter()
    PROBES[key][0](p)
    return time.perf_counter() - t0


def at_reference_speed(seconds, probe_s, key) -> float:
    """A time measured while the key's probe took probe_s, scaled to the
    reference host: what it would have taken there."""
    return seconds * PROBES[key][1] / probe_s


# ---------------------------------------------------------------- inputs

def _relative_speed(scenes, probe_dir, seed) -> float:
    _, gt_path = scenes.generate_scene(probe_dir, num_frames=2, num_persons=1, seed=seed,
                                       with_flipped=False, with_weak_joints=False,
                                       with_clutter=False)
    with open(gt_path) as f:
        frames = json.load(f)["frames"]
    a, b = (fr["instances"][0] for fr in frames)
    k0, k1 = a["keypoints"], b["keypoints"]
    n = len(k0) // 3
    dx = sum(k1[3 * i] - k0[3 * i] for i in range(n)) / n
    dy = sum(k1[3 * i + 1] - k0[3 * i + 1] for i in range(n)) / n
    w, h = a["box"][2], a["box"][3]
    return (dx * dx + dy * dy) ** 0.5 / (w * h) ** 0.5


def _pick_person(scenes, rng, probe_dir, fast: bool) -> int:
    for _ in range(10_000):
        seed = int(rng.integers(1 << 31))
        r = _relative_speed(scenes, probe_dir, seed)
        if (r >= FAST_MIN) if fast else (r < SLOW_MAX):
            return seed
    raise RuntimeError("no person of the requested speed class found")


def pick_persons(workdir, spec: SceneSpec, seed: int) -> list:
    """One ``generate_scene`` seed per person, per sequence, drawn from the
    workload seed: ``spec.slow`` slow persons, then ``spec.fast`` fast ones.

    This is the benchmark choosing its inputs, so it runs once, before the
    timed set-up repeats.
    """
    import numpy as np
    import posepipe.scenes as scenes
    rng = np.random.default_rng([seed, 7])
    probe = os.path.join(workdir, "probe")
    kinds = [False] * spec.slow + [True] * spec.fast
    persons = [[_pick_person(scenes, rng, probe, fast) for fast in kinds]
               for _ in range(spec.sequences)]
    shutil.rmtree(probe, ignore_errors=True)
    return persons


def build_scene(root, spec: SceneSpec, persons: list) -> dict:
    """Write the workload's manifests, ground truth and config under root.

    Each person comes from its own one-person ``generate_scene`` call; the
    persons of a sequence are merged frame by frame. Each sequence gets its
    own manifest; frame indices run on across sequences, with a gap larger
    than the tracker's lookback, and one ground-truth file covers them all.
    """
    import posepipe.scenes as scenes
    manifests, gt = [], []
    for q, seeds in enumerate(persons):
        manifest = []
        offset = q * (spec.frames + SEQUENCE_GAP)
        merged = [([], []) for _ in range(spec.frames)]
        for i, pseed in enumerate(seeds):
            sub = f"q{q}p{i}"
            man_path, gt_path = scenes.generate_scene(
                os.path.join(root, sub), num_frames=spec.frames, num_persons=1,
                seed=pseed, with_clutter=(i == 0))
            with open(man_path) as f:
                man_frames = json.load(f)["frames"]
            with open(gt_path) as f:
                gt_frames = json.load(f)["frames"]
            for t, (mf, gf) in enumerate(zip(man_frames, gt_frames)):
                for inst in mf["instances"]:
                    for key in ("heatmaps", "flipped_heatmaps"):
                        if key in inst:
                            inst[key] = {b: f"{sub}/{p}" for b, p in inst[key].items()}
                    merged[t][0].append(inst)
                for inst in gf["instances"]:
                    inst["person_id"] = q * len(seeds) + i
                    merged[t][1].append(inst)
        for t, (insts, gts) in enumerate(merged):
            manifest.append({"frame_index": offset + t, "instances": insts})
            gt.append({"frame_index": offset + t, "instances": gts})
        manifests.append(os.path.join(root, f"manifest{q}.json"))
        with open(manifests[-1], "w") as f:
            json.dump({"frames": manifest}, f)
    paths = {"manifests": manifests, "gt": os.path.join(root, "gt.json"), "config": None,
             "frames": len(gt)}
    with open(paths["gt"], "w") as f:
        json.dump({"joint_set": "posetrack", "frames": gt}, f)
    if spec.fusion:
        paths["config"] = os.path.join(root, "config.json")
        with open(paths["config"], "w") as f:
            json.dump({"fusion": spec.fusion}, f)
    return paths


def build_training(spec: TrainSpec, seed: int):
    import posepipe.synthetic as synthetic
    domains = synthetic.DEFAULT_DOMAINS
    datasets = {d: synthetic.gen_synthetic(s, spec.train_n, seed)
                for d, s in domains.items()}
    heldout = {d: synthetic.gen_synthetic(s, spec.heldout_n, seed + HELDOUT_SEED_OFFSET)
               for d, s in domains.items()}
    return datasets, heldout


def input_digest(scene: dict, datasets: dict, heldout: dict) -> str:
    h = hashlib.sha256()
    for path in scene["manifests"] + [scene["gt"]]:
        with open(path, "rb") as f:
            h.update(f.read())
    for data in (datasets, heldout):
        for d in sorted(data):
            for s in data[d]:
                h.update(s.input.tobytes())
                h.update(s.keypoints.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- passes

class Pass:
    """One closed-loop pass over prepared inputs; outputs go to out_dir."""

    def __init__(self, scene: dict, train_spec: TrainSpec, datasets, heldout, out_dir):
        self.scene, self.spec = scene, train_spec
        self.datasets, self.heldout = datasets, heldout
        self.out = {k: os.path.join(out_dir, k) for k in
                    ("pred.json", "map.json", "mota.json", "net.pknp")}
        self.preds = [os.path.join(out_dir, f"pred{q}.json")
                      for q in range(len(scene["manifests"]))]
        self.config_args = (["--config", scene["config"]] if scene["config"] else [])

    def timed(self, probe: bool = True) -> dict:
        """The timed calls: ``posepipe run`` once per sequence, the two evals,
        training, the held-out error. Returns, per kind of call, the wall
        time and (with probe) the time at the reference host speed, plus
        return codes and held-out errors.

        Before each timed call, untimed, cyclic garbage left by the previous
        one is collected, so that no call pays for another's, and (with
        probe) the call's host probe runs; it runs again right after the call.
        """
        import posepipe.cli as cli
        import posepipe.training as training
        o, s = self.out, self.scene
        wall = dict.fromkeys(PROBES, 0.0)
        ref = dict.fromkeys(PROBES, 0.0)
        probes = {key: [] for key in PROBES}
        untimed = []

        def timed_call(key, fn):
            t0 = time.perf_counter()
            gc.collect()
            before = host_probe(key) if probe else None
            untimed.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            result = fn()
            t = time.perf_counter() - t0
            wall[key] += t
            if probe:
                probes[key].append(0.5 * (before + host_probe(key)))
                ref[key] += at_reference_speed(t, probes[key][-1], key)
            return result

        def evaluate():
            with contextlib.redirect_stdout(io.StringIO()):
                return [cli.main(["eval-map", "--pred", o["pred.json"], "--gt", s["gt"],
                                  "--json", o["map.json"]]),
                        cli.main(["eval-mota", "--pred", o["pred.json"], "--gt", s["gt"],
                                  "--json", o["mota.json"]])]

        rcs = [timed_call("run_s", lambda: cli.main(
                   ["run", "--manifest", m, "--out", out] + self.config_args))
               for m, out in zip(s["manifests"], self.preds)]
        t0 = time.perf_counter()
        join_pose_files(self.preds, o["pred.json"])
        untimed.append(time.perf_counter() - t0)
        rcs += timed_call("eval_s", evaluate)
        net, _ = timed_call("train_s", lambda: training.train(
            training.staged_schedule(steps=self.spec.steps), self.datasets,
            seed=TRAIN_SEED, heldout=None))
        errors = timed_call("heldout_s", lambda: {
            d: training.heldout_error(net, self.heldout[d]) for d in sorted(self.heldout)})
        return {**wall, "pass_s": sum(wall.values()), "untimed_s": sum(untimed),
                "ref": ref if probe else None, "probes": probes,
                "rcs": rcs, "errors": errors, "net": net}

    def finish(self, raw: dict) -> dict:
        """Untimed: write the checkpoint, read outputs back, digest them."""
        from posepipe.toynet import save_network
        o = self.out
        save_network(raw.pop("net"), o["net.pknp"])
        with open(o["map.json"]) as f:
            raw["map_total"] = json.load(f)["total_map"]
        with open(o["mota.json"]) as f:
            raw["mota_total"] = json.load(f)["total_mota"]
        raw["heldout_err"] = statistics.mean(raw["errors"].values())
        raw["pose_sha256"] = sha256_file(o["pred.json"])
        raw["checkpoint_sha256"] = sha256_file(o["net.pknp"])
        h = hashlib.sha256()
        for key in ("pred.json", "map.json", "mota.json", "net.pknp"):
            h.update(sha256_file(o[key]).encode())
        h.update(repr(sorted(raw["errors"].items())).encode())
        raw["digest"] = h.hexdigest()
        raw["ok"] = not any(raw["rcs"])
        return raw


def join_pose_files(paths, out):
    """Join per-sequence pose files into one for the evals: frames in order,
    written as ``posepipe run`` writes a pose file. One file is copied."""
    if len(paths) == 1:
        shutil.copyfile(paths[0], out)
        return
    docs = []
    for path in paths:
        with open(path) as f:
            docs.append(json.load(f))
    joined = dict(docs[0], frames=[fr for d in docs for fr in d["frames"]])
    with open(out, "w") as f:
        f.write(json.dumps(joined, indent=2) + "\n")


def golden_gate(workdir) -> bool:
    """Golden scene (seed 0, 5 frames x 2 persons, default config) through
    ``posepipe run``; the pose file must equal tests/data/golden_output.json."""
    import posepipe.cli as cli
    import posepipe.scenes as scenes
    d = os.path.join(workdir, "golden")
    manifest, _ = scenes.generate_scene(d, seed=0)
    out = os.path.join(d, "pred.json")
    same = False
    if cli.main(["run", "--manifest", manifest, "--out", out]) == 0:
        with open(out, "rb") as a, open(GOLDEN, "rb") as b:
            same = a.read() == b.read()
    shutil.rmtree(d, ignore_errors=True)
    return same


# ---------------------------------------------------------------- metrics

END_TO_END = [
    ("setup_s", "s"),
    ("run_frames_per_s", "frames/s"),
    ("eval_frames_per_s", "frames/s"),
    ("train_steps_per_s", "steps/s"),
    ("heldout_samples_per_s", "samples/s"),
    ("map_total", "%"),
    ("mota_total", "%"),
    ("heldout_err", "cells"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
]

# Per-layer metrics: (name, unit, better). Self times are per traced pass.
PER_LAYER = [
    ("heatmaps.load_heatmap.self_s", "s", "lower"),
    ("heatmaps.load_heatmap.calls", "count", "lower"),
    ("heatmaps.load_heatmap.bytes", "B", "lower"),
    ("heatmaps.flip_merge.self_s", "s", "lower"),
    ("heatmaps.flip_merge.calls", "count", "lower"),
    ("heatmaps.smooth.self_s", "s", "lower"),
    ("heatmaps.smooth.channels", "count", "lower"),
    ("heatmaps.decode.self_s", "s", "lower"),
    ("heatmaps.decode.calls", "count", "lower"),
    ("fusion.fuse.self_s", "s", "lower"),
    ("fusion.fuse.calls", "count", "lower"),
    ("fusion.branches_used_ratio", "ratio", "higher"),
    ("suppression.rescore.self_s", "s", "lower"),
    ("suppression.apply_thresholds.self_s", "s", "lower"),
    ("suppression.oks_nms.self_s", "s", "lower"),
    ("suppression.oks_nms.instances_in", "count", "lower"),
    ("suppression.oks_nms.kept_ratio", "ratio", "higher"),
    ("suppression.oks.calls", "count", "lower"),
    ("tracking.step.self_s", "s", "lower"),
    ("tracking.step.ms_p50", "ms", "lower"),
    ("tracking.step.ms_p90", "ms", "lower"),
    ("tracking.similarity.self_s", "s", "lower"),
    ("tracking.similarity.calls", "count", "lower"),
    ("tracking.matched_ratio", "ratio", "higher"),
    ("tracking.finalize.self_s", "s", "lower"),
    ("tracking.pruned", "count", "lower"),
    ("assignment.solve.self_s", "s", "lower"),
    ("assignment.solve.calls", "count", "lower"),
    ("assignment.solve.ms_p50", "ms", "lower"),
    ("assignment.solve.ms_p90", "ms", "lower"),
    ("assignment.solve.max_n", "count", "lower"),
    ("assignment.solve.cells", "count", "lower"),
    ("poseio.save_pose_file.self_s", "s", "lower"),
    ("poseio.save_pose_file.bytes", "B", "lower"),
    ("poseio.load_pose_file.self_s", "s", "lower"),
    ("evaluation.compute_map.self_s", "s", "lower"),
    ("evaluation.compute_mota.self_s", "s", "lower"),
    ("evaluation.match_poses.self_s", "s", "lower"),
    ("evaluation.match_poses.calls", "count", "lower"),
    ("pipeline.load_manifest.self_s", "s", "lower"),
    ("pipeline.run_pipeline.self_s", "s", "lower"),
    ("toynet.forward.train_self_s", "s", "lower"),
    ("toynet.gradients.self_s", "s", "lower"),
    ("toynet.gradients.ms_p50", "ms", "lower"),
    ("toynet.gradients.ms_p90", "ms", "lower"),
    ("toynet.sgd_step.self_s", "s", "lower"),
    ("toynet.forward.heldout_self_s", "s", "lower"),
    ("training.heldout_error.self_s", "s", "lower"),
    ("training.train.self_s", "s", "lower"),
    ("scenes.generate_scene.self_s", "s", "lower"),
    ("synthetic.gen_synthetic.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unfired_spans", "count", "lower"),
]
SETUP_SPANS = ("scenes.generate_scene", "synthetic.gen_synthetic")
ROOT_SPAN = "pass"


def _ratio(a, b):
    return a / b if b else 0.0


def layer_values(summary, counts, matrices, untimed_s) -> dict:
    """Per-layer values of one traced pass (set-up spans excluded).

    untimed_s is the garbage collection the pass runs between its timed
    calls; it is taken out of the root span, as it is out of untraced times.
    """
    from spans import percentile_ms

    def rec(name):
        return summary.get(name, {"self_s": 0.0, "calls": 0, "durations": []})

    v = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("self_s", "calls") and span in summary:
            v[name] = rec(span)[field]
    v["toynet.forward.train_self_s"] = rec("toynet.forward.train")["self_s"]
    v["toynet.forward.heldout_self_s"] = rec("toynet.forward.heldout")["self_s"]
    for span in ("tracking.step", "assignment.solve", "toynet.gradients"):
        v[f"{span}.ms_p50"] = percentile_ms(rec(span)["durations"], 50)
        v[f"{span}.ms_p90"] = percentile_ms(rec(span)["durations"], 90)
    sizes = [max(m.shape) for m in matrices]
    v["assignment.solve.max_n"] = max(sizes, default=0)
    v["assignment.solve.cells"] = sum(n * n for n in sizes)
    for key in ("heatmaps.load_heatmap.bytes", "heatmaps.smooth.channels",
                "suppression.oks_nms.instances_in", "tracking.pruned",
                "poseio.save_pose_file.bytes"):
        v[key] = counts.get(key, 0)
    v["suppression.oks.calls"] = counts.get("suppression.oks", 0)
    v["fusion.branches_used_ratio"] = _ratio(counts.get("fusion.branches_used", 0),
                                             counts.get("fusion.branches_loaded", 0))
    v["suppression.oks_nms.kept_ratio"] = _ratio(counts.get("suppression.oks_nms.kept", 0),
                                                 counts.get("suppression.oks_nms.instances_in", 0))
    v["tracking.matched_ratio"] = _ratio(counts.get("tracking.matched", 0),
                                         rec("tracking.similarity")["calls"])
    root = rec(ROOT_SPAN)
    v["trace.pass_s"] = (root["durations"][0] if root["durations"] else 0.0) - untimed_s
    v["trace.remainder_s"] = root["self_s"] - untimed_s
    return v


# ---------------------------------------------------------------- entry point

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (pins are not checked)")
    return p.parse_args(argv)


class Run:
    def __init__(self, args, workdir):
        self.args, self.workdir = args, workdir
        self.scene_spec, self.train_spec = WORKLOADS[args.workload]
        if args.tiny:
            self.scene_spec = dataclasses.replace(TINY[0], fusion=self.scene_spec.fusion)
            self.train_spec = TINY[1]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None

    def check(self, result: dict, label: str) -> dict:
        """Count one pass; it fails on a nonzero exit code or on output bytes
        that differ from the first pass."""
        self.attempted += 1
        if self.reference is None:
            self.reference = result
        bad = []
        if not result["ok"]:
            bad.append(f"cli exit codes {result['rcs']}")
        if result["digest"] != self.reference["digest"]:
            bad.append("output bytes differ from the first pass")
        if bad:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(bad)}")
        return result

    def run_pass(self, p: Pass, label: str, tracer=None):
        import spans
        try:
            if tracer is None:
                spans.assert_clean()
                raw = p.timed()
            else:
                tracer.install()
                try:
                    raw = tracer.root(lambda: p.timed(probe=False))
                finally:
                    tracer.uninstall()
            return self.check(p.finish(raw), label)
        except Exception:   # a failing pass is counted, and the run goes on
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{label}: raised")
            return None

    def setup(self, trace: bool):
        """Build the inputs SETUP_REPEATS times; keep the last copy. The
        interpreter probe runs before and after each build."""
        import spans
        times, probes, digests, tracers = [], [], [], []
        persons = pick_persons(self.workdir, self.scene_spec, self.args.seed)
        for r in range(SETUP_REPEATS):
            d = os.path.join(self.workdir, f"inputs{r}")
            tracer = spans.Tracer() if trace else None
            probes.append(host_probe("run_s"))
            if tracer:
                tracer.install()
            try:
                t0 = time.perf_counter()
                scene = build_scene(d, self.scene_spec, persons)
                datasets, heldout = build_training(self.train_spec, self.args.seed)
                times.append(time.perf_counter() - t0)
            finally:
                if tracer:
                    tracer.uninstall()
                    tracers.append(tracer)
            probes.append(host_probe("run_s"))
            digests.append(input_digest(scene, datasets, heldout))
            if r + 1 < SETUP_REPEATS:
                shutil.rmtree(d)
        if len(set(digests)) != 1:
            self.problems.append("set-up repeats built different inputs")
        return scene, datasets, heldout, times, median(probes), digests[0], tracers

    def pins_ok(self, result) -> bool:
        if self.args.tiny or self.args.seed != 0:
            return True
        with open(os.path.join(HERE, "pins.json")) as f:
            pins = json.load(f)[self.args.workload]
        ok = all(result[k] == pins[k] for k in ("pose_sha256", "checkpoint_sha256"))
        if not ok:
            self.failed += 1
            self.problems.append("outputs at the default seed differ from pins.json")
        return ok

    def execute(self) -> tuple:
        import spans
        args = self.args
        golden_ok = golden_gate(self.workdir)
        self.attempted += 1
        if not golden_ok:
            self.failed += 1
            self.problems.append("golden scene output differs from golden_output.json")
        import_s = BEFORE_BEGIN + (T_IMPORTED - T_BEGIN)
        scene, datasets, heldout, build_times, build_probe, digest, setup_tracers = \
            self.setup(args.trace == 1)
        out_dir = os.path.join(self.workdir, "out")
        os.makedirs(out_dir)
        p = Pass(scene, self.train_spec, datasets, heldout, out_dir)
        first = self.run_pass(p, "warm-up")
        if first is None:
            raise RuntimeError("the warm-up pass failed")
        warm_s = first["pass_s"]
        # Imports and builds are interpreter work, scaled by the probe run
        # around the builds; each call of the warm-up pass by its own probe.
        setup_s = at_reference_speed(import_s + median(build_times), build_probe, "run_s") \
            + sum(first["ref"].values())
        pins_ok = self.pins_ok(first)

        info = {"workload": args.workload, "seed": args.seed, "tiny": args.tiny,
                "frames": scene["frames"], "input_sha256": digest,
                "setup": {"import_s": import_s, "build_s": build_times, "warm_up_s": warm_s,
                          "wall_clock_s": import_s + median(build_times) + warm_s,
                          "build_probe_ms": 1000 * build_probe},
                "outputs": {k: first[k] for k in ("pose_sha256", "checkpoint_sha256")},
                "computed": computed_counts(self.train_spec)}
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            metrics, extra = self.traced_loop(p, deadline, setup_tracers)
            info.update(extra)
        else:
            passes = []
            while (time.perf_counter() < deadline or len(passes) < MIN_PASSES) \
                    and self.attempted < MAX_ATTEMPTS:
                r = self.run_pass(p, f"pass {len(passes) + 1}")
                if r is not None:
                    passes.append(r)
            if not passes:
                raise RuntimeError("no timed pass completed")
            metrics, info["wall_clock_rates"] = self.end_to_end(
                first, passes, setup_s, scene["frames"], sum(len(v) for v in heldout.values()))
            info["passes"] = {k: [r[k] for r in passes]
                              for k in ("run_s", "eval_s", "train_s", "heldout_s", "pass_s")}
            info["passes_at_reference_s"] = {k: [r["ref"][k] for r in passes] for k in PROBES}
            info["probes"] = [r["probes"] for r in passes]
        info["problems"] = self.problems
        correct = golden_ok and pins_ok and self.failed == 0 and not self.problems
        return correct, metrics, info

    def end_to_end(self, first, passes, setup_s, frames, samples) -> tuple:
        """Rates at the reference host speed, from the median over passes.

        Each timed call is scaled by the probe run next to it (before and
        after, averaged), then the median over passes is taken. The host
        this runs on is shared: its speed drifts by up to half over
        minutes, which no run length averages out, and the probes track
        that drift (perfbench/README.md has the measured spreads). The
        wall-clock rates, unscaled, go to the info line.
        """
        steps = sum(self.train_spec.steps)
        rates, wall = {}, {}
        for name, count, key in (("run_frames_per_s", frames, "run_s"),
                                 ("eval_frames_per_s", frames, "eval_s"),
                                 ("train_steps_per_s", steps, "train_s"),
                                 ("heldout_samples_per_s", samples, "heldout_s")):
            rates[name] = count / median([r["ref"][key] for r in passes])
            each = sorted(count / r[key] for r in passes)
            wall[name] = {"median": median(each),
                          "quartiles": (statistics.quantiles(each, n=4)
                                        if len(each) > 1 else each * 3),
                          "probe_ms": 1000 * median([p for r in passes for p in r["probes"][key]])}
        wall["passes"] = len(passes)

        values = {
            "setup_s": setup_s,
            **rates,
            "map_total": first["map_total"],
            "mota_total": first["mota_total"],
            "heldout_err": first["heldout_err"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": (self.attempted - self.failed) / self.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        return metrics, wall

    def traced_loop(self, p: Pass, deadline, setup_tracers) -> tuple:
        """Alternate traced and untraced passes; per-layer values are medians
        over the traced ones."""
        import spans
        traced, untraced, last = [], [], None

        def traced_pass():
            nonlocal last
            tracer = spans.Tracer()
            r = self.run_pass(p, f"traced pass {len(traced) + 1}", tracer)
            if r is not None:
                summary = tracer.summary()
                traced.append(layer_values(summary, tracer.counts, tracer.matrices,
                                           r["untimed_s"]))
                traced[-1]["_pass_s"] = r["pass_s"]
                last = (tracer, summary, r)

        def untraced_pass():
            r = self.run_pass(p, f"untraced pass {len(untraced) + 1}")
            if r is not None:
                untraced.append(r["pass_s"])

        rounds = 0
        while (time.perf_counter() < deadline or len(traced) < 2 or len(untraced) < 2) \
                and self.attempted < MAX_ATTEMPTS:
            # alternate which kind goes first, so neither always follows the other
            order = (traced_pass, untraced_pass) if rounds % 2 == 0 else \
                (untraced_pass, traced_pass)
            for fn in order:
                fn()
            rounds += 1
        if not traced:
            raise RuntimeError("no traced pass completed")
        metrics = {}
        for name, unit, _ in PER_LAYER:
            if name not in traced[0]:
                value = 0
            elif unit in ("count", "B"):    # deterministic: the same on every pass
                value = traced[0][name]
            else:
                value = median([t[name] for t in traced])
            metrics[name] = {"value": value, "unit": unit}
        for span in SETUP_SPANS:
            metrics[f"{span}.self_s"]["value"] = median(
                [t.summary().get(span, {"self_s": 0.0})["self_s"] for t in setup_tracers])
        metrics["trace.overhead_ratio"]["value"] = _ratio(
            median([t["_pass_s"] for t in traced]), median(untraced))
        tracer, summary, last_raw = last
        setup_calls = {s: sum(t.summary().get(s, {"calls": 0})["calls"] for t in setup_tracers)
                       for s in SETUP_SPANS}
        unfired = [s for s in spans.span_names()
                   if summary.get(s, {"calls": 0})["calls"] == 0 and not setup_calls.get(s)]
        if not tracer.counts.get("suppression.oks"):
            unfired.append("suppression.oks")
        metrics["trace.unfired_spans"]["value"] = len(unfired)
        if unfired:
            print(f"warning: spans with zero calls: {', '.join(unfired)}", file=sys.stderr)
        extra = {"traced_passes": len(traced), "untraced_passes": len(untraced),
                 "unfired_spans": unfired,
                 "attribution": attribution(summary, traced[-1], last_raw),
                 "reference": scipy_reference(tracer.matrices, summary)}
        return metrics, extra


# Layers whose spans run inside ``posepipe run``, the pipeline part of a pass.
RUN_LAYERS = ("pipeline", "heatmaps", "fusion", "suppression", "tracking",
              "assignment", "poseio.save_pose_file")


# Layers whose spans run inside the training and held-out calls.
TRAINER_LAYERS = ("toynet", "training")


def attribution(summary, values, raw) -> dict:
    """Self time of each span and layer of one traced pass, as a share of
    the traced pass; for the pipeline layers also of the pass's ``run``
    calls, and for the trainer layers of its training and held-out calls."""
    pass_s = values["trace.pass_s"]
    self_s = {name: rec["self_s"] for name, rec in summary.items()
              if name != ROOT_SPAN and not name.startswith(SETUP_SPANS)}
    self_s["remainder"] = values["trace.remainder_s"]
    layers = {}
    for name, t in self_s.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + t
    run_s, trainer_s = raw["run_s"], raw["train_s"] + raw["heldout_s"]

    def part(names, part_s):
        return {layer: sum(t for name, t in self_s.items() if name.startswith(layer)) / part_s
                for layer in names}

    return {"pass_s": pass_s, "sum_of_self_s": sum(self_s.values()),
            "span_shares": {n: t / pass_s for n, t in sorted(self_s.items())},
            "layer_shares": {n: t / pass_s for n, t in sorted(layers.items())},
            "run_s": run_s, "run_layer_shares": part(RUN_LAYERS, run_s),
            "trainer_s": trainer_s, "trainer_layer_shares": part(TRAINER_LAYERS, trainer_s)}


def scipy_reference(matrices, summary) -> dict:
    """SciPy's linear_sum_assignment on the recorded cost matrices: a speed
    reference for assignment.solve only (posepipe never imports SciPy)."""
    try:
        from scipy.optimize import linear_sum_assignment
    except ImportError:
        return {"scipy": "not installed; skipped"}
    t0 = time.perf_counter()
    for m in matrices:
        linear_sum_assignment(m)
    return {"label": "reference only, not a posepipe layer",
            "matrices": len(matrices),
            "scipy_linear_sum_assignment_s": time.perf_counter() - t0,
            "posepipe_assignment_solve_s": summary.get("assignment.solve",
                                                       {"self_s": 0.0})["self_s"]}


def main(argv=None) -> int:
    global T_IMPORTED
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "posepipe", "__init__.py")) \
            or not os.path.isfile(GOLDEN):
        print(f"error: run from a posepipe checkout ({SRC} and {GOLDEN} are needed)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401  (import time belongs to set-up)
    import posepipe.cli  # noqa: F401
    import spans  # noqa: F401
    T_IMPORTED = time.perf_counter()

    # SIGTERM unwinds like an exception, so the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    base = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = Run(args, workdir)
        correct, metrics, info = run.execute()
        info["environment"] = environment()
        print(json.dumps({"info": info}))
        print(json.dumps({"correct": correct, "attempted": run.attempted,
                          "failed": run.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)
    return 0


T_IMPORTED = None

if __name__ == "__main__":
    sys.exit(main())
