"""Span recording for the benchmark's traced runs.

The tracer replaces posepipe functions at the names the calling modules look
them up by (``posepipe.pipeline.load_heatmap``, ``posepipe.fusion.decode``,
the entries of ``posepipe.tracking.MATCHERS``, ...) with wrappers that record
one span per call: name, start, end and parent span. ``install`` patches,
``uninstall`` puts every original back, and ``assert_clean`` proves that no
wrapper is left before an untraced pass. Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

import posepipe.cli
import posepipe.evaluation
import posepipe.fusion
import posepipe.heatmaps
import posepipe.pipeline
import posepipe.scenes
import posepipe.suppression
import posepipe.synthetic
import posepipe.toynet
import posepipe.tracking
import posepipe.training

ROOT = "pass"


def _hook_table():
    """(namespace, attribute, span name) for every wrapped call site.

    The namespace is the module (or class, or dict) whose lookup the caller
    performs, so a wrapper sees exactly the calls that go through that name.
    """
    cli, pipe, trk = posepipe.cli, posepipe.pipeline, posepipe.tracking
    return [
        (cli, "load_manifest", "pipeline.load_manifest"),
        (cli, "run_pipeline", "pipeline.run_pipeline"),
        (pipe, "load_heatmap", "heatmaps.load_heatmap"),
        (pipe, "flip_merge", "heatmaps.flip_merge"),
        (posepipe.heatmaps, "smooth", "heatmaps.smooth"),
        (posepipe.fusion, "decode", "heatmaps.decode"),
        (pipe, "fuse_select", "fusion.fuse"),
        (pipe, "fuse_head_swap", "fusion.fuse"),
        (pipe, "fuse_vote", "fusion.fuse"),
        (pipe, "rescore", "suppression.rescore"),
        (pipe, "apply_thresholds", "suppression.apply_thresholds"),
        (pipe, "oks_nms", "suppression.oks_nms"),
        (posepipe.suppression, "oks", "suppression.oks"),
        (trk.TrackerState, "step", "tracking.step"),
        (trk, "similarity", "tracking.similarity"),
        (trk.MATCHERS, "hungarian", "assignment.solve"),
        (trk.MATCHERS, "greedy", "assignment.solve"),
        (pipe, "finalize", "tracking.finalize"),
        (cli, "save_pose_file", "poseio.save_pose_file"),
        (cli, "load_pose_file", "poseio.load_pose_file"),
        (cli, "compute_map", "evaluation.compute_map"),
        (cli, "compute_mota", "evaluation.compute_mota"),
        (posepipe.evaluation, "match_poses", "evaluation.match_poses"),
        (posepipe.training, "train", "training.train"),
        (posepipe.training, "gradients", "toynet.gradients"),
        (posepipe.toynet, "forward", "toynet.forward.train"),
        (posepipe.training, "sgd_step", "toynet.sgd_step"),
        (posepipe.training, "heldout_error", "training.heldout_error"),
        (posepipe.training, "forward", "toynet.forward.heldout"),
        (posepipe.scenes, "generate_scene", "scenes.generate_scene"),
        (posepipe.synthetic, "gen_synthetic", "synthetic.gen_synthetic"),
    ]


# OKS calls are counted, not timed: they are many and short, and their time
# belongs to OKS-NMS.
_COUNT_ONLY = {"suppression.oks"}


def _get(ns, attr):
    return ns[attr] if isinstance(ns, dict) else getattr(ns, attr)


def _set(ns, attr, value):
    if isinstance(ns, dict):
        ns[attr] = value
    else:
        setattr(ns, attr, value)


_ORIGINALS = [(ns, attr, _get(ns, attr)) for ns, attr, _ in _hook_table()]


def assert_clean():
    """Raise if any call site does not hold its original function."""
    for ns, attr, fn in _ORIGINALS:
        if _get(ns, attr) is not fn:
            raise RuntimeError(f"traced wrapper left at {attr}")


class Tracer:
    """Spans kept in memory as (name, parent index, start, end) plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.matrices = []          # cost matrices seen by the assignment solver
        self._stack = []
        self._fuse = None           # ids of heatmaps decoded inside the current fuse

    # -- recording -------------------------------------------------------
    def _wrap(self, name, fn, after=None, before=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end)
            if after:
                after(args, result, token)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, fn):
        """Run fn() under the root span; returns its result."""
        return self._wrap(ROOT, fn)()

    # -- per-call extras -------------------------------------------------
    def _extras(self):
        c = self.counts

        def load_after(args, h, _):
            c["heatmaps.load_heatmap.bytes"] += h.values.nbytes

        def smooth_after(args, h, _):
            if args[1] > 0:
                c["heatmaps.smooth.channels"] += h.values.shape[0]

        def decode_before(args):
            if self._fuse is not None:
                self._fuse.add(id(args[0]))

        def fuse_before(args):
            self._fuse = set()

        def fuse_after(args, _, __, vote=False):
            branches = args[0].branches
            c["fusion.branches_loaded"] += len(branches)
            if vote:   # vote averages every branch before its single decode
                c["fusion.branches_used"] += len(branches)
            else:
                c["fusion.branches_used"] += len(
                    self._fuse & {id(h) for h in branches.values()})
            self._fuse = None

        def nms_after(args, keep, _):
            c["suppression.oks_nms.instances_in"] += len(args[0])
            c["suppression.oks_nms.kept"] += len(keep)

        def step_before(args):
            return args[0].next_id

        def step_after(args, ids, next_id):
            c["tracking.matched"] += sum(1 for i in ids if i < next_id)

        def solve_before(args):
            self.matrices.append(args[0])

        def finalize_after(args, kept, _):
            c["tracking.pruned"] += len(args[0].all_tracks()) - len(kept)

        def save_after(args, _, __):
            c["poseio.save_pose_file.bytes"] += os.path.getsize(args[1])

        return {
            "heatmaps.load_heatmap": (load_after, None),
            "heatmaps.smooth": (smooth_after, None),
            "heatmaps.decode": (None, decode_before),
            "fusion.fuse": (fuse_after, fuse_before),
            "fusion.fuse.vote": (lambda a, r, t: fuse_after(a, r, t, vote=True),
                                 fuse_before),
            "suppression.oks_nms": (nms_after, None),
            "tracking.step": (step_after, step_before),
            "assignment.solve": (None, solve_before),
            "tracking.finalize": (finalize_after, None),
            "poseio.save_pose_file": (save_after, None),
        }

    # -- patching --------------------------------------------------------
    def install(self):
        assert_clean()
        extras = self._extras()
        for ns, attr, name in _hook_table():
            fn = _get(ns, attr)
            if name in _COUNT_ONLY:
                _set(ns, attr, self._counter(name, fn))
                continue
            key = "fusion.fuse.vote" if attr == "fuse_vote" else name
            after, before = extras.get(key, (None, None))
            _set(ns, attr, self._wrap(name, fn, after, before))

    def uninstall(self):
        for ns, attr, fn in _ORIGINALS:
            _set(ns, attr, fn)
        assert_clean()

    # -- reduction -------------------------------------------------------
    def summary(self):
        """Self time, call count and call durations per span name."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "durations": []})
        for i, (name, _, start, end) in enumerate(self.spans):
            rec = out[name]
            rec["self_s"] += (end - start) - covered[i]
            rec["calls"] += 1
            rec["durations"].append(end - start)
        return out


def span_names():
    """Every timed span name the hook table records, in table order."""
    seen = []
    for _, _, name in _hook_table():
        if name not in _COUNT_ONLY and name not in seen:
            seen.append(name)
    return seen


def percentile_ms(durations, q):
    """q-th percentile (0-100) of durations in seconds, as milliseconds."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1000.0 * durations[0]
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return 1000.0 * cuts[q - 1]
