"""Per-joint average precision and per-joint tracking accuracy.

Both metrics score a prediction ``PoseSequence`` against a ground-truth one
on the same joint set, matched by one ``match_poses`` call. Protocol (the
threshold is the CLI's ``--pckh-thr`` argument, a finite number > 0, default
0.5):

* A predicted joint is correct when both poses annotate it and its distance
  to the ground-truth joint is at most threshold x the person's head
  reference size (head-box diagonal x 0.6, computed upstream). ``_judge``
  is the one place this rule and its distance are computed, over the
  sequence's stacked poses: the within-frame (prediction, ground-truth)
  pairs are numbered across the whole sequence and judged ``BLOCK_PAIRS``
  at a time, so a slice may start or end mid-frame and no input judges
  more pairs at once; no frame may hold more than ``FRAME_PAIRS_LIMIT``.
  The matched pairs are judged again, in slices of the same size, for the
  rows both metrics read. The distances are bit-equal to judging one pair
  at a time.
* Poses are matched per frame, greedily, by descending count of correct
  joints; ties prefer the smaller mean normalized distance (over joints
  annotated in both, in ``np.mean``'s float order, by the same masked-mean
  helper as OKS), then the smaller (prediction, ground-truth) index pair.
  Pairs with zero correct joints stay unmatched, and only the sort keys of
  the others are kept. Consecutive frames are matched in groups of at most
  ``FRAME_PAIRS_LIMIT`` pairs, each by one sort and one walk
  (``assignment.greedy_walk``), and only a group's matched pairs are kept:
  each pose is in one frame, so the frames' matchings do not interact and
  need no frame key, and what is held across groups grows only with the
  matched pairs.
* AP ranks every reported prediction joint by its keypoint score over the
  whole dataset (ties in frame, then prediction, order) and integrates the
  interpolated precision-recall curve.
* MOTA counts per-joint misses, false positives and identity switches against
  the per-joint ground-truth total; MOTP averages the matched distances as a
  percentage of the correctness threshold (lower is better). Both are read
  from the matched rows of the whole sequence at once.

Joints with no annotated ground truth are excluded from every mean.
"""

from __future__ import annotations

import math

import numpy as np

from .assignment import greedy_walk
from .errors import PoseError
from .skeletons import canonical_name
from .suppression import _masked_mean

PCKH_THRESHOLD = 0.5
BLOCK_PAIRS = 16384   # (prediction, ground truth) pairs judged per _judge call
# most (prediction, ground truth) pairs one frame, and one group of frames
# matched together, may hold: match_poses keeps about 130 B per pair of a group
# with a correct joint, so a group peaks below 150 MB
FRAME_PAIRS_LIMIT = 2**20

# Column grouping used by the report tables.
_JOINT_GROUPS = (
    ("Head", ("nose", "head_top", "upper_neck", "left_eye", "right_eye",
              "left_ear", "right_ear")),
    ("Shoulder", ("left_shoulder", "right_shoulder")),
    ("Elbow", ("left_elbow", "right_elbow")),
    ("Wrist", ("left_wrist", "right_wrist")),
    ("Hip", ("left_hip", "right_hip", "pelvis")),
    ("Knee", ("left_knee", "right_knee")),
    ("Ankle", ("left_ankle", "right_ankle")),
)


# Table columns after the groups: (header, report key), each shown when the
# report has the key.
_TOTALS = (("Total", "total_map"), ("Total", "total_mota"), ("MOTP", "total_motp"),
           ("Prec", "total_precision"), ("Rec", "total_recall"))


def _mean_defined(values) -> float:
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


def _group_columns(js, per_joint):
    return {group: _mean_defined(per_joint.get(n) for n in js.joints
                                 if canonical_name(n) in members)
            for group, members in _JOINT_GROUPS}


def _judge(pred, gt, pi, gi, threshold: float):
    """PCKh judgement of the (prediction, ground-truth) pairs ``(pi[n], gi[n])``.

    pred holds the predictions' stacked (coords, annotated) arrays, gt the
    ground truths' (coords, annotated, head sizes). Returns three (N, K)
    arrays: the correct mask (annotated in both poses and within threshold),
    the distances normalized by the ground truth's head size and the
    annotated-in-both mask.
    """
    (p_xy, p_ann), (g_xy, g_ann, head) = pred, gt
    with np.errstate(over="ignore"):   # far apart: an infinite distance, not correct
        sq = p_xy[pi] - g_xy[gi]
        sq *= sq
        # the Euclidean norm as np.linalg.norm computes it: sqrt(x * x + y * y)
        d = np.sqrt(sq[..., 0] + sq[..., 1]) / head[gi, None]
    both = p_ann[pi] & g_ann[gi]
    return both & (d <= threshold), d, both


def _slices(start: int, stop: int) -> range:
    """Starts of the ``BLOCK_PAIRS``-long slices of ``range(start, stop)``; one
    empty slice when it is empty, so that the slices' results concatenate."""
    return range(start, max(stop, start + 1), BLOCK_PAIRS)


def _groups(n_pairs) -> list:
    """(start, stop) pair numbers of the groups of consecutive frames, each
    frame's pair count given in order, that hold at most
    ``FRAME_PAIRS_LIMIT`` pairs each: a frame joins the group before it if
    it fits. One empty group when there are no frames."""
    groups, start, stop = [], 0, 0
    for n in n_pairs:
        if stop + n - start > FRAME_PAIRS_LIMIT:
            groups.append((start, stop))
            start = stop
        stop += n
    return groups + [(start, stop)]


def match_poses(pred, gt, threshold: float = PCKH_THRESHOLD):
    """Greedy one-to-one pose assignment within each frame of two PoseSequences.

    Checked first, in order: pred and gt share a joint set, the threshold and
    every gt's head_size are finite numbers > 0, and no frame holds more than
    ``FRAME_PAIRS_LIMIT`` (pred, gt) pairs. The frames are merged by index;
    the within-frame pairs are numbered frame by frame, (pred, gt) row-major
    within a frame, and judged ``BLOCK_PAIRS`` at a time; only the sort keys
    of pairs with a correct joint are kept. Consecutive frames of at most
    ``FRAME_PAIRS_LIMIT`` pairs together (``_groups``) are matched by one sort
    and one greedy walk, only their matched pairs are kept, and no pose is
    matched across frames. The mean distance over joints annotated in both
    keeps ``np.mean``'s float order. Returns (frames, preds, gts, pairs,
    correct, dist): frames lists (frame_index, frame_preds, frame_gts) in order; preds and gts concatenate
    the frames' instances; pairs is an (M, 2) array of the matched (pred, gt)
    indices into them, sorted by gt; correct and dist are the pairs' (M, K)
    rows of the correct mask and of the distances.
    """
    if pred.joint_set != gt.joint_set:
        raise PoseError(f"prediction joint set {pred.joint_set.name!r} != "
                        f"ground truth {gt.joint_set.name!r}")
    if not 0 < threshold < math.inf:
        raise PoseError(f"PCKh threshold must be a finite number > 0, got {threshold!r}")
    pred_by_frame, gt_by_frame = dict(pred.frames), dict(gt.frames)
    frames = [(f, pred_by_frame.get(f, []), gt_by_frame.get(f, []))
              for f in sorted(pred_by_frame.keys() | gt_by_frame.keys())]
    preds = [p for _, frame_preds, _ in frames for p in frame_preds]
    gts = [g for _, _, frame_gts in frames for g in frame_gts]
    heads = [g.head_size for g in gts]
    if any(h is None or not 0 < h < math.inf for h in heads):
        raise PoseError("ground-truth instances need a finite head_size > 0")
    for f, frame_preds, frame_gts in frames:
        if len(frame_preds) * len(frame_gts) > FRAME_PAIRS_LIMIT:
            raise PoseError(f"{len(frame_preds)} predictions x {len(frame_gts)} ground "
                            f"truths exceed {FRAME_PAIRS_LIMIT} pairs in a frame", frame=f)
    k = gt.joint_set.count
    p_rows = _rows(preds, "coords", np.float64, k, 2), _rows(preds, "annotated", bool, k)
    g_rows = (_rows(gts, "coords", np.float64, k, 2), _rows(gts, "annotated", bool, k),
              np.array(heads, dtype=np.float64))
    n_p = np.array([len(frame_preds) for _, frame_preds, _ in frames], dtype=np.intp)
    n_g = np.array([len(frame_gts) for _, _, frame_gts in frames], dtype=np.intp)
    n_pairs = n_p * n_g
    p_at, g_at = np.cumsum(n_p) - n_p, np.cumsum(n_g) - n_g
    first = np.cumsum(n_pairs) - n_pairs   # each frame's first pair number

    def located(n):   # the pred and gt of pair numbers n
        f = np.searchsorted(first, n, side="right") - 1
        at = n - first[f]
        return p_at[f] + at // n_g[f], g_at[f] + at % n_g[f]

    matched = []
    for lo, hi in _groups(n_pairs.tolist()):
        kept = []
        for start in _slices(lo, hi):
            n = np.arange(start, min(start + BLOCK_PAIRS, hi))
            pi, gi = located(n)
            correct, d, both = _judge(p_rows, g_rows, pi, gi, threshold)
            count = correct.sum(axis=1)
            c = np.flatnonzero(count)   # pairs with zero correct joints never match
            with np.errstate(over="ignore"):
                kept.append((n[c], -count[c], _masked_mean(d[c], both[c])))
        n, neg_count, meandist = (np.concatenate(key) for key in zip(*kept))
        # ties by pair number, (pred, gt) order; each pose is in one frame, so no frame key
        pi, gi = located(n[np.lexsort((n, meandist, neg_count))])
        taken = greedy_walk(pi, gi)
        taken = taken[np.argsort(gi[taken])]
        matched.append((pi[taken], gi[taken]))
    pi, gi = (np.concatenate(side) for side in zip(*matched))   # a later group's gts come later
    rows = [_judge(p_rows, g_rows, pi[start:start + BLOCK_PAIRS], gi[start:start + BLOCK_PAIRS],
                   threshold) for start in _slices(0, len(pi))]
    return (frames, preds, gts, np.column_stack([pi, gi]),
            np.concatenate([correct for correct, _, _ in rows]),
            np.concatenate([d for _, d, _ in rows]))


def _average_precision(scores, hits, npos: int) -> float:
    """All-point interpolated AP (in percent) of records given as score and
    is-true-positive arrays, ranked by descending score (ties keep record
    order)."""
    if npos == 0:
        return None
    hits = hits[np.argsort(-scores, kind="stable")]
    tp = np.cumsum(hits)
    fp = np.cumsum(~hits)
    recall = tp / npos
    precision = tp / np.maximum(tp + fp, 1)
    mrec = np.concatenate([[0.0], recall])
    mpre = np.maximum.accumulate(np.concatenate([[1.0], precision])[::-1])[::-1]
    ap = float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))
    return 100.0 * ap


def _rows(instances, field: str, dtype, *shape):
    """The instances' field arrays, each of the given shape, stacked into an
    (N, *shape) array."""
    return np.array([getattr(p, field) for p in instances], dtype=dtype).reshape(
        len(instances), *shape)


def compute_map(pred, gt, threshold: float = PCKH_THRESHOLD) -> dict:
    """Per-joint AP over score-ranked keypoint detections.

    pred and gt are PoseSequences on one joint set: the predictions carry
    keypoint scores, and every ground-truth instance a finite head_size > 0.
    threshold: the PCKh threshold, a finite number > 0. All are checked by
    ``match_poses``; a bad value raises PoseError. Returns the document
    ``eval-map --json`` writes; AP is None for a joint no ground truth
    annotates.
    """
    js = gt.joint_set
    k = js.count
    _, preds, gts, pairs, correct, _ = match_poses(pred, gt, threshold)
    annotated = _rows(preds, "annotated", bool, k)
    scores = _rows(preds, "scores", np.float64, k)
    hits = np.zeros_like(annotated)
    hits[pairs[:, 0]] = correct
    npos = _rows(gts, "annotated", bool, k).sum(axis=0)
    # each joint's records: every prediction that reports it, in frame order
    ap = {name: _average_precision(scores[annotated[:, j], j], hits[annotated[:, j], j],
                                   int(npos[j]))
          for j, name in enumerate(js.joints)}
    return {
        "joint_set": js.name,
        "per_joint_ap": ap,
        "groups": _group_columns(js, ap),
        "total_map": _mean_defined(ap.values()),
    }


def _codes(values) -> np.ndarray:
    """Equal values (as dict keys are equal) get equal integer codes."""
    seen = {}
    return np.array([seen.setdefault(v, len(seen)) for v in values], dtype=np.intp)


def _check_ids(frames):
    """Raise the first id fault of frames, in frame order, if there is one."""
    for frame_index, frame_preds, frame_gts in frames:
        if any(p.track_id is None for p in frame_preds):
            raise PoseError("compute_mota needs track ids on predictions", frame=frame_index)
        ids = [g.person_id for g in frame_gts]
        if None in ids:
            raise PoseError("compute_mota needs person ids on ground truth", frame=frame_index)
        if len(set(ids)) != len(ids):
            raise PoseError("duplicate person ids in frame", frame=frame_index)


def compute_mota(pred, gt, threshold: float = PCKH_THRESHOLD) -> dict:
    """Per-joint MOTA, and MOTP/precision/recall means, for tracked predictions.

    pred, gt and threshold are as for :func:`compute_map`; predictions
    must carry track ids, and ground truth person ids unique within a frame.
    Every annotated ground-truth joint not judged correct is a miss and every
    reported prediction joint not judged correct is a false positive. Head
    sizes are checked in every frame before ids are, and the first id fault
    in frame order is raised. Returns the document ``eval-mota --json``
    writes.
    """
    js = gt.joint_set
    k = js.count
    frames, preds, gts, pairs, correct, dist = match_poses(pred, gt, threshold)
    _check_ids(frames)

    gt_total = _rows(gts, "annotated", bool, k).sum(axis=0)
    reported = _rows(preds, "annotated", bool, k).sum(axis=0)
    tp = correct.sum(axis=0)
    # summed pair by pair in ground-truth order, one fixed float order per
    # joint
    dist_sum = np.cumsum(np.vstack([np.zeros(k), np.where(correct, dist, 0.0)]), axis=0)[-1]
    # an identity switch: a (person, joint) judged correct whose track id
    # differs from its previous correct match's
    m, j = np.nonzero(correct)
    person = _codes([g.person_id for g in gts])[pairs[m, 1]]
    track = _codes([p.track_id for p in preds])[pairs[m, 0]]
    order = np.lexsort((j, person))   # stable: pair order within a (person, joint)
    person, j, track = person[order], j[order], track[order]
    switch = (person[1:] == person[:-1]) & (j[1:] == j[:-1]) & (track[1:] != track[:-1])
    idsw = np.bincount(j[1:][switch], minlength=k)
    fn = gt_total - tp
    fp = reported - tp

    mota, precision, recall, motp = {}, [], [], []
    for j, name in enumerate(js.joints):
        if gt_total[j] == 0:
            mota[name] = None
            continue
        mota[name] = 100.0 * (1.0 - (fn[j] + fp[j] + idsw[j]) / gt_total[j])
        denom = tp[j] + fp[j]
        precision.append(100.0 * tp[j] / denom if denom else 0.0)
        recall.append(100.0 * tp[j] / gt_total[j])
        if tp[j]:
            motp.append(100.0 * (dist_sum[j] / tp[j]) / threshold)

    return {
        "joint_set": js.name,
        "per_joint_mota": mota,
        "groups": _group_columns(js, mota),
        "total_mota": _mean_defined(mota.values()),
        "total_motp": _mean_defined(motp),
        "total_precision": _mean_defined(precision),
        "total_recall": _mean_defined(recall),
        "counts": {
            "gt_joints": {n: int(gt_total[j]) for j, n in enumerate(js.joints)},
            "fn": int(fn.sum()), "fp": int(fp.sum()), "idsw": int(idsw.sum()),
            "fp_per_joint": {n: int(fp[j]) for j, n in enumerate(js.joints)},
        },
    }


def _fmt(v) -> str:
    return "  -" if v is None else f"{v:5.1f}"


def format_table(report: dict) -> str:
    """Aligned text table of a ``compute_map`` or ``compute_mota`` report:
    one row, Head..Ankle plus the totals the report has."""
    cols = list(report["groups"].items()) + [
        (name, report[key]) for name, key in _TOTALS if key in report]
    header = " | ".join(f"{name:>8}" for name, _ in cols)
    row = " | ".join(f"{_fmt(v):>8}" for _, v in cols)
    return header + "\n" + row
