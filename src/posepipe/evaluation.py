"""Per-joint average precision and per-joint tracking accuracy.

Protocol (the threshold is the CLI's ``--pckh-thr`` argument, a finite
number > 0, default 0.5):

* A predicted joint is correct when both poses annotate it and its distance
  to the ground-truth joint is at most threshold x the person's head
  reference size (head-box diagonal x 0.6, computed upstream). ``_judge``
  is the one place this rule and its distance are computed, over stacked
  poses: matching judges a frame's P x G pairs in one call, and both
  metrics read the matched pairs' rows of that judgement. The distances
  are bit-equal to judging one pair at a time.
* Poses are matched per frame, greedily, by descending count of correct
  joints; ties prefer the smaller mean normalized distance (over joints
  annotated in both, in ``np.mean``'s float order, by the same masked-mean
  helper as OKS), then the smaller (prediction, ground-truth) index pair.
  Pairs with zero correct joints stay unmatched.
* AP ranks every reported prediction joint by its keypoint score over the
  whole dataset and integrates the interpolated precision-recall curve.
* MOTA counts per-joint misses, false positives and identity switches against
  the per-joint ground-truth total; MOTP averages the matched distances as a
  percentage of the correctness threshold (lower is better).

Joints with no annotated ground truth are excluded from every mean.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PoseError
from .skeletons import canonical_name, get_joint_set
from .suppression import _masked_mean

PCKH_THRESHOLD = 0.5

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


def _judge(preds, gts, threshold: float):
    """PCKh judgement of every prediction x ground-truth pair.

    Returns three (P, G, K) arrays: the correct mask (annotated in both
    poses and within threshold), the distances normalized by the ground
    truth's head size and the annotated-in-both mask; None if either stack
    is empty. The one check of the threshold and of head sizes (each a
    finite number > 0) runs first, so a call on no input checks the threshold.
    """
    if not 0 < threshold < math.inf:
        raise PoseError(f"PCKh threshold must be a finite number > 0, got {threshold!r}")
    heads = [g.head_size for g in gts]
    if any(h is None or not 0 < h < math.inf for h in heads):
        raise PoseError("ground-truth instances need a finite head_size > 0")
    if not preds or not gts:
        return None
    pc = np.stack([p.coords for p in preds])[:, None]
    pa = np.stack([p.annotated for p in preds])[:, None]
    gc = np.stack([g.coords for g in gts])
    d = np.linalg.norm(pc - gc, axis=-1) / np.array(heads, dtype=np.float64)[:, None]
    both = pa & np.stack([g.annotated for g in gts])
    return both & (d <= threshold), d, both


def match_poses(preds, gts, threshold: float = PCKH_THRESHOLD):
    """Greedy one-to-one pose assignment for a single frame.

    preds/gts are PersonInstance lists in the same joint set; every gt must
    carry head_size. All P x G pairs are judged at once; the mean distance
    over joints annotated in both keeps ``np.mean``'s float order. Returns
    (pairs, correct, dist): the matched (pred_index, gt_index) pairs in
    ground-truth order and their (len(pairs), K) rows of the correct mask and
    of the distances; ``[], None, None`` if either side is empty.
    """
    judged = _judge(preds, gts, threshold)
    if judged is None:
        return [], None, None
    correct, d, both = judged
    count = correct.sum(axis=-1)
    meandist = _masked_mean(d, both)
    pi, gi = np.nonzero(count > 0)
    order = np.lexsort((gi, pi, meandist[pi, gi], -count[pi, gi]))
    used_p, used_g, matches = set(), set(), []
    for p, g in zip(pi[order].tolist(), gi[order].tolist()):
        if p in used_p or g in used_g:
            continue
        used_p.add(p)
        used_g.add(g)
        matches.append((p, g))
    matches.sort(key=lambda pair: pair[1])
    pi, gi = [p for p, _ in matches], [g for _, g in matches]
    return matches, correct[pi, gi], d[pi, gi]


def _average_precision(scored, npos: int) -> float:
    """All-point interpolated AP (in percent) from (score, is_tp) records."""
    if npos == 0:
        return None
    if not scored:
        return 0.0
    scored = sorted(scored, key=lambda r: -r[0])
    tp = np.cumsum([1 if hit else 0 for _, hit in scored])
    fp = np.cumsum([0 if hit else 1 for _, hit in scored])
    recall = tp / npos
    precision = tp / np.maximum(tp + fp, 1)
    mrec = np.concatenate([[0.0], recall])
    mpre = np.concatenate([[1.0], precision])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    ap = float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))
    return 100.0 * ap


def _index_frames(frames, js):
    seen = {}
    for frame_index, instances in frames:
        if frame_index in seen:
            raise PoseError(f"duplicate frame index {frame_index}")
        for p in instances:
            if p.joint_set != js:
                raise PoseError(f"instance joint set {p.joint_set.name!r} does not "
                                f"match {js.name!r}")
        seen[frame_index] = instances
    return seen


def _matched_frames(preds, gts, js, threshold: float):
    """Match and judge every frame, in frame-index order.

    Yields (frame_index, frame_preds, frame_gts, pairs, correct, dist): pairs
    are the matched (pred_index, gt_index) in ground-truth order, and
    correct/dist are their (len(pairs), K) rows of ``match_poses``'s
    judgement.
    """
    _judge((), (), threshold)   # checked even when there is no frame to judge
    k = js.count
    pred_by_frame = _index_frames(preds, js)
    gt_by_frame = _index_frames(gts, js)
    for frame_index in sorted(set(pred_by_frame) | set(gt_by_frame)):
        frame_preds = pred_by_frame.get(frame_index, [])
        frame_gts = gt_by_frame.get(frame_index, [])
        pairs, correct, dist = match_poses(frame_preds, frame_gts, threshold)
        if correct is None:   # no prediction or no ground truth in this frame
            correct, dist = np.zeros((0, k), dtype=bool), np.zeros((0, k))
        yield frame_index, frame_preds, frame_gts, pairs, correct, dist


def compute_map(preds, gts, joint_set="posetrack",
                threshold: float = PCKH_THRESHOLD) -> dict:
    """Per-joint AP over score-ranked keypoint detections.

    preds: iterable of (frame_index, [PersonInstance]) with keypoint scores.
    gts: iterable of (frame_index, [PersonInstance]), every instance carrying
    a finite head_size > 0. threshold: the PCKh threshold, a finite number > 0.
    Both are checked by ``_judge``; a bad value raises PoseError. joint_set is
    a JointSet or a registered name. Returns the document ``eval-map --json``
    writes; AP is None for a joint no ground truth annotates.
    """
    js = get_joint_set(joint_set)
    k = js.count
    npos = np.zeros(k, dtype=np.int64)
    records = [[] for _ in range(k)]   # (score, is_tp) per joint

    for _, frame_preds, frame_gts, pairs, correct, _ in _matched_frames(
            preds, gts, js, threshold):
        for g in frame_gts:
            npos += g.annotated
        hits = np.zeros((len(frame_preds), k), dtype=bool)
        hits[[pi for pi, _ in pairs]] = correct
        for p, hit in zip(frame_preds, hits):
            for j in np.flatnonzero(p.annotated).tolist():
                records[j].append((float(p.scores[j]), bool(hit[j])))

    ap = {name: _average_precision(records[j], int(npos[j]))
          for j, name in enumerate(js.joints)}
    return {
        "joint_set": js.name,
        "per_joint_ap": ap,
        "groups": _group_columns(js, ap),
        "total_map": _mean_defined(ap.values()),
    }


def compute_mota(preds, gts, joint_set="posetrack",
                 threshold: float = PCKH_THRESHOLD) -> dict:
    """Per-joint MOTA, and MOTP/precision/recall means, for tracked predictions.

    preds, gts and threshold are as for :func:`compute_map`; predictions
    must carry track ids, and ground truth person ids unique within a frame.
    Every annotated ground-truth joint not judged correct is a miss and every
    reported prediction joint not judged correct is a false positive.
    Returns the document ``eval-mota --json`` writes.
    """
    js = get_joint_set(joint_set)
    k = js.count
    gt_total = np.zeros(k, dtype=np.int64)
    reported = np.zeros(k, dtype=np.int64)
    tp = np.zeros(k, dtype=np.int64)
    idsw = np.zeros(k, dtype=np.int64)
    dist_sum = np.zeros(k, dtype=np.float64)
    last_id = {}   # (person_id, joint) -> last matched track id

    for frame_index, frame_preds, frame_gts, pairs, correct, dist in _matched_frames(
            preds, gts, js, threshold):
        for p in frame_preds:
            if p.track_id is None:
                raise PoseError("compute_mota needs track ids on predictions",
                                frame=frame_index)
            reported += p.annotated
        ids = [g.person_id for g in frame_gts]
        if None in ids:
            raise PoseError("compute_mota needs person ids on ground truth",
                            frame=frame_index)
        if len(set(ids)) != len(ids):
            raise PoseError("duplicate person ids in frame", frame=frame_index)
        for g in frame_gts:
            gt_total += g.annotated
        tp += correct.sum(axis=0)
        for (pi, gi), ok, d in zip(pairs, correct, dist):
            # summed pair by pair in ground-truth order, one fixed float
            # order per joint
            dist_sum += np.where(ok, d, 0.0)
            track_id, person_id = frame_preds[pi].track_id, frame_gts[gi].person_id
            for j in np.flatnonzero(ok).tolist():
                prev = last_id.get((person_id, j))
                if prev is not None and prev != track_id:
                    idsw[j] += 1
                last_id[(person_id, j)] = track_id
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
