"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (full
enumeration, no shortcuts, no library code) and kept free of the library's
own algorithm code paths. The assignment oracle is still a full enumeration
of every permutation; it is only batched over permutations with numpy
instead of looping over them in Python. The re-solving Hungarian and the
cell-scanning greedy assignment are the library's earlier solvers, kept as
they were (about O(n^5) and O(n^3) Python steps) to check the faster ones on
matrices too large to enumerate. The mAP/MOTA references keep the
per-joint loops, with the library's earlier AP integration
(``reference_average_precision``: a ``sorted`` ranking and a backward max
loop) kept as it was, and reuse only the library's mean, so they check the
matching-and-judging bookkeeping and the AP arithmetic, not that formula.
The one-pair OKS, the pair-by-pair pose matching and the one-pair box IoU
with its pop-and-filter box NMS, and the one-track propagation
(``reference_propagate``), are the library's earlier versions, kept as they
were, to check the stacked kernels bit for bit. ``pckh_distance`` is the
one-joint PCKh distance, the textbook form the judgement in ``evaluation``
stacks. The head-swap and vote fusions are
the library's earlier versions too (decode each branch, then project; one
index pair at a time); they reuse its decode and pose projection and check
that decoding one assembled target-set map gives the same bits. The toy
network's ``np.pad`` im2col, its conv backward that always returns every
gradient, its all-heads full-depth ``gradients`` and the one-sample
held-out error are the library's earlier versions, kept as they were, to
check that the trainer's shortcuts give the same bits. ``reference_unmirror``
is the loop the synthetic scenes once used to build a flipped-input
prediction, kept as it was, to check that it is ``heatmaps.unmirror``.
``reference_flip_merge`` (un-mirror and average every channel) and
``reference_smooth`` (``np.pad`` each axis, then sum the taps) are the
library's earlier versions, kept as they were, to check that merging only
the rows a fusion reads and smoothing through a cached index gather give the
same bits.
``reference_load_pose_file`` is the library's earlier pose reader, which
builds each record on its own into a ``PersonInstance`` (through
``poseio.read_frames``), kept as it was but for the head_box check, to
check that the stacked reader gives the same instances bit for bit, or the
same error.
"""

import functools
import itertools
import math

import numpy as np

from posepipe.errors import PoseError, checked
from posepipe.heatmaps import Heatmap, peaks
from posepipe.instances import PersonInstance, check_box
from posepipe.poseio import PoseSequence, document, instance_frame, read_document, read_frames
from posepipe.skeletons import JointSet, get_joint_set, mapping
from posepipe.synthetic import project_to_merged
from posepipe.toynet import _select_joints, forward


@functools.lru_cache(maxsize=None)
def _permutations(n):
    """Every permutation of range(n) as an (n!, n) array, one per row, in
    itertools.permutations (lexicographic) order."""
    rows = list(itertools.permutations(range(n)))
    perms = np.array(rows, dtype=np.intp).reshape(len(rows), n)
    perms.flags.writeable = False
    return perms


def brute_force_assignment(cost):
    """Exhaustive minimum-cost maximum matching over the zero-padded square
    problem; ties resolved toward the lexicographically smallest assignment
    vector. Returns (row -> col dict on real cells, total cost).

    Every permutation's total is summed row by row, left to right, from 0,
    the float order of a plain ``sum`` over the permutation. Scanning in
    lexicographic order, a later permutation replaces the best only when it
    is cheaper by more than 1e-12, so among near-ties the earliest wins.
    """
    a = np.asarray(cost, dtype=np.float64)
    r, c = a.shape
    n = max(r, c)
    padded = np.zeros((n, n))
    padded[:r, :c] = a
    perms = _permutations(n)
    totals = np.zeros(len(perms))
    for i in range(n):
        totals += padded[i, perms[:, i]]
    best = 0
    while True:
        cheaper = np.flatnonzero(totals[best + 1:] < totals[best] - 1e-12)
        if not len(cheaper):
            break
        best += 1 + int(cheaper[0])
    real = {i: int(j) for i, j in enumerate(perms[best]) if i < r and j < c}
    return real, float(sum(a[i, j] for i, j in real.items()))


def _reference_solve_square(cost: np.ndarray) -> np.ndarray:
    """Column-for-row assignment of an n x n matrix, minimum total cost.

    Shortest-augmenting-path formulation with row/column potentials; scans
    are in ascending index order so the result is deterministic.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=np.int64)   # match[j]: row held by column j (1-based, 0 = free)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        way = np.zeros(n + 1, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            free = ~used[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            reach = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(reach)) + 1
            delta = reach[j1 - 1]
            u[match[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    col_of_row = np.zeros(n, dtype=np.int64)
    for j in range(1, n + 1):
        col_of_row[match[j] - 1] = j - 1
    return col_of_row


def _reference_optimal_total(cost: np.ndarray) -> float:
    cols = _reference_solve_square(cost)
    return float(cost[np.arange(cost.shape[0]), cols].sum())


def reference_lex_hungarian(cost) -> dict:
    """Lexicographically smallest minimum-cost maximum matching by re-solving:
    fix rows in order, each to the smallest column whose forced choice still
    admits a completion within the tolerance of the remaining optimum, found
    by solving the rest from scratch for every candidate column, about
    O(n^5).
    """
    a = np.asarray(cost, dtype=np.float64)
    r, c = a.shape
    if r == 0 or c == 0:
        return {}
    n = max(r, c)
    padded = np.zeros((n, n), dtype=np.float64)
    padded[:r, :c] = a
    lo = padded.min()
    if lo < 0:
        padded = padded - lo   # keep reduced costs nonnegative for the path search

    tol = 1e-9 * max(1.0, float(np.abs(padded).max())) * n

    # Fix rows in order to the smallest column that still admits an optimal
    # completion; only columns before the current optimum need probing.
    rows = list(range(n))
    cols = list(range(n))
    sub = padded
    chosen = {}
    while rows:
        local = _reference_solve_square(sub)
        opt = float(sub[np.arange(sub.shape[0]), local].sum())
        best_local = int(local[0])
        pick = best_local
        for j_local in range(best_local):
            rest = np.delete(np.delete(sub, 0, axis=0), j_local, axis=1)
            rest_total = _reference_optimal_total(rest) if rest.size else 0.0
            if sub[0, j_local] + rest_total <= opt + tol:
                pick = j_local
                break
        chosen[rows[0]] = cols[pick]
        rows.pop(0)
        cols.pop(pick)
        sub = np.delete(np.delete(sub, 0, axis=0), pick, axis=1)

    return {i: j for i, j in sorted(chosen.items()) if i < r and j < c}


def reference_greedy_assignment(cost) -> dict:
    """Repeatedly take the globally cheapest remaining cell, ties by (row, col),
    scanning every remaining cell for each pick."""
    a = np.asarray(cost, dtype=np.float64)
    r, c = a.shape
    if r == 0 or c == 0:
        return {}
    work = a.copy()
    rows_left = np.ones(r, dtype=bool)
    cols_left = np.ones(c, dtype=bool)
    out = {}
    for _ in range(min(r, c)):
        best = np.inf
        pick = None
        for i in range(r):
            if not rows_left[i]:
                continue
            for j in range(c):
                if cols_left[j] and work[i, j] < best:
                    best = work[i, j]
                    pick = (i, j)
        i, j = pick
        out[i] = j
        rows_left[i] = False
        cols_left[j] = False
    return dict(sorted(out.items()))


def assignment_total(cost, assignment: dict) -> float:
    """Sum of the cost cells an assignment picks."""
    a = np.asarray(cost, dtype=np.float64)
    return float(sum(a[i, j] for i, j in assignment.items()))


def reference_greedy_nms(similarity_matrix, scores, threshold):
    """Greedy NMS simulated on a precomputed full pairwise matrix.

    Visit candidates in stable score-descending order; a candidate is kept
    unless some already-kept candidate has similarity >= threshold to it.
    """
    sims = np.asarray(similarity_matrix, dtype=np.float64)
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    keep = []
    for i in order:
        if all(sims[k, i] < threshold for k in keep):
            keep.append(int(i))
    return keep


def reference_box_iou(a, b) -> float:
    """Intersection over union of two (x, y, w, h) boxes, in Python floats."""
    ax, ay, aw, ah = (float(v) for v in a)
    bx, by, bw, bh = (float(v) for v in b)
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def reference_box_nms(boxes, scores, threshold):
    """Greedy IoU suppression, score-descending with input order breaking
    ties: pop the best remaining box, keep it, and drop every remaining box
    whose IoU to it is >= threshold, one pair at a time."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    order = list(np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable"))
    keep = []
    while order:
        i = order.pop(0)
        keep.append(int(i))
        order = [j for j in order if reference_box_iou(boxes[i], boxes[j]) < threshold]
    return keep


def numeric_gradient(fn, params, names=None, eps_scale=1e-4):
    """Central finite differences of fn() with respect to the arrays in
    params (dict name -> ndarray, mutated in place while probing)."""
    grads = {}
    for name in (names or params):
        p = params[name]
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            eps = eps_scale * max(1.0, abs(p[ix]))
            orig = p[ix]
            p[ix] = orig + eps
            lp = fn()
            p[ix] = orig - eps
            lm = fn()
            p[ix] = orig
            g[ix] = (lp - lm) / (2.0 * eps)
        grads[name] = g
    return grads


def reference_pose_matching(count, meandist):
    """Greedy pose matching from precomputed matrices, plain loops.

    count[p][g] = number of correct joints; meandist[p][g] = mean normalized
    distance (inf when undefined). Highest count first, then lowest mean
    distance, then lowest (p, g). Pairs with zero correct joints never match.
    """
    count = [list(row) for row in count]
    meandist = [list(row) for row in meandist]
    used_p, used_g, matches = set(), set(), []
    while True:
        best = None
        for p in range(len(count)):
            if p in used_p:
                continue
            for g in range(len(count[p])):
                if g in used_g or count[p][g] < 1:
                    continue
                key = (-count[p][g], meandist[p][g], p, g)
                if best is None or key < best:
                    best = key
        if best is None:
            return matches
        _, _, p, g = best
        used_p.add(p)
        used_g.add(g)
        matches.append((p, g))


def reference_unmirror(h):
    """The prediction a perfect network would emit for the mirrored input:
    swap the joint set's paired channels, shift one cell toward -x, then
    reverse the W axis."""
    flip_pairs = get_joint_set(h.joint_set).flip_pairs
    v = h.values.copy()
    swapped = v.copy()
    for a, b in flip_pairs:
        swapped[a] = v[b]
        swapped[b] = v[a]
    shifted = swapped.copy()
    shifted[:, :, :-1] = swapped[:, :, 1:]
    return Heatmap(shifted[:, :, ::-1].copy(), h.joint_set, h.crop, h.strides)


def reference_flip_merge(h, h_flipped_input):
    """Flip-merge as the library first did it: un-mirror every channel of the
    flipped-input prediction (reverse W, shift one cell toward +x, swap the
    paired channels), then average the whole branch in float64."""
    from posepipe.heatmaps import check_flip_pair
    check_flip_pair(h, h_flipped_input)
    rev = h_flipped_input.values[:, :, ::-1]
    shifted = rev.copy()
    shifted[:, :, 1:] = rev[:, :, :-1]
    un = shifted.copy()
    for a, b in get_joint_set(h_flipped_input.joint_set).flip_pairs:
        un[a] = shifted[b]
        un[b] = shifted[a]
    merged = (h.values.astype(np.float64) + un.astype(np.float64)) / 2.0
    return Heatmap(merged.astype(np.float32), h.joint_set, h.crop, h.strides)


def reference_smooth(h, sigma_filter):
    """Smoothing as the library first did it: ``np.pad`` each axis
    symmetric-reflect, then sum the kernel's taps over shifted windows."""
    if sigma_filter == 0:
        return h
    radius = int(math.ceil(3.0 * sigma_filter))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(t * t) / (2.0 * sigma_filter * sigma_filter))
    kernel = kernel / kernel.sum()
    r = len(kernel) // 2
    v = h.values.astype(np.float64)
    _, height, width = v.shape

    padded = np.pad(v, ((0, 0), (r, r), (0, 0)), mode="symmetric")
    out = np.zeros_like(v)
    for t, kt in enumerate(kernel):
        out += kt * padded[:, t:t + height, :]

    padded = np.pad(out, ((0, 0), (0, 0), (r, r)), mode="symmetric")
    out = np.zeros_like(v)
    for t, kt in enumerate(kernel):
        out += kt * padded[:, :, t:t + width]

    return Heatmap(out.astype(np.float32), h.joint_set, h.crop, h.strides)


def reference_take(m, values, k_to):
    """Re-index per-joint rows into a k_to-row array, one index pair at a
    time; rows with no source stay zero and the input dtype is kept."""
    values = np.asarray(values)
    out = np.zeros((k_to,) + values.shape[1:], dtype=values.dtype)
    for i, j in m.index_map:
        out[j] = values[i]
    return out


def reference_grid_peaks(channels, use_quarter_offset=True):
    """(K, H, W) -> (K, 2) grid xy: per-channel argmax, then for an interior
    peak a 0.25-cell shift per axis toward the larger neighbor (none on a
    tie), one channel at a time."""
    k, h, w = channels.shape
    flat = channels.reshape(k, -1).argmax(axis=1)
    py, px = np.divmod(flat, w)
    out = np.stack([px, py], axis=1).astype(np.float64)
    for i in range(k):
        x, y = int(px[i]), int(py[i])
        if use_quarter_offset and 0 < x < w - 1 and 0 < y < h - 1:
            c = channels[i]
            if c[y, x + 1] > c[y, x - 1]:
                out[i, 0] += 0.25
            elif c[y, x - 1] > c[y, x + 1]:
                out[i, 0] -= 0.25
            if c[y + 1, x] > c[y - 1, x]:
                out[i, 1] += 0.25
            elif c[y - 1, x] > c[y + 1, x]:
                out[i, 1] -= 0.25
    return out


def pckh_distance(pred_joint, gt_joint, head_size: float) -> float:
    """Euclidean distance of one joint normalized by the head reference size."""
    from posepipe.errors import PoseError
    if head_size <= 0:
        raise PoseError("head size must be positive")
    p = np.asarray(pred_joint, dtype=np.float64)
    g = np.asarray(gt_joint, dtype=np.float64)
    return float(np.linalg.norm(p - g) / head_size)


def _reference_frame_distances(preds, gts):
    """{(p, g): (K,) head-normalised distances} for one frame, row-wise norm."""
    return {(pi, gi): np.linalg.norm(p.coords - g.coords, axis=1) / g.head_size
            for pi, p in enumerate(preds) for gi, g in enumerate(gts)}


def _reference_frame_matches(preds, gts, dist, threshold):
    """{pred index: gt index} via reference_pose_matching over plain loops."""
    count = [[0] * len(gts) for _ in preds]
    meandist = [[np.inf] * len(gts) for _ in preds]
    for (pi, gi), d in dist.items():
        both = [j for j in range(len(d))
                if preds[pi].annotated[j] and gts[gi].annotated[j]]
        if both:
            count[pi][gi] = sum(1 for j in both if d[j] <= threshold)
            meandist[pi][gi] = float(d[both].mean())
    return dict(reference_pose_matching(count, meandist))


def _reference_frames(preds, gts):
    pred_by_frame, gt_by_frame = dict(preds), dict(gts)
    for frame_index in sorted(set(pred_by_frame) | set(gt_by_frame)):
        yield frame_index, pred_by_frame.get(frame_index, []), gt_by_frame.get(frame_index, [])


def reference_average_precision(scored, npos: int) -> float:
    """All-point interpolated AP (in percent) from (score, is_tp) records:
    ``sorted`` by descending score, cumulative sums, then a backward loop
    for the interpolated precision."""
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


def reference_compute_map(preds, gts, k, threshold):
    """Per-joint AP with one loop per prediction joint: {"ap", "map_total"}
    with ap as a per-joint list."""
    from posepipe.evaluation import _mean_defined
    npos = [0] * k
    records = [[] for _ in range(k)]
    for _, frame_preds, frame_gts in _reference_frames(preds, gts):
        for g in frame_gts:
            for j in range(k):
                npos[j] += int(g.annotated[j])
        dist = _reference_frame_distances(frame_preds, frame_gts)
        matches = _reference_frame_matches(frame_preds, frame_gts, dist, threshold)
        for pi, p in enumerate(frame_preds):
            gi = matches.get(pi)
            for j in range(k):
                if not p.annotated[j]:
                    continue
                hit = (gi is not None and frame_gts[gi].annotated[j]
                       and dist[pi, gi][j] <= threshold)
                records[j].append((float(p.scores[j]), hit))
    ap = [reference_average_precision(records[j], npos[j]) for j in range(k)]
    return {"ap": ap, "map_total": _mean_defined(ap)}


def reference_compute_mota(preds, gts, k, threshold):
    """Per-joint MOTA with separate ground-truth and false-positive loops:
    per-joint lists "mota", "precision", "recall", "gt_joints", "fp", their
    "*_total" means, and the totals "fn", "idsw" and "motp_total"."""
    from posepipe.evaluation import _mean_defined
    gt_total, fn, fp, idsw, tp = ([0] * k for _ in range(5))
    dist_sum = [0.0] * k
    last_id = {}
    for _, frame_preds, frame_gts in _reference_frames(preds, gts):
        dist = _reference_frame_distances(frame_preds, frame_gts)
        matches = _reference_frame_matches(frame_preds, frame_gts, dist, threshold)
        matched_gt = {gi: pi for pi, gi in matches.items()}
        for gi, g in enumerate(frame_gts):
            pi = matched_gt.get(gi)
            for j in range(k):
                if not g.annotated[j]:
                    continue
                gt_total[j] += 1
                if (pi is not None and frame_preds[pi].annotated[j]
                        and dist[pi, gi][j] <= threshold):
                    tp[j] += 1
                    dist_sum[j] += dist[pi, gi][j]
                    prev = last_id.get((g.person_id, j))
                    if prev is not None and prev != frame_preds[pi].track_id:
                        idsw[j] += 1
                    last_id[g.person_id, j] = frame_preds[pi].track_id
                else:
                    fn[j] += 1
        for pi, p in enumerate(frame_preds):
            gi = matches.get(pi)
            for j in range(k):
                if p.annotated[j] and not (
                        gi is not None and frame_gts[gi].annotated[j]
                        and dist[pi, gi][j] <= threshold):
                    fp[j] += 1
    defined = [j for j in range(k) if gt_total[j]]
    mota = [100.0 * (1.0 - (fn[j] + fp[j] + idsw[j]) / gt_total[j])
            if j in defined else None for j in range(k)]
    precision = [(100.0 * tp[j] / (tp[j] + fp[j]) if tp[j] + fp[j] else 0.0)
                 if j in defined else None for j in range(k)]
    recall = [100.0 * tp[j] / gt_total[j] if j in defined else None for j in range(k)]
    motp = [100.0 * (dist_sum[j] / tp[j]) / threshold for j in defined if tp[j]]
    return {"mota": mota, "precision": precision, "recall": recall,
            "mota_total": _mean_defined(mota),
            "precision_total": _mean_defined(precision),
            "recall_total": _mean_defined(recall),
            "gt_joints": gt_total, "fp": fp, "fn": sum(fn), "idsw": sum(idsw),
            "motp_total": _mean_defined(motp) if motp else None}


def reference_propagate(history, gap, propagator):
    """One track's predicted pose at gap frames after its last: its last
    instance (``identity``, or ``velocity`` with fewer than two observations
    or gap 0), or box and keypoints moved linearly from its last two."""
    import dataclasses
    frames = sorted(history)
    cur = history[frames[-1]]
    if propagator == "identity" or gap == 0 or len(frames) < 2:
        return cur
    prev = history[frames[-2]]
    dt = frames[-1] - frames[-2]
    vel_kp = (cur.coords - prev.coords) / dt
    vel_box = (cur.box[:2] - prev.box[:2]) / dt
    box = cur.box.copy()
    box[:2] = box[:2] + vel_box * gap
    return dataclasses.replace(cur, box=box, coords=cur.coords + vel_kp * gap)


def reference_oks(a, b, consts):
    """Keypoint similarity of b to reference a, normalized by a's area.

    Mean over jointly annotated joints of exp(-d^2 / (2 area k^2)); 0.0 when
    no joint is annotated in both.
    """
    from posepipe.errors import PoseError
    if a.joint_set != b.joint_set or a.joint_set != consts.joint_set:
        raise PoseError(
            f"oks joint-set mismatch: {a.joint_set!r}, {b.joint_set!r}, {consts.joint_set!r}"
        )
    area = float(a.box[2] * a.box[3])
    if area <= 0:
        raise PoseError("reference instance area must be positive")
    shared = a.annotated & b.annotated
    if not shared.any():
        return 0.0
    d2 = np.sum((a.coords[shared] - b.coords[shared]) ** 2, axis=1)
    k2 = consts.falloff[shared] ** 2
    return float(np.mean(np.exp(-d2 / (2.0 * area * k2))))


def _reference_judge(p, g, threshold):
    """PCKh judgement of prediction p against ground truth g, per joint.

    Returns the (K,) correct mask (annotated in both poses and within
    threshold) and the (K,) distances normalized by g's head size.
    """
    from posepipe.errors import PoseError
    if g.head_size is None or g.head_size <= 0:
        raise PoseError("ground-truth instances need a positive head_size")
    d = np.linalg.norm(p.coords - g.coords, axis=1) / g.head_size
    return p.annotated & g.annotated & (d <= threshold), d


def reference_match_poses(preds, gts, threshold):
    """Greedy one-to-one pose assignment for a single frame, judged one
    (prediction, ground-truth) pair at a time. Returns a list of
    (pred_index, gt_index) pairs."""
    candidates = []
    for pi, p in enumerate(preds):
        for gi, g in enumerate(gts):
            correct, d = _reference_judge(p, g, threshold)
            count = int(correct.sum())
            if count > 0:
                both = p.annotated & g.annotated
                candidates.append((-count, float(d[both].mean()), pi, gi))
    candidates.sort()
    used_p, used_g, matches = set(), set(), []
    for _, _, pi, gi in candidates:
        if pi in used_p or gi in used_g:
            continue
        used_p.add(pi)
        used_g.add(gi)
        matches.append((pi, gi))
    return matches


def reference_fuse_head_swap(b, body_branch, head_branch, target_set,
                             smooth_sigma=1.0, use_quarter_offset=True):
    """Head-swap as the library first did it: decode the body and head
    branches whole, project the body pose onto the target set, then write
    the head branch's decoded head joints over it."""
    from posepipe.errors import PoseError
    from posepipe.fusion import _HEAD_JOINTS, _project_pose, decode
    from posepipe.skeletons import canonical_name, get_joint_set
    head_js = get_joint_set(b[head_branch].joint_set)
    head_names = [n for n in head_js.joints if canonical_name(n) in _HEAD_JOINTS]
    if not head_names:
        raise PoseError(f"head branch {head_branch!r} provides no head joints")

    body = decode(b[body_branch], smooth_sigma, use_quarter_offset)
    head = decode(b[head_branch], smooth_sigma, use_quarter_offset)
    out = _project_pose(body, target_set)

    target_js = get_joint_set(target_set)
    for i, name in enumerate(target_js.joints):
        cname = canonical_name(name)
        if cname not in _HEAD_JOINTS:
            continue
        try:
            j = head_js.index(cname)
        except PoseError:
            continue
        out.coords[i] = head.coords[j]
        out.scores[i] = head.scores[j]
        out.annotated[i] = head.annotated[j]
    return out


def reference_fuse_vote(b, target_set, smooth_sigma=1.0, use_quarter_offset=True):
    """Vote as the library first did it: accumulate each branch's channels
    into the target rows one index pair at a time, in sorted branch order,
    then average and decode."""
    from posepipe.heatmaps import Heatmap, decode
    from posepipe.skeletons import JointSet, get_joint_set, mapping
    first = next(iter(b.branches.values()))
    (height, width), crop, strides = first.values.shape[1:], first.crop, first.strides
    target_js = get_joint_set(target_set)
    k = target_js.count
    votes = np.zeros((k, height, width), dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    for name in sorted(b.branches):
        h = b.branches[name]
        m = mapping(name, target_set)
        for i, j in m.index_map:
            votes[j] += h.values[i].astype(np.float64)
            counts[j] += 1
    nonzero = counts > 0
    votes[nonzero] /= counts[nonzero, None, None]
    avg = Heatmap(votes.astype(np.float32), target_set, crop, strides)
    return decode(avg, smooth_sigma, use_quarter_offset)


def reference_im2col(x, dilation: int = 1):
    """(B, C, H, W) -> (B, C*9, H*W) patch matrix for a same-padded 3x3 conv."""
    bsz, c, h, w = x.shape
    d = dilation
    xp = np.pad(x, ((0, 0), (0, 0), (d, d), (d, d)))
    cols = np.empty((bsz, c, 9, h * w))
    i = 0
    for dy in (0, d, 2 * d):
        for dx in (0, d, 2 * d):
            cols[:, :, i] = xp[:, :, dy:dy + h, dx:dx + w].reshape(bsz, c, -1)
            i += 1
    return cols.reshape(bsz, c * 9, h * w)


def reference_conv3x3_backward(cols, w, gout, dilation: int = 1):
    """Gradients (dw, db, dx) of a same-padded 3x3 conv given upstream gout."""
    bsz, _, h, wd = gout.shape
    c = w.shape[1]
    d = dilation
    gm = gout.reshape(bsz, w.shape[0], h * wd)
    dw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    db = gout.sum(axis=(0, 2, 3))
    dcols = np.matmul(w.reshape(w.shape[0], -1).T, gm).reshape(bsz, c, 9, h * wd)
    dxp = np.zeros((bsz, c, h + 2 * d, wd + 2 * d))
    i = 0
    for dy in (0, d, 2 * d):
        for dx in (0, d, 2 * d):
            dxp[:, :, dy:dy + h, dx:dx + wd] += dcols[:, :, i].reshape(bsz, c, h, wd)
            i += 1
    return dw, db, dxp[:, :, d:-d, d:-d]


def reference_gradients(net, batch, loss: str = "l2", ohkm_k: int = 8):
    """toynet.gradients the long way: every head runs, the backward pass
    always reaches conv1's input, and frozen blocks are zeroed at the end."""
    cfg = net.config
    x = np.stack([np.asarray(s.input, dtype=np.float64) for s in batch])
    outputs, cache = forward(net, x)
    bsz = len(batch)
    hw = cfg.height * cfg.width

    grads = {name: np.zeros_like(p) for name, p in net.params.items()}
    dfeat = np.zeros_like(cache["feat"])
    total_loss = 0.0
    for i, sample in enumerate(batch):
        d = sample.domain
        pred = outputs[d][i]
        target = np.asarray(sample.target, dtype=np.float64)
        per_joint = np.mean((pred - target) ** 2, axis=(1, 2))
        sel, wgt = _select_joints(per_joint, sample.mask, loss, ohkm_k)
        if sel.size == 0:
            continue
        total_loss += per_joint[sel].sum() * wgt
        dout = np.zeros_like(pred)
        dout[sel] = (2.0 * wgt / (hw * bsz)) * (pred[sel] - target[sel])
        w_head = net.params[f"head.{d}.w"]
        dout_flat = dout.reshape(dout.shape[0], -1)
        feat_flat = cache["feat"][i].reshape(cfg.hidden, -1)
        grads[f"head.{d}.w"] += dout_flat @ feat_flat.T
        grads[f"head.{d}.b"] += dout.sum(axis=(1, 2))
        dfeat[i] = (w_head.T @ dout_flat).reshape(cfg.hidden, cfg.height, cfg.width)

    p = net.params
    dw2, db2, da1 = reference_conv3x3_backward(cache["cols_a1"], p["backbone.conv2.w"],
                                               dfeat, cfg.dilation)
    dz1 = da1 * (1.0 - cache["a1"] ** 2)
    dw1, db1, _ = reference_conv3x3_backward(cache["cols_x"], p["backbone.conv1.w"], dz1)
    grads["backbone.conv1.w"] = dw1
    grads["backbone.conv1.b"] = db1
    grads["backbone.conv2.w"] = dw2
    grads["backbone.conv2.b"] = db2

    for block in net.frozen:
        grads[f"{block}.w"] = np.zeros_like(grads[f"{block}.w"])
        grads[f"{block}.b"] = np.zeros_like(grads[f"{block}.b"])
    return grads, float(total_loss / bsz)


def reference_heldout_error(net, samples, reference: str = "annotation") -> float:
    """training.heldout_error with one forward call per sample."""
    errs = []
    merged_only = tuple(net.config.domains) == ("merged",)
    for s in samples:
        if merged_only:
            s = project_to_merged(s)
        if reference == "truth":
            target = mapping("merged", s.domain).take(s.latent)
        else:
            target = s.keypoints
        outputs, _ = forward(net, np.asarray(s.input, dtype=np.float64)[None],
                             domains=(s.domain,))
        decoded, _ = peaks(outputs[s.domain][0])
        if s.mask.any():
            d = np.linalg.norm(decoded[s.mask] - target[s.mask], axis=1)
            errs.append(d.mean())
    return float(np.mean(errs))


def reference_load_pose_file(path) -> PoseSequence:
    """The pose file at path, each record read, built and checked on its own."""
    def pose_instance(joint_set: JointSet, box: tuple[float, float, float, float],
                      keypoints: tuple[float, ...], annotated: tuple[int, ...] = None,
                      box_score: float = 1.0, score: float = None, track_id: int = None,
                      person_id: int = None, head_size: float = None,
                      head_box: tuple[float, float, float, float] = None) -> PersonInstance:
        k = joint_set.count
        if len(keypoints) != 3 * k:
            raise PoseError(f"keypoints length {len(keypoints)} != 3*{k}")
        if head_box is not None:
            check_box(head_box, "head_box")
        kps = np.array(keypoints, dtype=np.float64).reshape(k, 3)
        if annotated is None:
            annotated = kps[:, 2] > 0
        if head_size is None and head_box is not None:
            head_size = 0.6 * math.hypot(head_box[2], head_box[3])
        return PersonInstance(box=box, box_score=box_score, coords=kps[:, :2],
                              scores=kps[:, 2], annotated=annotated, joint_set=joint_set.name,
                              score=score, track_id=track_id, person_id=person_id,
                              head_size=head_size)

    def parse(doc):
        frames = document(**checked(document, doc, "pose document", required=("joint_set",)))
        js = get_joint_set(doc["joint_set"])
        return PoseSequence(js.name, read_frames(frames, instance_frame, pose_instance,
                                                 joint_set=js))
    return read_document(path, "pose document", parse)
