import dataclasses
import math

import numpy as np
import pytest

from posepipe import PoseError, builtin_joint_set
from posepipe.instances import InstanceStack, PersonInstance, check_box
from posepipe.suppression import (
    OksConstants,
    apply_thresholds,
    box_ious,
    box_nms,
    oks,
    oks_nms,
    rescore,
)

from oracles import (
    reference_box_iou,
    reference_box_nms,
    reference_greedy_nms,
    reference_oks,
)

JS = builtin_joint_set("posetrack")
CONSTS = OksConstants.for_joint_set("posetrack")


def make_instance(coords, scores=None, annotated=None, box=(0, 0, 10, 20),
                  box_score=0.9, score=None):
    coords = np.asarray(coords, dtype=float)
    k = coords.shape[0]
    return PersonInstance(
        box=np.asarray(box, dtype=float),
        box_score=box_score,
        coords=coords,
        scores=np.ones(k) * 0.8 if scores is None else np.asarray(scores, float),
        annotated=np.ones(k, dtype=bool) if annotated is None else np.asarray(annotated, bool),
        joint_set="posetrack",
        score=score,
    )


def random_instance(rng, score=None):
    coords = rng.uniform(0, 30, (JS.count, 2))
    return make_instance(coords, scores=rng.uniform(0.05, 1.0, JS.count),
                         annotated=rng.random(JS.count) > 0.2,
                         box=(0, 0, rng.uniform(5, 30), rng.uniform(5, 30)),
                         box_score=rng.uniform(0.1, 1.0),
                         score=score if score is None else float(score))


def stack(instances):
    """The InstanceStack of instances, on their joint set (posetrack when
    there are none)."""
    return InstanceStack.of(instances[0].joint_set if instances else JS, instances)


def oks1(a, b):
    """The OKS of one candidate to one reference, as a 1 x 1 stack."""
    return oks(stack([a]), stack([b]), CONSTS)[0, 0]


def test_oks_self_similarity():
    p = make_instance(np.arange(JS.count * 2).reshape(-1, 2))
    assert oks1(p, p) == 1.0


def test_oks_uniform_displacement_closed_form():
    # displace every joint so d^2 = 2 * area * k_i^2, giving exp(-1) per joint
    a = make_instance(np.zeros((JS.count, 2)), box=(0, 0, 8, 12))
    area = a.box[2] * a.box[3]
    d = np.sqrt(2.0 * area) * CONSTS.falloff
    coords = np.zeros((JS.count, 2))
    coords[:, 0] = d
    b = make_instance(coords, box=(0, 0, 8, 12))
    val = oks1(a, b)
    assert val == pytest.approx(math.exp(-1.0), rel=1e-9)
    assert val == pytest.approx(0.3679, abs=5e-5)


def test_oks_disjoint_annotations():
    ann_a = np.zeros(JS.count, bool)
    ann_a[:7] = True
    ann_b = ~ann_a
    a = make_instance(np.zeros((JS.count, 2)), annotated=ann_a)
    b = make_instance(np.zeros((JS.count, 2)), annotated=ann_b)
    assert oks1(a, b) == 0.0


def test_oks_uses_reference_area():
    a = make_instance(np.zeros((JS.count, 2)), box=(0, 0, 10, 10))
    b = make_instance(np.full((JS.count, 2), 2.0), box=(0, 0, 40, 40))
    assert oks1(a, b) != oks1(b, a)


def test_replaced_box_gives_the_reference_area_of_a_fresh_instance():
    a = make_instance(np.zeros((JS.count, 2)), box=(0, 0, 10, 20))
    moved = stack([a]).replace(box=np.array([[0.0, 0.0, 40.0, 40.0]]))
    fresh = make_instance(np.zeros((JS.count, 2)), box=(0, 0, 40, 40))
    neighbour = make_instance(np.full((JS.count, 2), 2.0))
    assert moved.box[0, 2] * moved.box[0, 3] == 1600.0
    assert oks(moved, stack([neighbour]), CONSTS)[0, 0] == oks1(fresh, neighbour) > 0.5


def test_box_whose_area_underflows_is_rejected():
    # w * h underflows to 0.0, which is finite, so check_box alone passes it
    check_box([0, 0, 1e-200, 1e-200])
    with pytest.raises(PoseError, match="area"):
        make_instance(np.zeros((JS.count, 2)), box=(0, 0, 1e-200, 1e-200))


_K = JS.count
_NAN_JOINT = np.where(np.arange(_K)[:, None] == 3, np.nan, 1.0) * np.ones((_K, 2))


@pytest.mark.parametrize("fields, message", [
    (dict(coords=np.zeros((_K, 3))),
     f"coords shape ({_K}, 3) does not match joint set 'posetrack' (expected ({_K}, 2))"),
    (dict(scores=np.ones(_K - 1)), "scores/annotated length does not match joint set"),
    (dict(annotated=np.ones(_K + 1, bool)), "scores/annotated length does not match joint set"),
    (dict(box=(0, 0, -1, 5)), "box must be finite with positive width and height, "
                              "got [0.0, 0.0, -1.0, 5.0]"),
    (dict(box=(0, 0, 1e200, 1e200)), "box must be finite with positive width and height, "
                                     "got [0.0, 0.0, 1e+200, 1e+200]"),
    (dict(scores=np.full(_K, 1.5)), "keypoint scores must lie in [0, 1]"),
    (dict(box_score=2), "score must lie in [0, 1], got 2"),
    (dict(box_score=float("nan")), "score must lie in [0, 1], got nan"),
    (dict(coords=_NAN_JOINT), "annotated joints must have finite coordinates"),
    (dict(box=(0, 0, 1e-200, 1e-200)), "instance area must be positive"),
    (dict(score=-0.5), "score must lie in [0, 1], got -0.5"),
    # the first rule broken is the one raised
    (dict(box=(0, 0, -1, 5), score=2.0, coords=_NAN_JOINT), "box must be finite"),
    (dict(scores=np.full(_K, -1.0), box_score=3), "keypoint scores must lie in [0, 1]"),
])
def test_each_instance_rule_raises_its_message(fields, message):
    with pytest.raises(PoseError) as err:
        make_instance(**{"coords": np.zeros((_K, 2)), **fields})
    assert err.value.message.startswith(message)


@pytest.mark.parametrize("changes, message", [
    (dict(score=1.5), "score must lie in [0, 1], got 1.5"),
    (dict(score=float("nan")), "score must lie in [0, 1], got nan"),
    (dict(box=np.array([0.0, 0.0, -1.0, 5.0])), "box must be finite with positive"),
    (dict(box=np.array([0.0, 0.0, 1e-200, 1e-200])), "instance area must be positive"),
    (dict(coords=_NAN_JOINT), "annotated joints must have finite coordinates"),
    (dict(box=np.array([1.0, 1.0, 4.0, 4.0]), coords=np.zeros((_K - 1, 2))), "coords shape"),
    (dict(annotated=np.ones(_K - 1, bool)), "scores/annotated length does not match"),
])
def test_replace_runs_the_rules_of_the_fields_it_changes(changes, message):
    p = stack([make_instance(np.zeros((_K, 2)))])
    columns = {name: np.asarray(value)[None] if name in _ARRAY_COLUMNS else [value]
               for name, value in changes.items()}
    with pytest.raises(PoseError) as err:
        p.replace(**columns)
    assert err.value.message.startswith(message)


_ARRAY_COLUMNS = ("box", "coords", "scores", "annotated")


def test_replace_checks_an_annotated_mask_against_the_coordinates():
    # the NaN joint is allowed while it is not annotated, and not once it is
    hidden = stack([make_instance(_NAN_JOINT, annotated=np.arange(_K) != 3)])
    assert hidden.replace(track_id=[5], score=[0.5]).track_id == [5]
    with pytest.raises(PoseError, match="annotated joints must have finite coordinates"):
        hidden.replace(annotated=np.ones((1, _K), bool))


def test_stack_replace_shares_the_other_columns_and_rejects_an_unknown_one():
    p = stack([make_instance(np.zeros((_K, 2)))])
    q = p.replace(box=np.array([[1.0, 2.0, 3.0, 4.0]]), track_id=[3])
    assert q.coords is p.coords and q.box.tolist() == [[1.0, 2.0, 3.0, 4.0]]
    assert (p.track_id, q.track_id, q.score) == ([None], [3], p.score)
    assert q.instances()[0].box.tolist() == [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(TypeError, match="scroe"):
        p.replace(scroe=[0.5])


def test_a_stack_raises_the_first_error_of_its_first_failing_instance():
    # row 0 breaks a later rule (area) than row 1 (box); checked one by one,
    # row 0's error comes first, and the stack raises it too
    good = make_instance(np.zeros((_K, 2)))
    p = stack([good, good])
    with pytest.raises(PoseError) as err:
        p.replace(box=np.array([[0, 0, 1e-200, 1e-200], [0, 0, -1, 5]]))
    assert err.value.message == "instance area must be positive"
    with pytest.raises(PoseError) as err:
        p.replace(box=np.array([[0, 0, -1, 5], [0, 0, 1e-200, 1e-200]]), score=[2.0, 0.5])
    assert err.value.message.startswith("box must be finite")
    # a stack made from columns is checked the same way
    fields = {name: getattr(p, name) for name in vars(p)}
    with pytest.raises(PoseError, match="instance area must be positive"):
        InstanceStack(**fields | {"box": np.array([[0, 0, 1e-200, 1e-200], [0, 0, -1, 5]])})


def test_oks_set_mismatch():
    a = make_instance(np.zeros((JS.count, 2)))
    coco = builtin_joint_set("coco")
    c = PersonInstance(box=[0, 0, 5, 5], box_score=1.0,
                       coords=np.zeros((coco.count, 2)),
                       scores=np.ones(coco.count),
                       annotated=np.ones(coco.count, bool),
                       joint_set="coco")
    with pytest.raises(PoseError, match="'posetrack', 'coco', 'posetrack'"):
        oks1(a, c)
    with pytest.raises(PoseError, match="'coco', 'posetrack', 'posetrack'"):
        oks1(c, a)


def _pose(js_name, coords, annotated, box):
    k = builtin_joint_set(js_name).count
    return PersonInstance(box=box, box_score=0.5, coords=coords,
                          scores=np.full(k, 0.5), annotated=annotated,
                          joint_set=js_name)


def _oks_stacks(rng, kind, js_name):
    """A reference stack and a candidate stack of one kind of input."""
    k = builtin_joint_set(js_name).count
    r, c = (int(v) for v in rng.integers(1, 10, 2))

    def annotated():
        return rng.random(k) < rng.uniform(0.2, 1.0)

    if kind == "ties":
        # integer coordinates on a 4-cell grid and 1-2 pixel boxes
        def make():
            return _pose(js_name, rng.integers(0, 4, (k, 2)).astype(float),
                         annotated(), (0, 0, int(rng.integers(1, 3)), int(rng.integers(1, 3))))
        return [make() for _ in range(r)], [make() for _ in range(c)]
    if kind == "near-duplicate":
        # every candidate a copy of one base pose, most moved by a hair:
        # similarities at or near 1, as a 1 - OKS cost matrix sees them
        base = rng.uniform(0, 50, (k, 2))

        def make():
            jitter = rng.normal(0, 10.0 ** -rng.integers(1, 8), (k, 2)) * (rng.random() < 0.7)
            return _pose(js_name, base + jitter, annotated(),
                         (0, 0, rng.uniform(20, 40), rng.uniform(20, 40)))
        return [make() for _ in range(r)], [make() for _ in range(c)]

    def make():
        return _pose(js_name, rng.uniform(0, 40, (k, 2)), annotated(),
                     (0, 0, rng.uniform(1, 40), rng.uniform(1, 40)))
    return [make() for _ in range(r)], [make() for _ in range(c)]


def _pair_matrix(refs, cands, consts):
    return np.array([[reference_oks(a, b, consts) for b in cands] for a in refs],
                    dtype=np.float64).reshape(len(refs), len(cands))


@pytest.mark.parametrize("js_name", ["posetrack", "coco"])
@pytest.mark.parametrize("kind", ["ties", "near-duplicate", "random"])
def test_oks_matrix_bit_equal_to_pair_reference(kind, js_name):
    consts = OksConstants.for_joint_set(js_name)
    rng = np.random.default_rng(["ties", "near-duplicate", "random"].index(kind))
    for _ in range(120):
        refs, cands = _oks_stacks(rng, kind, js_name)
        got = oks(stack(refs), stack(cands), consts)
        assert got.dtype == np.float64 and got.shape == (len(refs), len(cands))
        assert got.tobytes() == _pair_matrix(refs, cands, consts).tobytes()


@pytest.mark.parametrize("js_name", ["posetrack", "coco"])
def test_oks_matrix_bit_equal_for_every_shared_count(js_name):
    # one stack holding every shared-joint count from 0 to K, several pairs
    # each, so the packed per-count sums see rows of every length at once
    consts = OksConstants.for_joint_set(js_name)
    k = consts.falloff.shape[0]
    rng = np.random.default_rng(7)
    refs, cands = [], []
    for n in range(k + 1):
        for _ in range(3):
            shared = np.zeros(k, bool)
            shared[rng.permutation(k)[:n]] = True
            extra = rng.random(k) < 0.5
            box = (0, 0, rng.uniform(2, 30), rng.uniform(2, 30))
            refs.append(_pose(js_name, rng.uniform(0, 20, (k, 2)), shared | extra & ~shared, box))
            cands.append(_pose(js_name, rng.uniform(0, 20, (k, 2)), shared | ~extra & ~shared, box))
    counts = [int((a.annotated & b.annotated).sum()) for a, b in zip(refs, cands)]
    assert sorted(set(counts)) == list(range(k + 1))
    got = oks(stack(refs), stack(cands), consts)
    assert got.tobytes() == _pair_matrix(refs, cands, consts).tobytes()
    assert [float(v) for v in np.diag(got)] == [reference_oks(a, b, consts)
                                               for a, b in zip(refs, cands)]


def test_oks_stacking_forms():
    rng = np.random.default_rng(3)
    a, b, c = (random_instance(rng) for _ in range(3))
    assert oks1(a, b) == reference_oks(a, b, CONSTS)
    assert oks(stack([a]), stack([b, c]), CONSTS).shape == (1, 2)
    assert oks(stack([a, b]), stack([c]), CONSTS).shape == (2, 1)
    assert oks(stack([]), stack([b, c]), CONSTS).shape == (0, 2)
    assert oks(stack([a, b]), stack([]), CONSTS).shape == (2, 0)


def test_oks_stack_rejects_a_mismatched_member():
    a = make_instance(np.zeros((JS.count, 2)))
    coco = builtin_joint_set("coco")
    c = PersonInstance(box=[0, 0, 5, 5], box_score=1.0,
                       coords=np.zeros((coco.count, 2)),
                       scores=np.ones(coco.count),
                       annotated=np.ones(coco.count, bool),
                       joint_set="coco")
    with pytest.raises(PoseError, match="instance joint set 'coco' does not match "
                                        "the stack's 'posetrack'"):
        stack([a, a, c])
    with pytest.raises(PoseError, match="instance joint set 'posetrack' does not match "
                                        "the stack's 'coco'"):
        stack([c, a])


def test_oks_nms_identical_instances():
    p = make_instance(np.arange(JS.count * 2).reshape(-1, 2), score=0.9)
    q = dataclasses.replace(p, score=0.7)
    assert oks_nms(stack([p, q]), 0.4, CONSTS) == [0]
    assert oks_nms(stack([q, p]), 0.4, CONSTS) == [1]


def test_oks_nms_threshold_one_keeps_everything():
    rng = np.random.default_rng(0)
    instances = [random_instance(rng, score=rng.random()) for _ in range(5)]
    sims = [[oks1(a, b) for b in instances] for a in instances]
    if all(sims[i][j] < 1.0 for i in range(5) for j in range(5) if i != j):
        assert sorted(oks_nms(stack(instances), 1.0, CONSTS)) == list(range(5))


def test_oks_nms_matches_reference_on_random_inputs():
    rng = np.random.default_rng(1)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        instances = [random_instance(rng, score=float(rng.random())) for _ in range(n)]
        thr = float(rng.uniform(0.05, 1.0))
        sims = np.array([[oks1(instances[i], instances[j])
                          for j in range(n)] for i in range(n)])
        want = reference_greedy_nms(sims, [p.score for p in instances], thr)
        assert oks_nms(stack(instances), thr, CONSTS) == want


def test_box_iou_examples():
    assert box_ious([(0, 0, 2, 2)], [(0, 0, 2, 2)])[0, 0] == 1.0
    assert box_ious([(0, 0, 2, 2)], [(5, 5, 2, 2)])[0, 0] == 0.0
    # overlap 1x2 = 2, union 4 + 4 - 2 = 6
    assert box_ious([(0, 0, 2, 2)], [(1, 0, 2, 2)])[0, 0] == pytest.approx(1 / 3)


def test_box_nms_identical_boxes():
    keep = box_nms([(0, 0, 2, 2), (0, 0, 2, 2)], [0.8, 0.9], 0.6)
    assert keep == [1]


def test_box_nms_disjoint_boxes():
    keep = box_nms([(0, 0, 2, 2), (5, 5, 2, 2)], [0.8, 0.9], 0.6)
    assert sorted(keep) == [0, 1]


def test_box_nms_matches_reference_on_random_inputs():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        boxes = np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 10, n),
                                 rng.uniform(1, 6, n), rng.uniform(1, 6, n)])
        scores = rng.random(n)
        thr = float(rng.uniform(0.05, 1.0))
        sims = np.array([[box_ious(boxes[i], boxes[j])[0, 0] for j in range(n)]
                         for i in range(n)])
        want = reference_greedy_nms(sims, scores, thr)
        assert box_nms(boxes, scores, thr) == want


def test_box_ious_and_box_nms_equal_the_pair_loop_bit_for_bit():
    # integer boxes give touching edges, empty boxes, repeated boxes, tied
    # scores and IoUs that land exactly on the threshold
    rng = np.random.default_rng(23)
    for case in range(300):
        n = int(rng.integers(1, 12))
        if case % 2:
            boxes = rng.integers(0, 6, (n, 4)).astype(np.float64)
            scores = rng.integers(0, 3, n) / 2.0
            thr = float(rng.choice([0.25, 1 / 3, 0.5, 1.0]))
        else:
            boxes = np.column_stack([rng.uniform(-5, 10, (n, 2)), rng.uniform(0, 6, (n, 2))])
            scores = rng.random(n)
            thr = float(rng.uniform(0.05, 1.0))
        want = np.array([[reference_box_iou(a, b) for b in boxes] for a in boxes])
        assert box_ious(boxes, boxes).tobytes() == want.tobytes()
        assert box_nms(boxes, scores, thr) == reference_box_nms(boxes, scores, thr)


def test_rescore_examples():
    p = make_instance(np.zeros((JS.count, 2)), scores=np.full(JS.count, 0.5),
                      box_score=0.8)
    assert rescore(stack([p])).score[0] == pytest.approx(0.4)
    p = make_instance(np.zeros((JS.count, 2)), scores=np.ones(JS.count),
                      box_score=1.0)
    assert rescore(stack([p])).score[0] == 1.0
    scores = np.zeros(JS.count)
    ann = np.zeros(JS.count, bool)
    scores[:3] = [0.2, 0.4, 0.6]
    ann[:3] = True
    p = make_instance(np.zeros((JS.count, 2)), scores=scores, annotated=ann,
                      box_score=0.9)
    assert rescore(stack([p])).score[0] == pytest.approx(0.9 * 0.4)


def test_rescore_zero_annotated():
    p = make_instance(np.zeros((JS.count, 2)), annotated=np.zeros(JS.count, bool))
    assert rescore(stack([p])).score[0] == 0.0


def test_rescore_keeps_ranking_under_uniform_scaling():
    rng = np.random.default_rng(4)
    base = rng.uniform(0.2, 0.9, JS.count)
    factors = [0.3, 0.6, 1.0]
    instances = [make_instance(np.zeros((JS.count, 2)), scores=base * f,
                               box_score=0.8) for f in factors]
    rescored = rescore(stack(instances)).score
    assert rescored == sorted(rescored)


def test_apply_thresholds():
    p = make_instance(np.zeros((JS.count, 2)), score=0.2)
    q = make_instance(np.zeros((JS.count, 2)), score=0.5)
    assert apply_thresholds(stack([p, q]), 0.3, 0.0).score == [0.5]
    out = apply_thresholds(stack([p, q]), 0.0, 0.0)
    assert len(out) == 2 and out.annotated.all()
    out = apply_thresholds(stack([q]), 0.0, 2.0)   # above every keypoint score
    assert len(out) == 1 and not out.annotated.any()


def test_apply_thresholds_marks_weak_joints():
    scores = np.full(JS.count, 0.9)
    scores[3] = 0.1
    p = make_instance(np.zeros((JS.count, 2)), scores=scores)
    out = apply_thresholds(stack([p]), 0.0, 0.3).instances()[0]
    assert not out.annotated[3] and out.annotated.sum() == JS.count - 1


def test_falloff_overrides_name_a_joint_by_name_or_alias():
    # head_bottom (posetrack) and upper_neck (mpii) are one joint
    mpii = OksConstants.for_joint_set("mpii", overrides={"head_bottom": 0.5})
    assert mpii.falloff[builtin_joint_set("mpii").index("upper_neck")] == 0.5
    pt = OksConstants.for_joint_set("posetrack", overrides={"upper_neck": 0.5})
    assert pt.falloff[JS.index("head_bottom")] == 0.5
    with pytest.raises(PoseError, match="nose_typo"):
        OksConstants.for_joint_set("posetrack", overrides={"nose_typo": 0.5})


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_oks_constants_reject_non_positive_falloff(bad):
    falloff = np.full(JS.count, 0.1)
    falloff[2] = bad
    with pytest.raises(PoseError, match="positive"):
        OksConstants("posetrack", falloff)
