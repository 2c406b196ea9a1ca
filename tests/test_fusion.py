import numpy as np
import pytest

from posepipe import PoseError, builtin_joint_set
from posepipe.fusion import (
    BranchOutputs,
    fuse_head_swap,
    fuse_select,
    fuse_vote,
    interpolate_head,
    parse_fusion_spec,
    rows_read,
)
from posepipe.heatmaps import DecodedPose, Heatmap, decode, render_target, save_heatmap
from posepipe.pipeline import fuse
from posepipe.skeletons import (
    JointSet,
    canonical_name,
    get_joint_set,
    mapping,
    register_joint_set,
)

from oracles import reference_flip_merge, reference_fuse_head_swap, reference_fuse_vote

MERGED = builtin_joint_set("merged")
GRID = (16, 12)


def figure_points():
    """A fixed merged-joint layout in grid coordinates (cells)."""
    rng = np.random.default_rng(42)
    pts = np.zeros((MERGED.count, 2))
    pts[:, 0] = rng.uniform(2.0, GRID[1] - 3.0, MERGED.count)
    pts[:, 1] = rng.uniform(2.0, GRID[0] - 3.0, MERGED.count)
    return pts


def branch_heatmap(joint_set, points=None, sigma=1.2):
    pts = figure_points() if points is None else points
    m = mapping("merged", joint_set)
    k = builtin_joint_set(joint_set).count
    kp = np.zeros((k, 2))
    for mi, di in m.index_map:
        kp[di] = pts[mi]
    hm, _ = render_target(kp, sigma, GRID, joint_set=joint_set,
                          crop=(0.0, 0.0, 24.0, 32.0), strides=(2.0, 2.0))
    return hm


def all_branches(points=None):
    return BranchOutputs({name: branch_heatmap(name, points)
                          for name in ("coco", "mpii", "posetrack")})


def decoded_pose(joint_set, coords, scores=None, annotated=None):
    k = builtin_joint_set(joint_set).count
    return DecodedPose(
        joint_set,
        np.asarray(coords, float),
        np.ones(k) if scores is None else np.asarray(scores, float),
        np.ones(k, bool) if annotated is None else np.asarray(annotated, bool),
    )


def test_interpolate_head_worked_example():
    js = builtin_joint_set("coco")
    coords = np.zeros((js.count, 2))
    coords[js.index("nose")] = (0.0, 0.0)
    coords[js.index("left_shoulder")] = (-2.0, 4.0)
    coords[js.index("right_shoulder")] = (2.0, 4.0)
    scores = np.zeros(js.count)
    scores[js.index("nose")] = 0.9
    scores[js.index("left_shoulder")] = 0.6
    scores[js.index("right_shoulder")] = 0.3
    pose = decoded_pose("coco", coords, scores)
    (top_xy, top_s, top_ok), (bot_xy, bot_s, bot_ok) = interpolate_head(pose)
    assert top_ok and bot_ok
    assert np.allclose(bot_xy, (0.0, 2.0))
    assert np.allclose(top_xy, (0.0, -4.0))
    assert top_s == pytest.approx(0.6)   # mean of the three contributors
    assert bot_s == pytest.approx(0.6)


def test_interpolate_head_degenerate_and_missing():
    js = builtin_joint_set("coco")
    coords = np.zeros((js.count, 2))
    coords[js.index("nose")] = (3.0, 3.0)
    coords[js.index("left_shoulder")] = (1.0, 3.0)
    coords[js.index("right_shoulder")] = (5.0, 3.0)
    pose = decoded_pose("coco", coords)
    (top_xy, _, _), (bot_xy, _, _) = interpolate_head(pose)
    assert np.allclose(top_xy, (3.0, 3.0))   # nose on the shoulder midpoint
    assert np.allclose(bot_xy, (3.0, 3.0))

    ann = np.ones(js.count, bool)
    ann[js.index("left_shoulder")] = False
    pose = decoded_pose("coco", coords, annotated=ann)
    (_, _, top_ok), (_, _, bot_ok) = interpolate_head(pose)
    assert not top_ok and not bot_ok


def test_fuse_select_identity_projection():
    b = all_branches()
    got = fuse_select(b, "posetrack", "posetrack", smooth_sigma=1.0)
    want = decode(b["posetrack"], smooth_sigma=1.0)
    assert np.array_equal(got.coords, want.coords)
    assert np.array_equal(got.scores, want.scores)
    assert np.array_equal(got.annotated, want.annotated)


def test_fuse_select_coco_fills_head_by_interpolation():
    b = all_branches()
    got = fuse_select(b, "coco", "posetrack", smooth_sigma=0.0)
    decoded = decode(b["coco"], smooth_sigma=0.0)
    (top_xy, top_s, _), (bot_xy, bot_s, _) = interpolate_head(decoded)
    pt = builtin_joint_set("posetrack")
    assert got.annotated[pt.index("head_top")]
    assert np.allclose(got.coords[pt.index("head_top")], top_xy)
    assert np.allclose(got.coords[pt.index("head_bottom")], bot_xy)
    assert got.scores[pt.index("head_top")] == pytest.approx(top_s)
    # body joints are the plain projection
    for name in ("left_wrist", "right_ankle", "nose"):
        ci = builtin_joint_set("coco").index(name)
        assert np.allclose(got.coords[pt.index(name)], decoded.coords[ci])


def test_fuse_select_all_zero_branch():
    zero = Heatmap(np.zeros((17, *GRID), dtype=np.float32), "coco",
                   crop=(0.0, 0.0, 24.0, 32.0), strides=(2.0, 2.0))
    b = BranchOutputs({"coco": zero})
    got = fuse_select(b, "coco", "posetrack")
    assert not got.annotated.any()


def test_fuse_select_missing_branch():
    b = BranchOutputs({"coco": branch_heatmap("coco")})
    with pytest.raises(PoseError):
        fuse_select(b, "mpii", "posetrack")


def test_fuse_head_swap_only_touches_head_joints():
    b = all_branches()
    swap = fuse_head_swap(b, "coco", "mpii", "posetrack", smooth_sigma=1.0)
    select = fuse_select(b, "coco", "posetrack", smooth_sigma=1.0)
    pt = builtin_joint_set("posetrack")
    head = {pt.index("head_top"), pt.index("head_bottom")}
    for i in range(pt.count):
        if i in head:
            continue
        assert np.array_equal(swap.coords[i], select.coords[i])
        assert swap.scores[i] == select.scores[i]


def test_fuse_head_swap_takes_head_from_head_branch():
    b = all_branches()
    swap = fuse_head_swap(b, "coco", "mpii", "posetrack", smooth_sigma=1.0)
    mp = decode(b["mpii"], smooth_sigma=1.0)
    mp_js = builtin_joint_set("mpii")
    pt = builtin_joint_set("posetrack")
    assert np.array_equal(swap.coords[pt.index("head_top")],
                          mp.coords[mp_js.index("head_top")])
    assert np.array_equal(swap.coords[pt.index("head_bottom")],
                          mp.coords[mp_js.index("upper_neck")])


def test_fuse_head_swap_equal_head_channels_agree():
    # mpii and posetrack branches rendered from the same layout give the
    # same head joints, so the two swaps agree
    b = all_branches()
    a = fuse_head_swap(b, "coco", "mpii", "posetrack")
    c = fuse_head_swap(b, "coco", "posetrack", "posetrack")
    pt = builtin_joint_set("posetrack")
    assert np.allclose(a.coords[pt.index("head_top")],
                       c.coords[pt.index("head_top")])
    assert np.allclose(a.coords[pt.index("head_bottom")],
                       c.coords[pt.index("head_bottom")])


def test_fuse_head_swap_requires_head_joints():
    b = all_branches()
    with pytest.raises(PoseError, match="^head branch 'coco' provides no head joints$"):
        fuse_head_swap(b, "mpii", "coco", "posetrack")   # coco has no head_top
    # the head branch is looked up first, then checked before the body branch
    with pytest.raises(PoseError, match="^branch 'nope' not present$"):
        fuse_head_swap(b, "nope", "nope", "posetrack")
    with pytest.raises(PoseError, match="provides no head joints"):
        fuse_head_swap(b, "nope", "coco", "posetrack")


def test_fuse_head_swap_names_the_head_joints_once_per_joint_set(monkeypatch):
    import posepipe.fusion as fusion
    b = all_branches()
    fuse_head_swap(b, "coco", "mpii", "posetrack")
    calls = []
    monkeypatch.setattr(fusion, "canonical_name",
                        lambda n: calls.append(n) or canonical_name(n))
    for _ in range(3):
        fuse_head_swap(b, "coco", "mpii", "posetrack")
    assert calls == []


def test_fuse_vote_identical_branches_equals_single_decode():
    # three branches rendered from one layout: vote == plain decode, exactly,
    # on every joint the branch vocabulary contains
    b = all_branches()
    vote = fuse_vote(b, "posetrack", smooth_sigma=1.0)
    single = decode(b["posetrack"], smooth_sigma=1.0)
    pt = builtin_joint_set("posetrack")
    for i in range(pt.count):
        assert vote.annotated[i] == single.annotated[i]
        assert np.array_equal(vote.coords[i], single.coords[i])
        assert vote.scores[i] == single.scores[i]


def test_fuse_vote_single_branch_joint():
    # joints only one branch has (e.g. thorax in mpii) decode from that branch
    b = all_branches()
    vote = fuse_vote(b, "merged", smooth_sigma=1.0)
    mp = decode(b["mpii"], smooth_sigma=1.0)
    mp_js = builtin_joint_set("mpii")
    for name in ("thorax", "pelvis"):
        i = MERGED.index(name)
        assert np.array_equal(vote.coords[i], mp.coords[mp_js.index(name)])


def test_fuse_vote_joint_in_no_branch():
    b = BranchOutputs({"mpii": branch_heatmap("mpii")})
    vote = fuse_vote(b, "merged")
    assert not vote.annotated[MERGED.index("left_eye")]


def test_fuse_vote_two_branch_mean_small_grid():
    # 5x5 hand case: two single-joint branches (same anatomical joint) with
    # spikes at different cells; the vote must decode the elementwise mean
    from posepipe.skeletons import JointSet, get_joint_set, register_joint_set
    for name in ("soloA", "soloB"):
        try:
            get_joint_set(name)
        except PoseError:
            register_joint_set(JointSet(name, ("thorax",)))
    va = np.zeros((1, 5, 5), dtype=np.float32)
    vb = np.zeros((1, 5, 5), dtype=np.float32)
    va[0, 1, 1] = 1.0
    vb[0, 3, 3] = 0.6
    vb[0, 1, 2] = 0.4   # right neighbor of the winning cell after averaging
    b = BranchOutputs({"soloA": Heatmap(va, "soloA"),
                       "soloB": Heatmap(vb, "soloB")})
    got = fuse_vote(b, "soloA", smooth_sigma=0.0)
    # brute-force expectation over the 5x5 grid
    mean = (va.astype(np.float64) + vb.astype(np.float64)) / 2.0
    flat = int(np.argmax(mean[0]))
    py, px = divmod(flat, 5)
    assert (py, px) == (1, 1)
    # right neighbor 0.2 beats left 0.0, lower neighbor 0.0 ties upper 0.0
    assert got.coords[0][0] == pytest.approx(px + 0.25 + 0.5)
    assert got.coords[0][1] == pytest.approx(py + 0.5)
    assert got.scores[0] == pytest.approx(0.5)
    assert got.annotated[0]


def test_branch_outputs_validation():
    with pytest.raises(PoseError):
        BranchOutputs({})
    with pytest.raises(PoseError):
        BranchOutputs({"coco": branch_heatmap("mpii")})
    a = branch_heatmap("coco")
    bad = Heatmap(branch_heatmap("mpii").values, "mpii",
                  crop=(1.0, 0.0, 24.0, 32.0), strides=(2.0, 2.0))
    with pytest.raises(PoseError):
        BranchOutputs({"coco": a, "mpii": bad})


def test_strategies_are_deterministic():
    b = all_branches()
    a1 = fuse_vote(b, "posetrack")
    a2 = fuse_vote(all_branches(), "posetrack")
    assert np.array_equal(a1.coords, a2.coords)
    assert np.array_equal(a1.scores, a2.scores)


def random_branches(rng, names, grid=(7, 6)):
    """Random branch stack whose channels are random, all-zero, plateaued
    (values on a coarse step, so peaks and neighbors tie), constant, or
    spread over 2^-40..2^40 (so a sum's rounding shows its order)."""
    branches = {}
    for name in names:
        k = get_joint_set(name).count
        v = rng.random((k,) + grid).astype(np.float32)
        kind = rng.integers(0, 5, size=k)
        v[kind == 1] = 0.0
        v[kind == 2] = np.round(v[kind == 2] * 2.0) / 2.0
        v[kind == 3] = 0.5
        v[kind == 4] *= 2.0 ** rng.integers(-40, 41, size=v[kind == 4].shape)
        branches[name] = Heatmap(v, name, crop=(3.0, -2.0, 12.0, 14.0),
                                 strides=(2.0, 2.0))
    return BranchOutputs(branches)


def assert_same_bits(got, want):
    assert got.joint_set == want.joint_set
    for field in ("coords", "scores", "annotated"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes(), field


SETS = ("coco", "merged", "mpii", "posetrack")


@pytest.mark.parametrize("target", ["posetrack", "mpii", "coco", "merged"])
@pytest.mark.parametrize("sigma, quarter", [(0.0, True), (0.0, False),
                                            (1.0, True), (1.0, False)])
def test_fusions_match_branch_by_branch_references(target, sigma, quarter):
    rng = np.random.default_rng([7, SETS.index(target), int(sigma), int(quarter)])
    for _ in range(6):
        b = random_branches(rng, SETS)
        for body, head in (("coco", "mpii"), ("posetrack", "mpii")):
            assert_same_bits(
                fuse_head_swap(b, body, head, target, sigma, quarter),
                reference_fuse_head_swap(b, body, head, target, sigma, quarter))
        names = [n for n in SETS if rng.random() < 0.6] or ["coco"]
        sub = BranchOutputs({n: b[n] for n in names})
        assert_same_bits(fuse_vote(sub, target, sigma, quarter),
                         reference_fuse_vote(sub, target, sigma, quarter))


def test_fuse_vote_sums_branches_in_sorted_order():
    # one left_wrist cell per branch. In sorted order (coco, merged, mpii,
    # posetrack) each 3*2^-55 term is below half an ulp of 1 + 2^-24 and is
    # lost, so the mean rounds to float32 0.25 on the tie. In reverse order
    # the two terms add up first and tip it to the next float32. The dict
    # lists the branches in that reverse order.
    cell = {"posetrack": 3 * 2.0 ** -55, "mpii": 3 * 2.0 ** -55,
            "merged": 2.0 ** -24, "coco": 1.0}
    branches = {}
    for name, value in cell.items():
        js = builtin_joint_set(name)
        v = np.zeros((js.count, 5, 5), dtype=np.float32)
        v[js.index("left_wrist"), 2, 2] = value
        branches[name] = Heatmap(v, name)
    b = BranchOutputs(branches)
    got = fuse_vote(b, "posetrack", smooth_sigma=0.0)
    assert got.scores[builtin_joint_set("posetrack").index("left_wrist")] == 0.25
    assert_same_bits(got, reference_fuse_vote(b, "posetrack", smooth_sigma=0.0))


# a registered set beside the builtins: a head joint, wrists and joints no
# builtin has
THUMBS = JointSet("thumbs", ("nose", "head_top", "left_wrist", "right_wrist",
                             "left_thumb", "right_thumb"), flip_pairs=((2, 3), (4, 5)))
FUSE_SPECS = ("select:coco", "select:thumbs", "head-swap:coco,mpii", "head-swap:posetrack,mpii",
              "head-swap:thumbs,mpii", "head-swap:coco,thumbs", "head-swap:mpii,mpii", "vote")


@pytest.mark.parametrize("target", ["posetrack", "merged", "mpii", "coco", "thumbs"])
@pytest.mark.parametrize("sigma, quarter", [(0.0, True), (1.0, True), (1.0, False)])
def test_fuse_merging_only_read_rows_matches_whole_branch_merges(tmp_path, target, sigma,
                                                                  quarter):
    # pipeline.fuse flip-merges only the rows its strategy reads; the
    # references fuse branches whose every row was merged
    register_joint_set(THUMBS)
    rng = np.random.default_rng([13, len(target), int(sigma), int(quarter)])
    names = ("coco", "mpii", "posetrack", "thumbs")
    for trial in range(4):
        b, bf = random_branches(rng, names), random_branches(rng, names)
        flipped_names = [n for n in names if rng.random() < 0.75]
        paths, flipped = {}, {}
        for name in names:
            paths[name] = str(tmp_path / f"{trial}_{name}.pkhm")
            save_heatmap(b[name], paths[name])
            if name in flipped_names:
                flipped[name] = str(tmp_path / f"{trial}_{name}_flip.pkhm")
                save_heatmap(bf[name], flipped[name])
        whole = BranchOutputs({n: reference_flip_merge(b[n], bf[n]) if n in flipped else b[n]
                               for n in names})
        for spec in FUSE_SPECS:
            kind, spec_names = parse_fusion_spec(spec)
            got = fuse(paths, flipped, spec, target, sigma, quarter)
            if kind == "select":
                want = fuse_select(whole, *spec_names, target, sigma, quarter)
            elif kind == "head-swap":
                want = reference_fuse_head_swap(whole, *spec_names, target, sigma, quarter)
            else:
                want = reference_fuse_vote(whole, target, sigma, quarter)
            assert_same_bits(got, want)


@pytest.mark.parametrize("target", SETS)
@pytest.mark.parametrize("head", ["mpii", "posetrack", "merged"])
def test_head_swap_reads_only_the_head_rows_rows_read_names(target, head):
    # the rows head-swap copies from its head branch are stated once, by
    # rows_read: spoiling every other row of that branch changes nothing
    rng = np.random.default_rng([11, SETS.index(target), SETS.index(head)])
    b = random_branches(rng, SETS)
    target_set = builtin_joint_set(target)
    want = fuse_head_swap(b, "coco", head, target_set)
    rows = rows_read("head-swap", ("coco", head), b[head].joint_set, target_set)
    assert [b[head].joint_set.joints[i] for i in rows] == [
        n for n in b[head].joint_set.joints if n in ("head_top", "upper_neck", "head_bottom")
        and target_set.has(n)]
    b[head].values[np.setdiff1d(np.arange(len(b[head].values)), rows)] = np.nan
    assert_same_bits(fuse_head_swap(b, "coco", head, target_set), want)
