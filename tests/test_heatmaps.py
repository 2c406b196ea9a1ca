import math

import numpy as np
import pytest

from posepipe import PoseError, builtin_joint_set
from posepipe.heatmaps import (
    Heatmap,
    decode,
    flip_merge,
    load_heatmap,
    peaks,
    render_target,
    save_heatmap,
    smooth,
    unmirror,
)

from oracles import reference_grid_peaks


def _single_joint_set():
    # a 1-joint custom set keeps single-channel tests readable
    from posepipe.skeletons import JointSet, get_joint_set, register_joint_set
    try:
        return get_joint_set("single")
    except PoseError:
        js = JointSet("single", ("joint",))
        register_joint_set(js)
        return js


def _render_one(x, y, sigma, size, **kw):
    _single_joint_set()
    return render_target([[x, y]], sigma, size, joint_set="single", **kw)


def test_render_peak_is_one_on_cell_center():
    hm, mask = _render_one(10.0, 12.0, 9.0, (32, 24))
    assert mask[0]
    assert hm.values[0, 12, 10] == 1.0
    assert hm.values[0].max() == 1.0


def test_render_sigma9_falloff_matches_closed_form():
    hm, _ = _render_one(5.0, 16.0, 9.0, (33, 25))
    # cell 9 to the right of the peak: exponent -(9^2) / (2 * 9^2) = -1/2
    expected = math.exp(-0.5)
    assert hm.values[0, 16, 14] == pytest.approx(expected, rel=1e-6)
    assert expected == pytest.approx(0.6065, abs=5e-5)


def test_render_unannotated_and_out_of_grid():
    _single_joint_set()
    hm, mask = render_target([[5.0, 5.0]], 2.0, (16, 12), joint_set="single",
                             annotated=[False])
    assert not mask[0] and not hm.values.any()
    hm, mask = _render_one(-3.0, 5.0, 2.0, (16, 12))
    assert not mask[0] and not hm.values.any()
    hm, mask = _render_one(11.7, 5.0, 2.0, (16, 12))   # past W - 0.5
    assert not mask[0] and not hm.values.any()


def test_render_rejects_bad_sigma():
    with pytest.raises(PoseError):
        _render_one(1, 1, 0.0, (8, 8))


def test_smooth_zero_sigma_is_identity():
    hm, _ = _render_one(5, 5, 2.0, (16, 12))
    out = smooth(hm, 0.0)
    assert np.array_equal(out.values, hm.values)


def test_smooth_constant_channel_unchanged():
    _single_joint_set()
    hm = Heatmap(np.full((1, 10, 8), 0.37, dtype=np.float32), "single")
    out = smooth(hm, 1.0)
    assert np.allclose(out.values, 0.37, atol=1e-6)


def test_smooth_spike_center_equals_kernel_center_weight():
    _single_joint_set()
    v = np.zeros((1, 15, 15), dtype=np.float32)
    v[0, 7, 7] = 1.0
    out = smooth(Heatmap(v, "single"), 1.0)
    # 1-D kernel weights, radius ceil(3 sigma) = 3, computed right here
    t = np.arange(-3, 4, dtype=float)
    k = np.exp(-t * t / 2.0)
    k /= k.sum()
    assert out.values[0, 7, 7] == pytest.approx(k[3] ** 2, rel=1e-6)


def test_smooth_preserves_channel_mass():
    rng = np.random.default_rng(3)
    _single_joint_set()
    for sigma in (0.5, 1.0, 2.5):
        v = rng.random((1, 9, 13)).astype(np.float32)
        out = smooth(Heatmap(v, "single"), sigma)
        before = float(v.sum(dtype=np.float64))
        after = float(out.values.sum(dtype=np.float64))
        assert after == pytest.approx(before, rel=1e-6)


def _coco_random_heatmap(rng):
    js = builtin_joint_set("coco")
    v = rng.random((js.count, 12, 10)).astype(np.float32)
    return Heatmap(v, "coco")


def test_flip_merge_definition():
    rng = np.random.default_rng(5)
    h = _coco_random_heatmap(rng)
    hf = _coco_random_heatmap(rng)
    merged = flip_merge(h, hf)
    manual = (h.values.astype(np.float64) + unmirror(hf).values.astype(np.float64)) / 2
    assert np.array_equal(merged.values, manual.astype(np.float32))


def test_flip_merge_fixed_point_on_symmetric_heatmap():
    # construct h_flipped as the exact right-inverse of unmirror applied to h,
    # so that flip_merge(h, h_flipped) must reproduce h bit for bit
    rng = np.random.default_rng(6)
    h = _coco_random_heatmap(rng)
    js = builtin_joint_set("coco")
    v = h.values.copy()
    swapped = v.copy()
    for a, b in js.flip_pairs:
        swapped[a] = v[b]
        swapped[b] = v[a]
    shifted = swapped.copy()
    shifted[:, :, :-1] = swapped[:, :, 1:]
    hf = Heatmap(shifted[:, :, ::-1].copy(), "coco", h.crop, h.strides)
    merged = flip_merge(h, hf)
    assert np.array_equal(merged.values[:, :, 1:], h.values[:, :, 1:])


def test_flip_merge_swaps_paired_channels():
    # a single spike in the right_wrist channel of the flipped input must
    # surface in the left_wrist channel of the merged output
    js = builtin_joint_set("coco")
    lw, rw = js.joints.index("left_wrist"), js.joints.index("right_wrist")
    k, height, width = js.count, 8, 10
    hf = np.zeros((k, height, width), dtype=np.float32)
    hf[rw, 4, 2] = 1.0
    merged = flip_merge(Heatmap(np.zeros_like(hf), "coco"),
                        Heatmap(hf, "coco"))
    # track the spike by hand: reverse W (2 -> 7), shift +1 (7 -> 8), swap
    assert merged.values[lw, 4, 8] == 0.5
    assert merged.values[lw].sum() == 0.5
    assert merged.values[rw].sum() == 0.0


def test_flip_merge_shape_mismatch():
    _single_joint_set()
    a = Heatmap(np.zeros((1, 8, 8), dtype=np.float32), "single")
    b = Heatmap(np.zeros((1, 8, 9), dtype=np.float32), "single")
    with pytest.raises(PoseError):
        flip_merge(a, b)


def test_decode_quarter_offset_worked_example():
    _single_joint_set()
    v = np.zeros((1, 20, 20), dtype=np.float32)
    v[0, 10, 12] = 1.0
    v[0, 10, 13] = 0.5
    v[0, 10, 11] = 0.1
    hm = Heatmap(v, "single", crop=(0.0, 0.0, 80.0, 80.0), strides=(4.0, 4.0))
    d = decode(hm, smooth_sigma=0.0, use_quarter_offset=True)
    assert d.annotated[0]
    assert d.coords[0, 0] == pytest.approx((12 + 0.25 + 0.5) * 4.0)  # 51.0
    assert d.coords[0, 0] == 51.0
    assert d.coords[0, 1] == pytest.approx((10 + 0.5) * 4.0)  # y neighbors tie
    assert d.scores[0] == 1.0


def test_decode_tie_means_no_shift():
    _single_joint_set()
    v = np.zeros((1, 9, 9), dtype=np.float32)
    v[0, 4, 4] = 1.0
    v[0, 4, 3] = v[0, 4, 5] = 0.25
    v[0, 3, 4] = v[0, 5, 4] = 0.25
    hm = Heatmap(v, "single")
    d = decode(hm, smooth_sigma=0.0)
    assert d.coords[0, 0] == pytest.approx(4.5)
    assert d.coords[0, 1] == pytest.approx(4.5)


def test_decode_all_zero_channel_unannotated():
    _single_joint_set()
    hm = Heatmap(np.zeros((1, 8, 8), dtype=np.float32), "single")
    d = decode(hm, smooth_sigma=1.0)
    assert not d.annotated[0]


def test_peaks_match_per_channel_loop_on_ties():
    # small integer values make ties between the argmax and its neighbors,
    # and between neighbor pairs, common; 1- and 2-wide grids put every
    # peak on the border
    rng = np.random.default_rng(11)
    for case in range(3000):
        k = int(rng.integers(1, 5))
        h, w = (int(v) for v in rng.integers(1, 7, size=2))
        dtype = np.float32 if case % 2 else np.float64
        channels = rng.integers(0, 4, size=(k, h, w)).astype(dtype)
        for quarter in (True, False):
            gxy, values = peaks(channels, quarter)
            want = reference_grid_peaks(channels, quarter)
            assert gxy.dtype == np.float64
            assert gxy.tobytes() == want.tobytes()
            assert values.dtype == dtype
            assert np.array_equal(values, channels.reshape(k, -1).max(axis=1))


def test_decode_score_is_smoothed_peak():
    _single_joint_set()
    v = np.zeros((1, 15, 15), dtype=np.float32)
    v[0, 7, 7] = 1.0
    hm = Heatmap(v, "single")
    d = decode(hm, smooth_sigma=1.0)
    assert d.scores[0] == pytest.approx(float(smooth(hm, 1.0).values[0, 7, 7]))


def test_decode_invariant_under_positive_scaling():
    rng = np.random.default_rng(11)
    _single_joint_set()
    v = rng.random((1, 10, 14)).astype(np.float32)
    base = decode(Heatmap(v, "single"), smooth_sigma=0.0)
    scaled = decode(Heatmap(v * 4.0, "single"), smooth_sigma=0.0)
    assert np.array_equal(base.coords, scaled.coords)
    assert scaled.scores[0] > base.scores[0] > 0   # score scales monotonically


def test_render_decode_round_trip_within_half_cell():
    # brute-force property: 1000 random interior keypoints, sigma 9
    rng = np.random.default_rng(12)
    _single_joint_set()
    height, width = 48, 40
    worst = 0.0
    for _ in range(1000):
        gx = rng.uniform(2.0, width - 3.0)
        gy = rng.uniform(2.0, height - 3.0)
        hm, _ = _render_one(gx, gy, 9.0, (height, width))
        d = decode(hm, smooth_sigma=1.0, use_quarter_offset=True)
        # image coords back to grid coords (unit strides, cell-center shift)
        ex = d.coords[0, 0] - 0.5
        ey = d.coords[0, 1] - 0.5
        err = math.hypot(ex - gx, ey - gy)
        worst = max(worst, err)
    assert worst <= 0.5


def test_heatmap_binary_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    js = builtin_joint_set("posetrack")
    v = rng.random((js.count, 6, 5)).astype(np.float32)
    hm = Heatmap(v, "posetrack", crop=(3.5, -2.0, 40.0, 48.0), strides=(8.0, 8.0))
    path = tmp_path / "x.pkhm"
    save_heatmap(hm, path)
    again = load_heatmap(path)
    assert np.array_equal(again.values, hm.values)
    assert again.joint_set == hm.joint_set
    assert again.crop == hm.crop
    assert again.strides == hm.strides
    # byte-identical when re-saved
    save_heatmap(again, tmp_path / "y.pkhm")
    assert (tmp_path / "x.pkhm").read_bytes() == (tmp_path / "y.pkhm").read_bytes()


def test_heatmap_truncated_payload(tmp_path):
    _single_joint_set()
    hm = Heatmap(np.zeros((1, 8, 8), dtype=np.float32), "single")
    path = tmp_path / "x.pkhm"
    save_heatmap(hm, path)
    blob = path.read_bytes()
    (tmp_path / "bad.pkhm").write_bytes(blob[:-7])
    with pytest.raises(PoseError):
        load_heatmap(tmp_path / "bad.pkhm")
    (tmp_path / "bad2.pkhm").write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(PoseError):
        load_heatmap(tmp_path / "bad2.pkhm")
