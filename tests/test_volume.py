import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxeval.volume
from voxeval import (
    DEFAULT_CODING,
    LabelCoding,
    LabelVolume,
    RegionMaskSet,
    RegionProbSet,
    Spacing,
    ValidationError,
    binarize_regions,
    labels_to_regions,
    region_volume_mm3,
    regions_to_labels,
)
from helpers import (
    constant_probset,
    label_volume_from_masks,
    random_label_volume,
    random_nested_masks,
)
from oracles import box_oracle, label_check_oracle


def test_spacing_defaults_and_volume():
    s = Spacing()
    assert s.as_tuple() == (1.0, 1.0, 1.0)
    assert s.voxel_volume == 1.0
    assert Spacing(1.0, 1.0, 2.0).voxel_volume == 2.0


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_spacing_rejects_nonpositive(bad):
    with pytest.raises(ValidationError):
        Spacing(1.0, bad, 1.0)


def test_coding_defaults_follow_brats():
    assert DEFAULT_CODING.codes == (0, 1, 2, 4)


def test_coding_rejects_duplicates_and_negatives():
    with pytest.raises(ValidationError):
        LabelCoding(background=0, necrosis=0, edema=2, enhancing=4)
    with pytest.raises(ValidationError):
        LabelCoding(background=-1)


def test_label_volume_requires_3d_integers():
    with pytest.raises(ValidationError):
        LabelVolume(np.zeros((4, 4), dtype=np.uint8), Spacing())
    with pytest.raises(ValidationError):
        LabelVolume(np.zeros((4, 4, 4), dtype=np.float32), Spacing())


def test_label_volume_names_offending_code_and_voxel():
    data = np.zeros((3, 3, 3), dtype=np.uint8)
    data[1, 2, 0] = 3
    with pytest.raises(ValidationError, match=r"label value 3 at voxel \(1, 2, 0\)"):
        LabelVolume(data, Spacing())


def test_label_volume_data_is_read_only():
    vol = LabelVolume(np.zeros((2, 2, 2), dtype=np.uint8), Spacing())
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1


def test_labels_to_regions_single_enhancing_voxel():
    data = np.zeros((3, 3, 3), dtype=np.uint8)
    data[1, 1, 1] = 4
    regions = labels_to_regions(LabelVolume(data, Spacing()))
    assert regions.wt[1, 1, 1] and regions.tc[1, 1, 1] and regions.et[1, 1, 1]
    assert regions.wt.sum() == regions.tc.sum() == regions.et.sum() == 1


def test_labels_to_regions_keeps_the_masks_without_a_copy(monkeypatch):
    built = []
    real = voxeval.volume._region_mask

    def spy(data, coding, name):
        built.append(real(data, coding, name))
        return built[-1]

    monkeypatch.setattr(voxeval.volume, "_region_mask", spy)
    rng = np.random.default_rng(8)
    regions = labels_to_regions(random_label_volume(rng, (6, 5, 4)))
    for got, mask in zip((regions.wt, regions.tc, regions.et), built):
        assert np.shares_memory(got, mask)


def test_labels_to_regions_edema_voxel_in_wt_only():
    data = np.zeros((3, 3, 3), dtype=np.uint8)
    data[0, 0, 0] = 2
    regions = labels_to_regions(LabelVolume(data, Spacing()))
    assert regions.wt[0, 0, 0]
    assert not regions.tc.any()
    assert not regions.et.any()


def test_labels_to_regions_background_only():
    regions = labels_to_regions(LabelVolume(np.zeros((3, 3, 3), dtype=np.uint8), Spacing()))
    assert not regions.wt.any() and not regions.tc.any() and not regions.et.any()


def test_labels_to_regions_nesting_on_random_volumes():
    rng = np.random.default_rng(7)
    for _ in range(50):
        vol = random_label_volume(rng, (6, 5, 4))
        regions = labels_to_regions(vol)
        assert not (regions.et & ~regions.tc).any()
        assert not (regions.tc & ~regions.wt).any()


def test_region_mask_set_rejects_broken_nesting():
    et = np.zeros((2, 2, 2), dtype=bool)
    et[0, 0, 0] = True
    empty = np.zeros((2, 2, 2), dtype=bool)
    with pytest.raises(ValidationError, match="outside tumour core"):
        RegionMaskSet(wt=empty, tc=empty, et=et, spacing=Spacing())


def test_region_mask_set_rejects_shape_mismatch():
    with pytest.raises(ValidationError, match="shape"):
        RegionMaskSet(
            wt=np.zeros((2, 2, 2), dtype=bool),
            tc=np.zeros((2, 2, 3), dtype=bool),
            et=np.zeros((2, 2, 2), dtype=bool),
            spacing=Spacing(),
        )


def test_region_prob_set_rejects_out_of_range():
    good = np.zeros((2, 2, 2))
    with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
        RegionProbSet(good, good, good + 1.5, Spacing())
    with pytest.raises(ValidationError, match="non-finite"):
        RegionProbSet(good, good + np.nan, good, Spacing())


@pytest.mark.parametrize(
    "probs,expected",
    [
        ((0.9, 0.9, 0.9), 4),  # all gates pass -> enhancing
        ((0.9, 0.2, 0.9), 2),  # TC gate fails -> edema, ET ignored
        ((0.4, 0.9, 0.9), 0),  # WT gate fails -> background
        ((0.9, 0.9, 0.2), 1),  # ET gate fails -> necrosis
    ],
)
def test_regions_to_labels_decision_rule(probs, expected):
    shape = (1, 1, 1)
    prob_set = RegionProbSet(
        np.full(shape, probs[0]),
        np.full(shape, probs[1]),
        np.full(shape, probs[2]),
        Spacing(),
    )
    assert regions_to_labels(prob_set).data[0, 0, 0] == expected


def test_float32_maps_are_thresholded_in_float64():
    # float32(0.7) is 0.699999988..., below 0.7: compared in float32 it
    # would equal the threshold and pass.
    shape = (1, 1, 2)
    at = np.full(shape, 0.7, dtype=np.float32)
    prob_set = RegionProbSet(at, at, at, Spacing())
    assert not regions_to_labels(prob_set, 0.7).data.any()
    assert not binarize_regions(prob_set, 0.7).wt.any()
    assert (regions_to_labels(prob_set, float(np.float32(0.7))).data == 4).all()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("coding", [DEFAULT_CODING, LabelCoding(7, 300, 9, 0)])
def test_regions_to_labels_matches_the_nested_rule(order, dtype, coding):
    rng = np.random.default_rng(12)
    maps = [np.asarray(rng.random((6, 5, 4)).astype(dtype), order=order) for _ in range(3)]
    wt, tc, et = (m >= np.float64(0.4) for m in maps)
    want = np.select(
        [~wt, ~tc, ~et], [coding.background, coding.edema, coding.necrosis], default=coding.enhancing
    )
    out = regions_to_labels(RegionProbSet(*maps, Spacing()), 0.4, coding)
    assert out.data.dtype == (np.uint8 if max(coding.codes) < 256 else np.int32)
    assert np.array_equal(out.data, want)


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.1, 1.5])
def test_regions_to_labels_rejects_degenerate_threshold(threshold):
    prob_set = RegionProbSet(*(np.zeros((2, 2, 2)),) * 3, spacing=Spacing())
    with pytest.raises(ValidationError):
        regions_to_labels(prob_set, threshold)


def test_regions_to_labels_uses_only_configured_codes():
    rng = np.random.default_rng(11)
    coding = LabelCoding(background=10, necrosis=20, edema=30, enhancing=40)
    prob_set = RegionProbSet(
        rng.random((5, 5, 5)), rng.random((5, 5, 5)), rng.random((5, 5, 5)), Spacing()
    )
    out = regions_to_labels(prob_set, 0.5, coding)
    assert set(np.unique(out.data)) <= {10, 20, 30, 40}


def test_roundtrip_identity_on_binarized_nested_masks():
    rng = np.random.default_rng(13)
    for _ in range(25):
        wt, tc, et = random_nested_masks(rng, (6, 6, 6))
        prob_set = RegionProbSet(
            wt.astype(float), tc.astype(float), et.astype(float), Spacing()
        )
        regions = labels_to_regions(regions_to_labels(prob_set))
        assert np.array_equal(regions.wt, wt)
        assert np.array_equal(regions.tc, tc)
        assert np.array_equal(regions.et, et)


def test_binarize_regions_extremes_and_nesting_repair():
    full = binarize_regions(
        RegionProbSet(*(np.ones((2, 2, 2)),) * 3, spacing=Spacing())
    )
    assert full.wt.all() and full.tc.all() and full.et.all()
    empty = binarize_regions(
        RegionProbSet(*(np.zeros((2, 2, 2)),) * 3, spacing=Spacing())
    )
    assert not empty.wt.any()
    # ET above threshold but TC below: the voxel ends up WT-only (edema).
    shape = (1, 1, 1)
    repaired = binarize_regions(
        RegionProbSet(
            np.full(shape, 0.9), np.full(shape, 0.2), np.full(shape, 0.9), Spacing()
        )
    )
    assert repaired.wt[0, 0, 0]
    assert not repaired.tc[0, 0, 0] and not repaired.et[0, 0, 0]


@given(
    counts=st.integers(min_value=0, max_value=50),
    dx=st.floats(0.1, 5.0),
    dy=st.floats(0.1, 5.0),
    dz=st.floats(0.1, 5.0),
)
@settings(max_examples=50, deadline=None)
def test_region_volume_scales_with_spacing(counts, dx, dy, dz):
    mask = np.zeros((4, 4, 4), dtype=bool)
    mask.ravel()[:counts] = True
    volume = region_volume_mm3(mask, Spacing(dx, dy, dz))
    assert volume == pytest.approx(counts * dx * dy * dz, rel=1e-12)


def test_region_volume_examples():
    mask = np.zeros((4, 4, 4), dtype=bool)
    assert region_volume_mm3(mask, Spacing()) == 0.0
    mask.ravel()[:10] = True
    assert region_volume_mm3(mask, Spacing()) == 10.0
    assert region_volume_mm3(mask, Spacing(1, 1, 2)) == 20.0


def test_region_volume_additive_over_disjoint_masks():
    rng = np.random.default_rng(3)
    a = rng.random((5, 5, 5)) < 0.3
    b = (rng.random((5, 5, 5)) < 0.3) & ~a
    s = Spacing(0.7, 1.1, 1.3)
    assert region_volume_mm3(a | b, s) == pytest.approx(
        region_volume_mm3(a, s) + region_volume_mm3(b, s), rel=1e-12
    )


def test_label_volume_from_masks_helper_roundtrips():
    rng = np.random.default_rng(5)
    wt, tc, et = random_nested_masks(rng, (5, 5, 5))
    vol = label_volume_from_masks(wt, tc, et)
    regions = labels_to_regions(vol)
    assert np.array_equal(regions.wt, wt)
    assert np.array_equal(regions.tc, tc)
    assert np.array_equal(regions.et, et)


def test_coding_codes_are_bounded_by_int32():
    top = np.iinfo(np.int32).max
    coding = LabelCoding(enhancing=top)
    labels = regions_to_labels(constant_probset((2, 2, 2), 1.0, 1.0, 1.0), coding=coding)
    assert (labels.data == top).all()
    with pytest.raises(ValidationError, match="outside"):
        LabelCoding(enhancing=top + 1)


def test_codes_the_dtype_cannot_hold_never_match():
    coding = LabelCoding(enhancing=300)
    data = np.zeros((3, 3, 3), dtype=np.uint8)
    data[0, 1, 2] = 1
    data[2, 2, 2] = 2
    vol = LabelVolume(data, Spacing(), coding)
    assert not labels_to_regions(vol).et.any()
    data[1, 0, 2] = 4
    with pytest.raises(ValidationError, match=r"label value 4 at voxel \(1, 0, 2\)"):
        LabelVolume(data, Spacing(), coding)


# Codings with gaps between codes, and with codes that uint8 or int16 cannot hold.
CHECK_CODINGS = {
    "brats": LabelCoding(),
    "gaps": LabelCoding(background=3, necrosis=7, edema=20, enhancing=100),
    "et-300": LabelCoding(enhancing=300),
    "wide": LabelCoding(background=0, necrosis=1, edema=70000, enhancing=2**31 - 1),
}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32])
@pytest.mark.parametrize("coding", CHECK_CODINGS.values(), ids=CHECK_CODINGS.keys())
def test_label_check_matches_set_membership_oracle(coding, dtype, order):
    rng = np.random.default_rng(2020)
    info = np.iinfo(dtype)
    fitting = [code for code in coding.codes if code <= info.max]
    outcomes = set()
    for _ in range(30):
        shape = tuple(int(n) for n in rng.integers(1, 6, size=3))
        data = rng.choice(fitting, size=shape)
        for _ in range(rng.integers(0, 3)):
            voxel = tuple(int(rng.integers(0, n)) for n in shape)
            data[voxel] = rng.integers(info.min, info.max, endpoint=True)
        data = np.asarray(data, dtype=dtype, order=order)
        expected = label_check_oracle(data, coding.codes)
        outcomes.add(expected is None)
        if expected is None:
            vol = LabelVolume(data, Spacing(), coding)
            assert np.array_equal(vol.data, data)
            assert vol.data.flags.f_contiguous == data.flags.f_contiguous
        else:
            value, voxel = expected
            message = re.escape(f"label value {value} at voxel {voxel} ")
            with pytest.raises(ValidationError, match=message):
                LabelVolume(data, Spacing(), coding)
    assert outcomes == {True, False}


def in_layout(data, layout, junk):
    """``data`` as a C, F, strided or transposed array; a strided view skips
    columns of ``junk``, which the label check must never read."""
    if layout in ("C", "F"):
        return np.array(data, order=layout)
    if layout == "strided":
        base = np.full((data.shape[0], 2 * data.shape[1], data.shape[2]), junk, dtype=data.dtype)
        base[:, ::2] = data
        return base[:, ::2]
    return np.ascontiguousarray(data.transpose(1, 0, 2)).transpose(1, 0, 2)


@pytest.mark.parametrize("slab_bytes", [3000, voxeval.volume._SLAB_BYTES])
@pytest.mark.parametrize("layout", ["C", "F", "strided", "transposed"])
@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32])
def test_slab_label_check_and_box_match_oracles(monkeypatch, dtype, layout, slab_bytes):
    # 3000-byte slabs cut a 37 x 29 x 23 volume into 1 to 6 rows a slab, none a
    # divisor of the slowest-varying axis; the real slab holds all of it.
    monkeypatch.setattr(voxeval.volume, "_SLAB_BYTES", slab_bytes)
    coding = CHECK_CODINGS["gaps"]
    bad_value = 5  # every dtype holds it, and it is not a code
    rng = np.random.default_rng(1400)
    shape = (37, 29, 23)

    def check(data):
        arr = in_layout(data, layout, junk=bad_value)
        expected = label_check_oracle(arr, coding.codes)
        if expected is None:
            vol = LabelVolume(arr, Spacing(), coding)
            assert vol._box == box_oracle(arr != coding.background)
            assert np.array_equal(vol.data, arr)
        else:
            value, voxel = expected
            with pytest.raises(ValidationError, match=re.escape(f"label value {value} at voxel {voxel} ")):
                LabelVolume(arr, Spacing(), coding)
        return expected

    background = np.full(shape, coding.background, dtype=dtype)
    assert check(background) is None
    assert LabelVolume(in_layout(background, layout, bad_value), Spacing(), coding)._box == (slice(0, 0),) * 3
    for voxel in [(0, 0, 0), (36, 28, 22), (18, 3, 11)]:
        one = background.copy()
        one[voxel] = coding.enhancing
        assert check(one) is None
    tumour = background.copy()
    tumour[5:30, 4:20, 2:21] = rng.choice(coding.codes, size=(25, 16, 19))
    assert check(tumour) is None

    slow = int(np.argmax(np.abs(in_layout(tumour, layout, bad_value).strides)))
    last = shape[slow] - 1
    for position in (0, last // 2, last):  # the first, a middle and the last slab
        voxel = [int(rng.integers(0, n)) for n in shape]
        voxel[slow] = position
        bad = tumour.copy()
        bad[tuple(voxel)] = bad_value
        assert check(bad) == (bad_value, tuple(voxel))
    # Bad voxels in the first and the last slab: the error names the first in
    # memory order, the one in the first slab, although in F and transposed
    # layouts C order reaches the other first.
    in_first, in_last = [n - 1 for n in shape], [0, 0, 0]
    in_first[slow], in_last[slow] = 0, last
    bad = tumour.copy()
    bad[tuple(in_first)] = bad[tuple(in_last)] = bad_value
    assert check(bad) == (bad_value, tuple(in_first))


@pytest.mark.parametrize("order", ["C", "F"])
def test_label_volume_ignores_later_writes_to_its_input(order):
    data = np.zeros((3, 4, 5), dtype=np.uint8, order=order)
    vol = LabelVolume(data, Spacing())
    data[1, 2, 3] = 4
    assert not vol.data.any()
    assert not vol.data.flags.writeable
    assert vol.data.flags.f_contiguous == (order == "F")


def test_label_volume_keeps_a_read_only_input_without_copying():
    data = np.zeros((3, 4, 5), dtype=np.uint8)
    data.setflags(write=False)
    assert LabelVolume(data, Spacing()).data is data
