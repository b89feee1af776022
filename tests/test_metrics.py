import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from voxeval import (
    LabelVolume,
    Spacing,
    VolumeHeader,
    SpecialCase,
    SpecialCasePolicy,
    ValidationError,
    dice,
    evaluate_case,
    hd95,
    read_label_volume,
    soft_dice,
    surface_distances,
    write_volume,
)
from voxeval import metrics
from voxeval.metrics import _union_bbox
from voxeval.volume import RegionMaskSet, RegionProbSet, _ReadLabelVolume
from helpers import (
    box_mask,
    label_volume_from_masks,
    random_mask,
    random_nested_masks,
    sphere_mask,
)
from oracles import (
    axis0_steps_oracle,
    box_oracle,
    dice_oracle,
    hd95_oracle,
    soft_dice_oracle,
    surface_distances_oracle,
    surface_oracle,
)


def single_voxel(shape, at):
    mask = np.zeros(shape, dtype=bool)
    mask[at] = True
    return mask


# -- dice -------------------------------------------------------------------


def test_dice_identity_and_disjoint():
    a = sphere_mask((10, 10, 10), (5, 5, 5), 3)
    assert dice(a, a) == 1.0
    b = single_voxel((10, 10, 10), (0, 0, 0))
    assert dice(a & ~b, b) == 0.0


def test_dice_half_overlap():
    a = np.zeros((4, 4, 4), dtype=bool)
    b = np.zeros((4, 4, 4), dtype=bool)
    a.ravel()[0:4] = True
    b.ravel()[2:6] = True
    assert dice(a, b) == 0.5


def test_dice_rejects_empty_pair_and_shape_mismatch():
    empty = np.zeros((3, 3, 3), dtype=bool)
    with pytest.raises(ValidationError, match="evaluate_case"):
        dice(empty, empty)
    with pytest.raises(ValidationError, match="shape"):
        dice(np.zeros((3, 3, 3), bool), np.zeros((3, 3, 4), bool))


def test_dice_matches_oracle_exactly_on_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(60):
        shape = tuple(rng.integers(2, 20, size=3))
        a = random_mask(rng, shape, density=float(rng.uniform(0.05, 0.8)))
        b = random_mask(rng, shape, density=float(rng.uniform(0.05, 0.8)))
        assert dice(a, b) == dice_oracle(a, b)


def test_dice_symmetry_and_translation_invariance():
    rng = np.random.default_rng(43)
    for _ in range(20):
        a = random_mask(rng, (8, 8, 8), density=0.3)
        b = random_mask(rng, (8, 8, 8), density=0.3)
        assert dice(a, b) == dice(b, a)
        assert 0.0 <= dice(a, b) <= 1.0
        pad_a = np.zeros((12, 12, 12), dtype=bool)
        pad_b = np.zeros((12, 12, 12), dtype=bool)
        pad_a[0:8, 0:8, 0:8] = a
        pad_b[0:8, 0:8, 0:8] = b
        shifted_a = np.roll(pad_a, (2, 3, 1), axis=(0, 1, 2))
        shifted_b = np.roll(pad_b, (2, 3, 1), axis=(0, 1, 2))
        assert dice(pad_a, pad_b) == dice(shifted_a, shifted_b)


# -- surface distances and hd95 ----------------------------------------------


def test_surface_single_voxel_pair():
    shape = (9, 9, 9)
    a = single_voxel(shape, (4, 4, 4))
    d_ab, d_ba = surface_distances(a, a, Spacing())
    assert list(d_ab) == [0.0]
    assert list(d_ba) == [0.0]


def test_surface_distance_five_apart():
    shape = (12, 12, 12)
    a = single_voxel(shape, (2, 5, 5))
    b = single_voxel(shape, (7, 5, 5))
    d_ab, d_ba = surface_distances(a, b, Spacing())
    assert list(d_ab) == [5.0]
    assert list(d_ba) == [5.0]
    assert hd95(a, b, Spacing()) == 5.0


def test_surface_distance_pinned_percentile_fixture():
    shape = (15, 15, 15)
    a = single_voxel(shape, (2, 2, 2))
    b = single_voxel(shape, (2, 2, 2)) | single_voxel(shape, (2, 2, 12))
    d_ab, d_ba = surface_distances(a, b, Spacing())
    assert sorted(d_ab) == [0.0]
    assert sorted(d_ba) == [0.0, 10.0]
    # P95 of {0, 10} interpolates to 9.5; this pins the percentile rule.
    assert hd95(a, b, Spacing()) == pytest.approx(9.5, abs=1e-12)


def test_surface_distances_reject_empty():
    empty = np.zeros((4, 4, 4), dtype=bool)
    something = single_voxel((4, 4, 4), (1, 1, 1))
    with pytest.raises(ValidationError, match="empty"):
        surface_distances(empty, something, Spacing())
    with pytest.raises(ValidationError, match="empty"):
        surface_distances(something, empty, Spacing())
    with pytest.raises(ValidationError):
        hd95(empty, empty, Spacing())


def test_surface_definition_counts_array_edge_as_outside():
    full = np.ones((4, 5, 6), dtype=bool)
    d_aa, _ = surface_distances(full, full, Spacing())
    # every voxel of the outer shell is surface, interior voxels are not
    expected_surface = surface_oracle(full)
    assert len(d_aa) == int(expected_surface.sum())
    inner = full.copy()
    inner[1:-1, 1:-1, 1:-1] = False
    assert np.array_equal(expected_surface, inner)


def test_surface_distances_match_exhaustive_oracle():
    rng = np.random.default_rng(44)
    for _ in range(20):
        shape = tuple(rng.integers(4, 15, size=3))
        spacing = Spacing(*rng.uniform(0.5, 3.0, size=3))
        a = random_mask(rng, shape, density=float(rng.uniform(0.05, 0.4)))
        b = random_mask(rng, shape, density=float(rng.uniform(0.05, 0.4)))
        d_ab, d_ba = surface_distances(a, b, spacing)
        o_ab, o_ba = surface_distances_oracle(a, b, spacing)
        assert np.allclose(np.sort(d_ab), np.sort(o_ab), atol=1e-9)
        assert np.allclose(np.sort(d_ba), np.sort(o_ba), atol=1e-9)


def test_hd95_oracle_with_distant_masks_and_edges():
    # masks far apart in a larger volume, both touching array edges;
    # exercises the bounding-box crop
    shape = (40, 30, 25)
    a = box_mask(shape, (0, 0, 0), (3, 4, 5))
    b = box_mask(shape, (35, 25, 20), (40, 30, 25))
    spacing = Spacing(0.7, 1.3, 2.1)
    assert hd95(a, b, spacing) == pytest.approx(hd95_oracle(a, b, spacing), abs=1e-9)


@pytest.mark.parametrize("order", ["C", "F"])
def test_surface_distances_equal_the_distance_transform_at_the_surface(order):
    # Anisotropic spacing moves the nearest surface voxel, so a feature
    # transform taken without the spacing gives other distances.
    rng = np.random.default_rng(1809)
    for _ in range(40):
        shape = tuple(int(n) for n in rng.integers(3, 25, size=3))
        spacing = Spacing(*rng.uniform(0.3, 3.0, size=3))
        a, b = (
            np.asarray(random_mask(rng, shape, density=float(rng.uniform(0.02, 0.5))), order=order)
            for _ in range(2)
        )
        a[0, 0, 0] = b[-1, -1, -1] = True  # the union box is the whole grid
        surf_a, surf_b = surface_oracle(a), surface_oracle(b)
        sampling = spacing.as_tuple()
        d_ab, d_ba = surface_distances(a, b, spacing)
        assert np.array_equal(d_ab, ndimage.distance_transform_edt(~surf_b, sampling=sampling)[surf_a])
        assert np.array_equal(d_ba, ndimage.distance_transform_edt(~surf_a, sampling=sampling)[surf_b])


def edge_and_spacing_cases(rng, order):
    """Mask pairs with axes of length 1, masks on the box edge, and a focus
    far along axis 1, under isotropic and strongly anisotropic spacings."""
    spacings = [Spacing(), Spacing(0.5, 0.5, 5.0), Spacing(0.3, 0.3, 3.0), Spacing(5.0, 0.4, 0.7)]
    shapes = [(1, 1, 1), (1, 9, 7), (8, 1, 6), (7, 9, 1), (1, 1, 12), (1, 12, 1), (12, 1, 1), (9, 11, 8)]
    for spacing in spacings:
        for shape in shapes:
            a, b = (
                np.asarray(random_mask(rng, shape, density=float(rng.uniform(0.05, 0.5))), order=order)
                for _ in range(2)
            )
            a[0, 0, 0] = b[-1, -1, -1] = True  # both masks touch the union box's edge
            yield a, b, spacing
        # A false-positive focus at the far end of axis 1: its lines search
        # through the whole axis before any surface voxel is near.
        a = np.zeros((7, 40, 6), dtype=bool, order=order)
        a[2:5, 0:4, 1:5] = True
        b = a.copy(order=order)
        b[3, 39, 2] = True
        yield a, b, spacing


@pytest.mark.parametrize("chunk", [None, 1, 50])
@pytest.mark.parametrize("order", ["C", "F"])
def test_surface_distances_match_the_oracle_on_edges_and_spacings(order, chunk, monkeypatch):
    # Small chunks split the search's lines over many chunks, as a large box does.
    if chunk is not None:
        monkeypatch.setattr(metrics, "_CHUNK", chunk)
    rng = np.random.default_rng(1811)
    for a, b, spacing in edge_and_spacing_cases(rng, order):
        d_ab, d_ba = surface_distances(a, b, spacing)
        o_ab, o_ba = surface_distances_oracle(a, b, spacing)
        # The oracle subtracts physical coordinates, so it rounds differently.
        assert np.allclose(np.sort(d_ab), np.sort(o_ab), rtol=0, atol=1e-9)
        assert np.allclose(np.sort(d_ba), np.sort(o_ba), rtol=0, atol=1e-9)
        surf_a, surf_b = surface_oracle(a), surface_oracle(b)
        sampling = spacing.as_tuple()
        assert np.array_equal(d_ab, ndimage.distance_transform_edt(~surf_b, sampling=sampling)[surf_a])
        assert np.array_equal(d_ba, ndimage.distance_transform_edt(~surf_a, sampling=sampling)[surf_b])


def test_surface_matches_the_oracle():
    rng = np.random.default_rng(1812)
    masks = [np.zeros((3, 4, 5), dtype=bool), np.ones((3, 4, 5), dtype=bool), np.ones((1, 1, 1), dtype=bool)]
    for _ in range(40):
        shape = tuple(int(n) for n in rng.integers(1, 14, size=3))
        masks.append(random_mask(rng, shape, density=float(rng.uniform(0.05, 0.9))))
    for mask in masks:
        for view in (mask, np.asfortranarray(mask), np.pad(mask, 2)[2:-2, 2:-2, 2:-2]):
            surface = metrics._surface(view)
            assert surface.flags.c_contiguous
            assert np.array_equal(surface, surface_oracle(mask))


@pytest.mark.parametrize(
    "shape, density, dtype",
    [
        ((9, 7, 5), 0.2, np.uint16),
        ((200, 6, 4), 0.02, np.uint16),  # steps pass 255
        ((32767, 1, 2), 0.001, np.uint16),  # the largest axis whose steps fit uint16
        ((32768, 1, 2), 0.001, np.int32),
    ],
)
def test_axis0_steps_match_a_per_column_loop(shape, density, dtype):
    rng = np.random.default_rng(2911)
    surface = rng.random(shape) < density
    surface[:, 0, 0] = False  # a column without surface
    want = axis0_steps_oracle(surface)
    steps = metrics._axis0_steps(surface)
    assert steps.dtype == dtype and steps.shape == shape
    found = want >= 0
    assert found.any() and not found.all()
    assert np.array_equal(steps[found], want[found])
    # A column without surface steps past the last plane, but stays inside
    # the table of squared steps, which holds 2 * n0 entries.
    n0 = shape[0]
    assert ((steps[~found] >= n0) & (steps[~found] < 2 * n0)).all()


def test_union_box_matches_the_box_of_the_union():
    rng = np.random.default_rng(1810)
    for order in ("C", "F"):
        for _ in range(30):
            shape = tuple(int(n) for n in rng.integers(1, 12, size=3))
            a, b = (
                np.asarray(rng.random(shape) < rng.choice([0.0, 0.01, 0.2]), order=order)
                for _ in range(2)
            )
            assert _union_bbox(a, b) == box_oracle(a | b)


def two_foci_labels(shape=(240, 240, 155)):
    """A reference and a prediction, each with two BraTS-like lesions about
    120 mm apart; the prediction is shifted and scaled a little."""
    def paint(labels, center, radii, code):
        lo = [max(0, int(c - r)) for c, r in zip(center, radii)]
        hi = [min(n, int(c + r) + 2) for n, c, r in zip(shape, center, radii)]
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        grids = np.ogrid[box]
        labels[box][sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii)) <= 1.0] = code

    mid, offset, radii = np.array(shape) / 2.0, np.array([42.0, 36.0, 22.0]), np.array([11.0, 10.0, 9.0])
    volumes = []
    for shift, scale in ((0.0, 1.0), (1.5, 1.04)):
        labels = np.zeros(shape, dtype=np.uint8)
        for center in (mid - offset + shift, mid + offset + shift):
            for code, factor in ((2, 1.0), (4, 0.6), (1, 0.35)):
                paint(labels, center, radii * scale * factor, code)
        labels.setflags(write=False)  # so LabelVolume keeps it without a copy
        volumes.append(labels)
    return volumes


def test_evaluate_case_peak_memory_stays_under_twice_the_volumes():
    # Cropped to the tumour box, with distances gathered at surface voxels
    # only: before both, this pair peaked at 3.3 times the volumes' bytes.
    tracemalloc.start()
    try:
        ref, pred = two_foci_labels()
        held = ref.nbytes + pred.nbytes
        tracemalloc.reset_peak()
        ref_volume, pred_volume = LabelVolume(ref, Spacing()), LabelVolume(pred, Spacing())
        records = evaluate_case(ref_volume, pred_volume)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rec.special_case is SpecialCase.NONE for rec in records)
    assert peak < 2 * held, f"peak {peak / 2**20:.1f} MB with {held / 2**20:.1f} MB held"
    assert ref_volume._box == box_oracle(ref != 0)


def test_evaluate_case_holds_one_region_at_a_time():
    # Each region's masks are derived when that region is scored and freed
    # before its distance search, whose axis-0 steps are uint16.  With all
    # six masks held through int32 searches this pair peaked at 0.54 times
    # the volumes' bytes.
    ref, pred = two_foci_labels()
    held = ref.nbytes + pred.nbytes
    ref_volume, pred_volume = LabelVolume(ref, Spacing()), LabelVolume(pred, Spacing())
    tracemalloc.start()
    try:
        records = evaluate_case(ref_volume, pred_volume)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rec.special_case is SpecialCase.NONE for rec in records)
    assert peak < 0.35 * held, f"peak {peak / held:.2f} times the volumes' bytes"



def one_focus_labels(shape=(240, 240, 155)):
    """A reference and a prediction with one BraTS-like lesion each, about
    57 voxels across; the prediction is shifted and scaled a little."""
    volumes = []
    for shift, scale in ((0, 1.0), (2, 1.04)):
        r = np.sqrt(sum(g.astype(float) ** 2 for g in np.ogrid[-30:31, -30:31, -30:31])) / scale
        labels = np.zeros(shape, np.uint8)
        labels[tuple(slice(n // 2 - 30 + shift, n // 2 + 31 + shift) for n in shape)] = np.select(
            [r <= 10, r <= 18, r <= 28], [1, 4, 2], 0)
        volumes.append(labels)
    return volumes


def test_evaluate_case_on_read_volumes_never_builds_a_grid(tmp_path, monkeypatch):
    # Each read volume holds its box's labels only, and evaluate_case crops
    # both to their joined box without asking for either volume's data, so
    # a compact pair peaks below one grid.  (The pair of foci 120 mm apart
    # above has a box about 30 times larger, and peaks near a quarter of
    # the two volumes' bytes.)
    ref, pred = one_focus_labels()
    paths = [tmp_path / "ref.nii.gz", tmp_path / "pred.nii.gz"]
    for path, labels in zip(paths, (ref, pred)):
        write_volume(path, VolumeHeader(labels.shape, "uint8", Spacing()), labels)
    want = evaluate_case(LabelVolume(ref, Spacing()), LabelVolume(pred, Spacing()))
    ref_volume, pred_volume = (read_label_volume(path) for path in paths)
    assert ref_volume._box != pred_volume._box  # so both crops are padded
    monkeypatch.setattr(_ReadLabelVolume, "data", property(lambda self: pytest.fail("data was built")))
    tracemalloc.start()
    try:
        records = evaluate_case(ref_volume, pred_volume)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records == want
    assert "_data" not in ref_volume.__dict__ and "_data" not in pred_volume.__dict__
    assert peak < ref.nbytes, f"peak {peak / 2**20:.1f} MB against a {ref.nbytes / 2**20:.1f} MB grid"

def test_hd95_symmetry_scale_and_self():
    rng = np.random.default_rng(45)
    for _ in range(10):
        a = random_mask(rng, (10, 10, 10), density=0.2)
        b = random_mask(rng, (10, 10, 10), density=0.2)
        s = Spacing(1.0, 1.5, 0.75)
        assert hd95(a, b, s) == hd95(b, a, s)
        assert hd95(a, a, s) == 0.0
        doubled = Spacing(2.0, 3.0, 1.5)
        assert hd95(a, b, doubled) == pytest.approx(2 * hd95(a, b, s), rel=1e-12)


# -- evaluate_case ------------------------------------------------------------


def empty_volume(shape=(6, 6, 6)):
    return LabelVolume(np.zeros(shape, dtype=np.uint8), Spacing())


def test_evaluate_case_both_empty_is_perfect():
    records = evaluate_case(empty_volume(), empty_volume())
    for rec in records:
        assert (rec.dice, rec.hd95) == (1.0, 0.0)
        assert rec.special_case is SpecialCase.BOTH_EMPTY
    assert tuple(r.region for r in records) == ("WT", "TC", "ET")


def test_evaluate_case_false_positive_scores_worst():
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[2, 2, 2] = 4
    pred = LabelVolume(data, Spacing())
    records = evaluate_case(empty_volume(), pred)
    for rec in records:
        assert (rec.dice, rec.hd95) == (0.0, 373.13)
        assert rec.special_case is SpecialCase.REF_EMPTY_PRED_NONEMPTY


def test_evaluate_case_missed_region_scores_worst():
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[2, 2, 2] = 4
    ref = LabelVolume(data, Spacing())
    records = evaluate_case(ref, empty_volume())
    for rec in records:
        assert (rec.dice, rec.hd95) == (0.0, 373.13)
        assert rec.special_case is SpecialCase.REF_NONEMPTY_PRED_EMPTY


def test_evaluate_case_mixed_regions():
    # reference has all three regions; prediction misses ET only
    shape = (12, 12, 12)
    wt = sphere_mask(shape, (6, 6, 6), 4)
    tc = sphere_mask(shape, (6, 6, 6), 3)
    et = sphere_mask(shape, (6, 6, 6), 2)
    ref = label_volume_from_masks(wt, tc, et)
    pred = label_volume_from_masks(wt, tc, np.zeros(shape, dtype=bool))
    records = evaluate_case(ref, pred)
    by_region = {r.region: r for r in records}
    assert by_region["WT"].special_case is SpecialCase.NONE
    assert by_region["WT"].dice == 1.0 and by_region["WT"].hd95 == 0.0
    assert by_region["TC"].dice == 1.0
    assert by_region["ET"].special_case is SpecialCase.REF_NONEMPTY_PRED_EMPTY
    assert (by_region["ET"].dice, by_region["ET"].hd95) == (0.0, 373.13)


def test_evaluate_case_agrees_with_direct_metric_calls():
    rng = np.random.default_rng(46)
    shape = (10, 10, 10)
    ref_masks = random_nested_masks(rng, shape, p_wt=0.4)
    pred_masks = random_nested_masks(rng, shape, p_wt=0.4)
    ref = label_volume_from_masks(*ref_masks)
    pred = label_volume_from_masks(*pred_masks)
    records = evaluate_case(ref, pred)
    for rec, ref_mask, pred_mask in zip(records, ref_masks, pred_masks):
        if rec.special_case is SpecialCase.NONE:
            assert rec.dice == dice(ref_mask, pred_mask)
            assert rec.hd95 == hd95(ref_mask, pred_mask, Spacing())


def test_evaluate_case_honors_custom_policy():
    policy = SpecialCasePolicy(worst_hd95=100.0)
    data = np.zeros((4, 4, 4), dtype=np.uint8)
    data[1, 1, 1] = 4
    records = evaluate_case(empty_volume((4, 4, 4)), LabelVolume(data, Spacing()), policy)
    assert records[2].hd95 == 100.0


def test_evaluate_case_rejects_mismatches():
    a = empty_volume((4, 4, 4))
    with pytest.raises(ValidationError, match="shape"):
        evaluate_case(a, empty_volume((4, 4, 5)))
    b = LabelVolume(np.zeros((4, 4, 4), dtype=np.uint8), Spacing(2, 1, 1))
    with pytest.raises(ValidationError, match="spacing"):
        evaluate_case(a, b)


# -- soft dice ----------------------------------------------------------------


def masks_to_probset(wt, tc, et, spacing=Spacing()):
    return RegionProbSet(wt.astype(float), tc.astype(float), et.astype(float), spacing)


def test_soft_dice_perfect_prediction_near_one():
    rng = np.random.default_rng(47)
    wt, tc, et = random_nested_masks(rng, (8, 8, 8), p_wt=0.5)
    et[1, 1, 1] = tc[1, 1, 1] = wt[1, 1, 1] = True  # keep all regions nonempty
    refs = [RegionMaskSet(wt, tc, et, Spacing())]
    probs = [masks_to_probset(wt, tc, et)]
    for mode in ("sample", "batch"):
        assert soft_dice(probs, refs, mode) == pytest.approx(1.0, abs=1e-4)


def test_soft_dice_two_sample_overshadowing_fixture():
    shape = (12, 12, 12)
    tiny = np.zeros(shape, dtype=bool)
    tiny[0, 0, 0] = True
    big = np.zeros(shape, dtype=bool)
    big.ravel()[:1000] = True
    zero = np.zeros(shape, dtype=bool)

    refs = [
        RegionMaskSet(tiny, tiny, tiny, Spacing()),
        RegionMaskSet(big, big, big, Spacing()),
    ]
    probs = [
        masks_to_probset(zero, zero, zero),  # misses the single voxel
        masks_to_probset(big, big, big),  # perfect on the large sample
    ]
    sample_value = soft_dice(probs, refs, "sample")
    batch_value = soft_dice(probs, refs, "batch")
    assert sample_value == pytest.approx(0.5, abs=1e-4)
    assert batch_value == pytest.approx(2000.0 / 2001.0, abs=1e-6)
    assert batch_value >= 0.999


def test_soft_dice_smoothing_limit():
    shape = (4, 4, 4)
    zero = np.zeros(shape, dtype=bool)
    refs = [RegionMaskSet(zero, zero, zero, Spacing())]
    probs = [masks_to_probset(zero, zero, zero)]
    assert soft_dice(probs, refs, "sample") == 1.0
    assert soft_dice(probs, refs, "batch") == 1.0


def test_soft_dice_modes_agree_for_single_sample():
    rng = np.random.default_rng(48)
    wt, tc, et = random_nested_masks(rng, (7, 7, 7), p_wt=0.4)
    refs = [RegionMaskSet(wt, tc, et, Spacing())]
    probs = [
        RegionProbSet(
            rng.random((7, 7, 7)), rng.random((7, 7, 7)), rng.random((7, 7, 7)), Spacing()
        )
    ]
    sample_value = soft_dice(probs, refs, "sample")
    batch_value = soft_dice(probs, refs, "batch")
    assert sample_value == pytest.approx(batch_value, abs=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["sample", "batch"])
def test_soft_dice_matches_the_loop_reference_exactly(mode, dtype):
    rng = np.random.default_rng(49)
    for samples in [1, 2, 3, 4, 5] * 20:
        shape = tuple(int(d) for d in rng.integers(1, 9, size=3))
        refs = [
            RegionMaskSet(*random_nested_masks(rng, shape, p_wt=float(rng.random())), Spacing())
            for _ in range(samples)
        ]
        probs = [RegionProbSet(*rng.random((3, *shape)).astype(dtype), Spacing()) for _ in range(samples)]
        smooth = float(rng.choice([1e-5, 1.0]))
        assert soft_dice(probs, refs, mode, smooth) == soft_dice_oracle(probs, refs, mode, smooth)


def test_soft_dice_rejects_bad_batches():
    shape = (4, 4, 4)
    zero = np.zeros(shape, dtype=bool)
    refs = [RegionMaskSet(zero, zero, zero, Spacing())]
    probs = [masks_to_probset(zero, zero, zero)]
    with pytest.raises(ValidationError, match="mode"):
        soft_dice(probs, refs, "global")
    with pytest.raises(ValidationError, match="nonempty"):
        soft_dice([], [], "sample")
    with pytest.raises(ValidationError, match="lengths"):
        soft_dice(probs, refs * 2, "sample")
    other = [RegionMaskSet(*(np.zeros((5, 5, 5), bool),) * 3, spacing=Spacing())]
    with pytest.raises(ValidationError, match="shape"):
        soft_dice(probs, other, "sample")


def test_evaluate_case_ignores_memory_order():
    rng = np.random.default_rng(44)
    spacing = Spacing(0.8, 1.0, 1.7)
    shape = (9, 10, 11)
    for p_et in (0.0, 0.3, 0.6):
        ref = label_volume_from_masks(*random_nested_masks(rng, shape), spacing)
        pred = label_volume_from_masks(*random_nested_masks(rng, shape, p_et=p_et), spacing)
        expected = evaluate_case(ref, pred)
        f_ref = LabelVolume(np.asfortranarray(ref.data), spacing)
        f_pred = LabelVolume(np.asfortranarray(pred.data), spacing)
        assert f_ref.data.flags.f_contiguous and not ref.data.flags.f_contiguous
        assert evaluate_case(f_ref, f_pred) == expected
        assert evaluate_case(ref, f_pred) == expected
        assert evaluate_case(f_ref, pred) == expected
