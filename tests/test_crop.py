"""evaluate_case crops each case once to the box around both volumes' tumour.

Every record must equal the uncropped route: the oracle on full-grid masks
(within the HD95 tolerance) and ``score_region`` on full-grid masks (exactly).
"""

import itertools

import numpy as np
import pytest

import voxeval.metrics
from voxeval import (
    DEFAULT_CODING,
    LabelCoding,
    LabelVolume,
    Spacing,
    evaluate_case,
    labels_to_regions,
)
from voxeval.metrics import score_region
from oracles import evaluate_case_oracle

SHAPE = (9, 8, 7)
# Background is 7 and 0 is a tumour code, so a box found from "!= 0" fails.
SHIFTED_CODING = LabelCoding(background=7, necrosis=0, edema=3, enhancing=9)


def tumour_volume(rng, boxes, coding, order, spacing, dtype):
    """Background everywhere except random tumour labels inside each box."""
    data = np.full(SHAPE, coding.background, dtype=dtype)
    codes = np.asarray(coding.codes, dtype=dtype)
    for lo, hi in boxes:
        window = tuple(slice(a, b) for a, b in zip(lo, hi))
        data[window] = rng.choice(codes, size=data[window].shape, p=(0.2, 0.3, 0.2, 0.3))
        # One tumour voxel pinned at each box corner, so the box is exact.
        for corner in itertools.product(*zip(lo, (b - 1 for b in hi))):
            data[corner] = coding.enhancing
    return LabelVolume(np.asarray(data, order=order), spacing, coding)


def random_box(rng):
    lo = [int(rng.integers(0, s - 1)) for s in SHAPE]
    return lo, [int(rng.integers(a + 1, min(s, a + 4) + 1)) for a, s in zip(lo, SHAPE)]


def placements():
    """Boxes touching each face, each corner, and one inside the grid."""
    mid = [(s // 2 - 1, s // 2 + 1) for s in SHAPE]
    for axis, side in itertools.product(range(3), (0, 1)):
        lo, hi = [a for a, _ in mid], [b for _, b in mid]
        if side:
            lo[axis], hi[axis] = SHAPE[axis] - 2, SHAPE[axis]
        else:
            lo[axis], hi[axis] = 0, 2
        yield f"face{axis}{'+-'[side]}", (lo, hi)
    for bits in itertools.product((0, 1), repeat=3):
        lo = [s - 3 if bit else 0 for bit, s in zip(bits, SHAPE)]
        yield f"corner{''.join(map(str, bits))}", (lo, [a + 3 for a in lo])
    yield "inside", ([a for a, _ in mid], [b for _, b in mid])


def uncropped_records(ref, pred):
    ref_masks, pred_masks = labels_to_regions(ref), labels_to_regions(pred)
    return tuple(
        score_region(name, ref_masks.region(name), pred_masks.region(name), ref.spacing)
        for name in ("WT", "TC", "ET")
    )


def assert_matches_uncropped(ref, pred):
    records = evaluate_case(ref, pred)
    assert records == uncropped_records(ref, pred)
    for rec, (region, dice, hd95, tag) in zip(records, evaluate_case_oracle(ref, pred)):
        assert (rec.region, rec.special_case.value) == (region, tag)
        assert rec.dice == dice
        assert rec.hd95 == pytest.approx(hd95, abs=1e-9)


def case_pairs(rng, coding, order, spacing, dtype):
    """(label, ref, pred) over every placement on either side, and the empty cases."""
    def volume(*boxes):
        return tumour_volume(rng, boxes, coding, order, spacing, dtype)

    for name, box in placements():
        other = random_box(rng)
        yield f"ref {name}", volume(box), volume(other)
        yield f"pred {name}", volume(other), volume(box)
        yield f"both {name}", volume(box, other), volume(box)
        yield f"ref only {name}", volume(box), volume()
        yield f"pred only {name}", volume(), volume(box)
    yield "all background", volume(), volume()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "coding,dtype", [(DEFAULT_CODING, np.uint8), (SHIFTED_CODING, np.int16)],
    ids=["brats", "background-7"],
)
@pytest.mark.parametrize("spacing", [Spacing(), Spacing(0.7, 1.3, 2.9)], ids=["iso", "aniso"])
def test_cropped_evaluate_case_matches_uncropped_routes(order, coding, dtype, spacing):
    rng = np.random.default_rng(811)
    for label, ref, pred in case_pairs(rng, coding, order, spacing, dtype):
        try:
            assert_matches_uncropped(ref, pred)
        except AssertionError as exc:
            raise AssertionError(f"{label}: {exc}") from exc


def test_cropped_evaluate_case_on_random_cases():
    rng = np.random.default_rng(812)
    for _ in range(40):
        coding = (DEFAULT_CODING, SHIFTED_CODING)[int(rng.integers(2))]
        spacing = Spacing(*rng.uniform(0.5, 3.0, size=3))
        order = "CF"[int(rng.integers(2))]
        boxes = [random_box(rng) for _ in range(int(rng.integers(0, 3)))]
        ref = tumour_volume(rng, boxes, coding, order, spacing, np.int16)
        boxes = [random_box(rng) for _ in range(int(rng.integers(0, 3)))]
        pred = tumour_volume(rng, boxes, coding, order, spacing, np.int16)
        assert_matches_uncropped(ref, pred)


def expected_box_shape(ref, pred):
    tumour = (ref.data != ref.coding.background) | (pred.data != pred.coding.background)
    if not tumour.any():
        return (0, 0, 0)
    idx = np.argwhere(tumour)
    return tuple(int(n) for n in idx.max(axis=0) - idx.min(axis=0) + 1)


@pytest.mark.parametrize("coding", [DEFAULT_CODING, SHIFTED_CODING], ids=["brats", "background-7"])
def test_score_region_receives_union_box_masks(monkeypatch, coding):
    shapes = []

    def recording(name, mask_ref, mask_pred, *args, **kwargs):
        shapes.append((mask_ref.shape, mask_pred.shape))
        return score_region(name, mask_ref, mask_pred, *args, **kwargs)

    monkeypatch.setattr(voxeval.metrics, "score_region", recording)
    rng = np.random.default_rng(813)
    spacing = Spacing()
    cases = [
        (([1, 2, 1], [3, 4, 3]), ([4, 1, 2], [6, 3, 5])),  # disjoint boxes
        (([0, 0, 0], [2, 2, 2]), ([7, 6, 5], [9, 8, 7])),  # opposite corners
        (([2, 2, 2], [5, 5, 4]), None),  # prediction all background
        (None, ([3, 0, 1], [4, 8, 2])),  # reference all background
        (None, None),  # both all background
    ]
    for ref_box, pred_box in cases:
        ref = tumour_volume(rng, [ref_box] if ref_box else [], coding, "C", spacing, np.int16)
        pred = tumour_volume(rng, [pred_box] if pred_box else [], coding, "C", spacing, np.int16)
        shapes.clear()
        evaluate_case(ref, pred)
        box_shape = expected_box_shape(ref, pred)
        assert shapes == [(box_shape, box_shape)] * 3
