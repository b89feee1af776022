"""Enhancing-tumour removal below a volume threshold, with optimization.

On data where many references contain no enhancing tumour, a small false
positive trades a perfect (Dice 1, HD95 0) score for the worst one, so it
can pay off to drop tiny enhancing predictions altogether.  Removal is
all-or-nothing: if the predicted enhancing volume is below the threshold,
every enhancing voxel is relabelled to necrosis, which leaves the whole
tumour and tumour core regions untouched.

The threshold is optimized over a labelled dataset by two criteria, once
by maximizing the mean enhancing-tumour Dice and once by minimizing the
ranking score of a pool in which each candidate threshold acts as one
pseudo-algorithm; callers pick whichever suits their deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .metrics import (
    DEFAULT_POLICY,
    SpecialCasePolicy,
    _join_boxes,
    check_pair,
    empty_region_record,
    score_region,
)
from .ranking import MetricTable, brats_ranking
from .volume import LabelVolume, _freeze, _region_mask, region_volume_mm3

#: Added to each observed ET volume when building default candidates, so the
#: sweep contains a threshold just above every achievable removal pattern.
DEFAULT_EPSILON_MM3 = 0.5


def validate_threshold(threshold_mm3) -> float:
    """Return a removal threshold as a float; it must be finite and nonnegative."""
    threshold_mm3 = float(threshold_mm3)
    if not (math.isfinite(threshold_mm3) and threshold_mm3 >= 0.0):
        raise ValidationError(
            f"threshold must be a finite nonnegative number of mm^3, got {threshold_mm3}"
        )
    return threshold_mm3


def _removed(volume_mm3, threshold_mm3):
    """Whether a predicted ET volume is removed at a threshold: 0 < volume < t.

    The comparison is strict, so a threshold of 0 removes nothing and a
    prediction without ET has nothing to remove.  Elementwise on arrays.
    """
    return (0.0 < volume_mm3) & (volume_mm3 < threshold_mm3)


def _et_mask(volume: LabelVolume, box: tuple[slice, slice, slice]) -> np.ndarray:
    """The enhancing-tumour mask of ``volume`` within ``box``, which holds the
    volume's own box, so every enhancing voxel lies in it."""
    return _region_mask(volume._crop(box), volume.coding, "ET")


def apply_et_threshold(pred: LabelVolume, threshold_mm3: float) -> LabelVolume:
    """Remove all enhancing tumour if its volume falls below a threshold.

    Args:
        pred: predicted segmentation.
        threshold_mm3: finite nonnegative volume threshold in cubic
            millimetres.  The comparison is strict, so 0 never removes
            anything.

    Returns:
        ``pred`` itself when the enhancing volume reaches the threshold
        (or there is nothing to remove); otherwise a new volume with every
        enhancing voxel relabelled to the necrosis code, in a dtype wide
        enough to hold that code.
    """
    threshold_mm3 = validate_threshold(threshold_mm3)
    et = _et_mask(pred, pred._box)
    if not _removed(region_volume_mm3(et, pred.spacing), threshold_mm3):
        return pred
    necrosis = pred.coding.necrosis
    # Widen the dtype when it cannot hold the necrosis code.
    relabeled = pred.data.astype(np.promote_types(pred.data.dtype, np.min_scalar_type(necrosis)))
    relabeled[pred._box][et] = necrosis
    relabeled.setflags(write=False)  # so the constructor keeps it without a copy
    return LabelVolume(relabeled, pred.spacing, pred.coding)


@dataclass(frozen=True, eq=False)
class ThresholdSweepResult:
    """Per-candidate outcomes of an enhancing-threshold sweep.

    For each candidate threshold (strictly increasing): the mean ET Dice
    over all cases, how many cases score the perfect ET pair, how many the
    worst pair, and the candidate's ranking score in the pseudo-algorithm
    pool.  Only :func:`sweep_thresholds` builds one, from checked inputs.
    """

    thresholds: tuple[float, ...]
    mean_et_dice: np.ndarray
    perfect_counts: np.ndarray
    worst_counts: np.ndarray
    ranking_scores: np.ndarray
    n_cases: int

    def __post_init__(self) -> None:
        for name in ("mean_et_dice", "perfect_counts", "worst_counts", "ranking_scores"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


@dataclass(frozen=True)
class ThresholdChoice:
    """The two optimized thresholds, one per selection criterion."""

    best_by_dice: float
    best_by_rank: float

    def by(self, criterion: str) -> float:
        """Return the threshold chosen by ``criterion`` ("dice" or "rank")."""
        if criterion == "dice":
            return self.best_by_dice
        if criterion == "rank":
            return self.best_by_rank
        raise ValidationError(
            f"criterion must be 'dice' or 'rank', got {criterion!r}"
        )


def _candidate_grid(volumes: Iterable[float], epsilon_mm3: float) -> tuple[float, ...]:
    values = {0.0}
    for volume in volumes:
        values.add(volume)
        values.add(volume + float(epsilon_mm3))
    return tuple(sorted(values))


def default_candidates(
    cases: Sequence[tuple[LabelVolume, LabelVolume]],
    epsilon_mm3: float = DEFAULT_EPSILON_MM3,
) -> tuple[float, ...]:
    """Candidate grid realizing every achievable removal pattern.

    Contains 0, every distinct predicted enhancing volume in the dataset,
    and each such volume plus ``epsilon_mm3`` (just above it, so the
    corresponding prediction gets removed).
    """
    return _candidate_grid(
        (region_volume_mm3(_et_mask(pred, pred._box), pred.spacing) for _, pred in cases), epsilon_mm3
    )


def _et_outcomes(
    ref: LabelVolume, pred: LabelVolume, policy: SpecialCasePolicy
) -> tuple[float, float, float, float, float]:
    """One case reduced to what a sweep needs: the predicted ET volume, then
    the ET (Dice, HD95) when that ET is kept and when it is removed."""
    check_pair(ref, pred)
    box = _join_boxes(ref._box, pred._box)  # exact, as in evaluate_case
    masks = [_et_mask(ref, box), _et_mask(pred, box)]
    removed = empty_region_record("ET", not masks[0].any(), True, policy)
    volume = region_volume_mm3(masks[1], pred.spacing)
    # Popped into the call, so no local holds the masks and score_region
    # frees them before its distance search.
    kept = score_region("ET", masks.pop(0), masks.pop(), ref.spacing, policy)
    return volume, kept.dice, kept.hd95, removed.dice, removed.hd95


def sweep_thresholds(
    cases: Iterable[tuple[LabelVolume, LabelVolume]],
    candidates: Sequence[float] | None = None,
    policy: SpecialCasePolicy = DEFAULT_POLICY,
) -> ThresholdSweepResult:
    """Evaluate every candidate threshold over a labelled dataset.

    The result is as if each candidate were applied to every prediction
    and the cases rescored.  Besides per-candidate mean ET Dice and counts of perfect
    and worst ET scores, each candidate is ranked against the others as a
    pseudo-algorithm on the ET columns only, yielding a ranking score per
    candidate.

    A threshold changes only the ET of a prediction, and only between two
    outcomes: kept as predicted or removed entirely.  So each pair is read
    once and scored once, on ET only, and every candidate picks one of the
    two outcomes per case.

    Args:
        cases: (reference, prediction) pairs, any iterable; consumed once,
            so a generator keeps only one pair in memory.
        candidates: explicit threshold grid of finite nonnegative values;
            deduplicated and sorted.  Defaults to
            :func:`default_candidates` over the dataset.
        policy: empty-region scoring policy, also defines the perfect and
            worst score pairs being counted.

    Returns:
        A :class:`ThresholdSweepResult` aligned with the sorted candidates.
    """
    grid = None
    if candidates is not None:
        grid = tuple(sorted({validate_threshold(c) for c in candidates}))
        if not grid:
            raise ValidationError("candidate list must be nonempty")
    outcomes = [_et_outcomes(ref, pred, policy) for ref, pred in cases]
    if not outcomes:
        raise ValidationError("sweep needs at least one (reference, prediction) pair")
    volumes, kept_dice, kept_hd, removed_dice, removed_hd = np.array(outcomes).T
    if grid is None:
        grid = _candidate_grid(volumes.tolist(), DEFAULT_EPSILON_MM3)

    # (T, M): whether candidate i removes the ET of case j.
    gone = _removed(volumes[None, :], np.asarray(grid)[:, None])
    dice = np.where(gone, removed_dice, kept_dice)[:, :, None]
    hd = np.where(gone, removed_hd, kept_hd)[:, :, None]
    is_perfect = (dice == policy.perfect_dice) & (hd == policy.perfect_hd95)
    is_worst = ~is_perfect & (dice == policy.worst_dice) & (hd == policy.worst_hd95)

    n_cases = len(outcomes)
    pool = MetricTable(
        algorithms=tuple(repr(t) for t in grid),
        cases=tuple(f"case{j}" for j in range(n_cases)),
        dice=dice,
        hd95=hd,
        regions=("ET",),
    )
    scores = brats_ranking(pool).score
    return ThresholdSweepResult(
        thresholds=grid,
        mean_et_dice=dice[:, :, 0].mean(axis=1),
        perfect_counts=is_perfect.sum(axis=(1, 2)),
        worst_counts=is_worst.sum(axis=(1, 2)),
        ranking_scores=scores,
        n_cases=n_cases,
    )


def optimize_threshold(sweep: ThresholdSweepResult) -> ThresholdChoice:
    """Pick the best threshold under each criterion.

    ``best_by_dice`` maximizes the mean ET Dice, ``best_by_rank`` minimizes
    the pseudo-algorithm ranking score.  Ties go to the smallest threshold,
    which removes the least.
    """
    # argmax/argmin return the first extremum; thresholds are ascending,
    # so ties resolve to the smallest candidate.
    by_dice = sweep.thresholds[int(np.argmax(sweep.mean_et_dice))]
    by_rank = sweep.thresholds[int(np.argmin(sweep.ranking_scores))]
    return ThresholdChoice(best_by_dice=by_dice, best_by_rank=by_rank)
