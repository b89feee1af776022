"""Rank-then-aggregate challenge ranking with jackknife stability analysis.

Every algorithm is ranked against the others separately on each case,
region and metric (six columns per case: Dice and HD95 for WT, TC, ET).
Ties share the arithmetic mean of the positions they span, so each
column's ranks always sum to N(N+1)/2.  The per-algorithm mean over all
6M ranks, divided by the number of participants N, is the ranking score:
it lies in (0, 1] and lower is better.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .metrics import MetricRecord, _scores_in_bounds
from .volume import REGIONS, _freeze

@dataclass(frozen=True, eq=False)
class MetricTable:
    """Fully populated scores of N algorithms on M shared cases.

    ``dice`` and ``hd95`` are float arrays of shape (N, M, R) indexed by
    algorithm, case and region.  Every entry must be present: the ranking
    has no missing-data rule.
    """

    algorithms: tuple[str, ...]
    cases: tuple[str, ...]
    dice: np.ndarray
    hd95: np.ndarray
    regions: tuple[str, ...] = REGIONS

    def __post_init__(self) -> None:
        for what in ("algorithms", "cases", "regions"):
            ids = tuple(str(i) for i in getattr(self, what))
            if not ids:
                raise ValidationError(f"metric table needs at least one {what[:-1]}")
            object.__setattr__(self, what, ids)
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValidationError("algorithm ids must be unique")
        if len(set(self.cases)) != len(self.cases):
            raise ValidationError("case ids must be unique")
        shape = (len(self.algorithms), len(self.cases), len(self.regions))
        for name in ("dice", "hd95"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValidationError(
                    f"{name} array has shape {arr.shape}, expected "
                    f"(algorithms, cases, regions) = {shape}"
                )
            object.__setattr__(self, name, _freeze(arr))
        if not _scores_in_bounds(self.dice, self.hd95).all():
            raise ValidationError("metric table needs Dice in [0, 1] and a finite nonnegative HD95")

    @classmethod
    def from_records(
        cls,
        per_algorithm: Mapping[str, Mapping[str, Sequence[MetricRecord]]],
        regions: tuple[str, ...] = REGIONS,
    ) -> "MetricTable":
        """Assemble a table from per-algorithm, per-case metric records.

        Every algorithm must cover the identical set of case ids, and every
        case must carry exactly one record per region.  Cases are ordered
        by sorted id, algorithms keep their input order.
        """
        algorithms = tuple(per_algorithm)
        if not algorithms:
            raise ValidationError("metric table needs at least one algorithm")
        case_set = set(per_algorithm[algorithms[0]])
        for alg in algorithms[1:]:
            other = set(per_algorithm[alg])
            if other != case_set:
                missing = sorted(case_set ^ other)
                raise ValidationError(
                    f"algorithm {alg!r} does not cover the same cases as "
                    f"{algorithms[0]!r}; differing case ids: {missing[:5]}"
                )
        cases = tuple(sorted(case_set))
        shape = (len(algorithms), len(cases), len(regions))
        dice = np.empty(shape)
        hd95 = np.empty(shape)
        for i, alg in enumerate(algorithms):
            for j, case in enumerate(cases):
                by_region = {}
                for rec in per_algorithm[alg][case]:
                    if rec.region in by_region:
                        raise ValidationError(
                            f"algorithm {alg!r}, case {case!r}: duplicate "
                            f"record for region {rec.region}"
                        )
                    by_region[rec.region] = rec
                if set(by_region) != set(regions):
                    raise ValidationError(
                        f"algorithm {alg!r}, case {case!r}: expected one record "
                        f"per region {regions}, got {sorted(by_region)}"
                    )
                for k, region in enumerate(regions):
                    dice[i, j, k] = by_region[region].dice
                    hd95[i, j, k] = by_region[region].hd95
        return cls(algorithms, cases, dice, hd95, regions)


def rank_column(values, direction: str) -> np.ndarray:
    """Fractional ranks of one column, best value first.

    Args:
        values: finite values of all N algorithms on one column.
        direction: "higher_better" (Dice) or "lower_better" (HD95).

    Returns:
        Float array of ranks starting at 1; tied values share the mean of
        the positions they span, so the ranks always sum to N(N+1)/2.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("rank_column expects a nonempty 1-D column")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("rank_column received NaN or infinite values")
    if direction == "higher_better":
        key = -arr
    elif direction == "lower_better":
        key = arr
    else:
        raise ValidationError(f"direction must be 'higher_better' or 'lower_better', got {direction!r}")
    return _pairwise_wins(key[:, None]).sum(axis=0) + 0.5


def _pairwise_wins(keys: np.ndarray) -> np.ndarray:
    """Pairwise wins of the rows of an (N, C) key array, lower keys winning.

    ``W[r, i]`` counts the columns where row r's key is lower than row
    i's, plus half those where they tie (the diagonal is C/2).  Row i's
    rank sum is ``W[:, i].sum() + C/2``; without row r, minus ``W[r, i]``.
    These half-integer sums are exact, equal to re-ranking the pool bit
    for bit.  As ``W[r, i] + W[i, r] = C``, one comparison per pair gives
    W from the counts L of lower keys alone: ``W = (L - Lᵀ + C) / 2``.
    Built row by row, temporaries stay (N, C); L and W take 8·N² bytes
    each: 16 MB at N=1000, 8.7 MB at the sweep's N ≤ 2M+1 = 739, M=369.
    """
    lower = np.empty((len(keys), len(keys)))
    for r, row in enumerate(keys):
        lower[r] = np.count_nonzero(row < keys, axis=1)
    return (lower - lower.T + keys.shape[1]) / 2.0


@dataclass(frozen=True, eq=False)
class RankResult:
    """Mean ranks and normalized ranking scores of one algorithm pool."""

    algorithms: tuple[str, ...]
    mean_rank: np.ndarray
    score: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "mean_rank", _freeze(np.asarray(self.mean_rank, dtype=np.float64)))
        object.__setattr__(self, "score", _freeze(np.asarray(self.score, dtype=np.float64)))

    @property
    def ordering(self) -> tuple[str, ...]:
        """Algorithm ids sorted by score, best first; ties keep input order."""
        order = np.argsort(self.score, kind="stable")
        return tuple(self.algorithms[i] for i in order)

    def _index(self, algorithm: str) -> int:
        try:
            return self.algorithms.index(algorithm)
        except ValueError:
            raise ValidationError(f"unknown algorithm id {algorithm!r}")

    def mean_rank_of(self, algorithm: str) -> float:
        return float(self.mean_rank[self._index(algorithm)])

    def score_of(self, algorithm: str) -> float:
        return float(self.score[self._index(algorithm)])


def _rank_sums(table: MetricTable) -> tuple[np.ndarray, np.ndarray, int]:
    """A table's pairwise-wins matrix, rank sums and number of columns."""
    # Dice is negated so that a lower key is better in every column.
    keys = np.stack([-table.dice, table.hd95], axis=-1).reshape(len(table.algorithms), -1)
    wins = _pairwise_wins(keys)
    return wins, wins.sum(axis=0) + keys.shape[1] / 2.0, keys.shape[1]


def _result(algorithms: tuple[str, ...], rank_sums: np.ndarray, n_cols: int) -> RankResult:
    mean_rank = rank_sums / n_cols
    return RankResult(algorithms, mean_rank, mean_rank / len(algorithms))


def brats_ranking(table: MetricTable) -> RankResult:
    """Rank a pool of algorithms case by case, then aggregate.

    For every case and region the pool is ranked twice, on Dice
    (higher better) and on HD95 (lower better).  Each algorithm's ranks
    are averaged over all columns and normalized by the pool size.
    """
    return _result(table.algorithms, *_rank_sums(table)[1:])


@dataclass(frozen=True)
class RankFlip:
    """One pair of algorithms whose relative order changed in a jackknife pool.

    ``full_relation`` and ``jackknife_relation`` describe ``algorithm_a``
    relative to ``algorithm_b`` ("better", "tied" or "worse") in the full
    pool and in the pool with ``removed`` left out.
    """

    removed: str
    algorithm_a: str
    algorithm_b: str
    full_relation: str
    jackknife_relation: str


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Jackknife (leave-one-out) analysis of a ranking's stability."""

    full: RankResult
    leave_one_out: Mapping[str, RankResult]
    flips: tuple[RankFlip, ...]
    rank_ranges: Mapping[str, tuple[float, float]]


#: Indexed by 1 + sign(a - b) for scores a and b.
_RELATIONS = np.array(["better", "tied", "worse"], dtype=object)


def jackknife_stability(table: MetricTable) -> StabilityReport:
    """Rank the pool with each algorithm left out in turn.

    The pool is ranked once: a leave-one-out pool's rank sums are the full
    ones minus the removed algorithm's row of the pairwise-wins matrix.
    The pools' scores are then compared all at once, in chunks of removed
    algorithms whose two (chunk, N, N) bool arrays take about 1 MB.

    Reports every pair whose relative order differs from the full-pool
    ordering in some leave-one-out pool, plus the range of positions each
    algorithm occupies across the pools containing it.  Positions are
    fractional ranks of the scores, sharing ties like the ranking itself.

    Requires at least three algorithms; with fewer, no pair remains to
    compare once one algorithm is removed.
    """
    ids = table.algorithms
    n_alg = len(ids)
    if n_alg < 3:
        raise ValidationError(
            "jackknife stability needs at least 3 algorithms; removing one "
            f"of {n_alg} leaves no pair to compare"
        )
    wins, rank_sums, n_cols = _rank_sums(table)
    full = _result(ids, rank_sums, n_cols)
    # Row r is the pool without algorithm r; its diagonal entry is in no pool.
    mean_rank = np.subtract(rank_sums, wins, out=wins)
    mean_rank /= n_cols
    score = mean_rank / (n_alg - 1)
    keep = ~np.eye(n_alg, dtype=bool)
    leave_one_out = {
        removed: RankResult(ids[:r] + ids[r + 1 :], mean_rank[r, keep[r]], score[r, keep[r]])
        for r, removed in enumerate(ids)
    }
    # +inf puts the removed algorithm behind its pool: it adds to no count.
    np.fill_diagonal(score, np.inf)
    full_worse = full.score[:, None] > full.score
    full_tied = full.score[:, None] == full.score
    upper = np.triu(keep)
    names = np.array(ids, dtype=object)
    positions = mean_rank  # the pools hold copies: W's buffer is free again
    flips: list[RankFlip] = []
    step = max(1, 2**19 // n_alg**2)
    for start in range(0, n_alg, step):
        pools = score[start : start + step]
        worse = pools[:, :, None] > pools[:, None, :]
        tied = pools[:, :, None] == pools[:, None, :]
        positions[start : start + step] = (
            np.count_nonzero(worse, axis=2) + np.count_nonzero(tied, axis=2) / 2.0 + 0.5
        )
        # A pair's relation changed where its worse bit or its tied bit did.
        changed = np.not_equal(worse, full_worse, out=worse)
        changed |= np.not_equal(tied, full_tied, out=tied)
        changed &= upper
        inside = np.arange(len(pools))
        changed[inside, start + inside] = changed[inside, :, start + inside] = False
        # C order is (removed, a, b): the order of the pools and of their pairs.
        r, a, b = np.unravel_index(np.flatnonzero(changed), changed.shape)
        before = _RELATIONS[np.sign(full.score[a] - full.score[b]).astype(np.intp) + 1]
        after = _RELATIONS[np.sign(pools[r, a] - pools[r, b]).astype(np.intp) + 1]
        flips += map(RankFlip, names[start + r], names[a], names[b], before, after)
    np.fill_diagonal(positions, np.nan)
    lows, highs = np.nanmin(positions, axis=0), np.nanmax(positions, axis=0)
    ranges = {alg: (float(lo), float(hi)) for alg, lo, hi in zip(ids, lows, highs)}
    return StabilityReport(full, leave_one_out, tuple(flips), ranges)
