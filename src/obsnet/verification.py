"""Numerical observability checks for realized designs.

A design is structural; this module draws random numeric realizations and
tests observability of the networked filter: the joint transition matrix is
the Kronecker product of the consensus weights with the system matrix, and
the joint output map is the block-diagonal stack of each sensor's
measurement Gram block. Neither is formed: the rank test applies the
product to row stacks and projects each new block twice, for a whole stack
of trials at once. Structural claims should hold for almost every
realization, so repeated random trials either all pass or expose a
non-generic (or simply wrong) design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ShapeError, ValidationError
from .graphs import DesignResult, ProblemInstance, StructuredMatrix, check_design_shape
from .rng import rng_for
from .structural import check_distributed_observability_structural

__all__ = [
    "VerificationReport",
    "realize_numeric",
    "make_row_stochastic",
    "kalman_rank_observable",
    "observability_trial",
    "verify_design_numeric",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of repeated random-realization observability trials."""

    trials: int
    passes: int
    rank_deficits: tuple[int, ...]
    tolerance: float

    @property
    def all_passed(self) -> bool:
        return self.passes == self.trials

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "passes": self.passes,
            "rank_deficits": list(self.rank_deficits),
            "tolerance": self.tolerance,
        }


def _check_tolerance(tolerance: float) -> None:
    # at or below 0 rounding noise counts as rank, so deficits pass; at or
    # above 1, or NaN, no direction counts, so every trial fails
    if not 0 < tolerance < 1:
        raise ValidationError(f"tolerance must be in (0, 1), got {tolerance}")


def _pattern_index(pattern: StructuredMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays of a pattern's nonzeros, in sorted order."""
    pairs = np.array(pattern.sorted_pairs(), dtype=np.intp).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _fill(shape: tuple[int, int], index, rng: np.random.Generator) -> np.ndarray:
    out = np.zeros(shape)
    out[index] = rng.uniform(0.5, 1.5, size=len(index[0]))
    return out


def realize_numeric(pattern: StructuredMatrix, rng: np.random.Generator) -> np.ndarray:
    """Fill the nonzeros of a pattern with draws from [0.5, 1.5), one draw
    per nonzero in sorted (row, col) order."""
    return _fill((pattern.rows, pattern.cols), _pattern_index(pattern), rng)


def _stochastic(index, m: int, rng: np.random.Generator) -> np.ndarray:
    w = _fill((m, m), index, rng)
    w[np.arange(m), np.arange(m)] = rng.uniform(0.5, 1.5, size=m)
    return w / w.sum(axis=1, keepdims=True)


def make_row_stochastic(
    pattern: StructuredMatrix, rng: np.random.Generator
) -> np.ndarray:
    """Random row-stochastic consensus weights over a link pattern.

    Entry (i, j) weights the prediction sensor i receives from sensor j.
    Every sensor keeps its own prediction, so the diagonal is always filled
    before normalizing, whether or not the pattern lists it.
    """
    if pattern.rows != pattern.cols:
        raise ShapeError(
            f"link pattern must be square, got {pattern.rows}x{pattern.cols}"
        )
    return _stochastic(_pattern_index(pattern), pattern.rows, rng)


def _rowspace_rank(step, c: np.ndarray, tolerance: float) -> np.ndarray:
    """Dimension of the smallest step-invariant row space containing c, for
    each trial of a stack.

    ``c`` is a (trials, rows, n) stack, and ``step(rows, sel)`` maps a
    stack of row blocks, one per trial that ``sel`` picks out of the stack,
    to those rows applied to each trial's transition map. Grows one
    orthonormal basis per trial of span(c, step(c), step^2(c), ...),
    projecting each new block against it twice; new directions count only
    when their singular value exceeds ``tolerance`` times the largest
    singular value the trial has seen, so the test is scale-free. Trials
    that find the same number of new directions go on as one cohort; a
    trial that finds another number goes on in a cohort of its own. The
    rank never exceeds n: the complement of a rank-r basis holds at most
    n - r directions.
    """
    _check_tolerance(tolerance)
    trials, _, n = c.shape
    ranks = np.zeros(trials, dtype=np.intp)
    if n == 0 or c.shape[1] == 0:
        return ranks
    # a cohort: its trials' places in the stack, their bases (rows [:rank]
    # hold them; rows never written take no memory), their largest singular
    # values, the rank they share and their frontier
    cohorts = [(np.arange(trials), np.empty((trials, n, n)), np.zeros(trials), 0, c)]
    while cohorts:
        ids, basis, reference, rank, frontier = cohorts.pop()
        b = basis[:, :rank]
        bt = b.transpose(0, 2, 1)
        residual = np.subtract(frontier, (frontier @ bt) @ b)  # frontier may be the caller's c
        residual -= (residual @ bt) @ b  # twice is enough
        _, sing, vt = np.linalg.svd(residual, full_matrices=False)
        np.maximum(reference, sing[:, 0], out=reference)
        # singular values fall, so each trial's fresh rows lead its vt
        fresh = (sing > tolerance * reference[:, None]).sum(axis=1).tolist()
        counts = sorted(set(fresh))
        for k in counts:
            group = slice(None) if len(counts) == 1 else np.flatnonzero(np.equal(fresh, k))
            if k == 0 or rank + k >= n:  # nothing new, or a full basis: no further step
                ranks[ids[group]] = min(rank + k, n)
                continue
            part_ids, part_basis, part_reference = ids, basis, reference
            if len(counts) > 1:  # a cohort of its own, with a copy of its rows
                part_ids, part_reference = ids[group], reference[group]
                part_basis = np.empty((len(part_ids), n, n))
                part_basis[:, :rank] = basis[group, :rank]
            part_basis[:, rank:rank + k] = vt[group, :k]
            sel = part_ids if len(part_ids) < trials else slice(None)
            frontier = step(part_basis[:, rank:rank + k], sel)
            cohorts.append((part_ids, part_basis, part_reference, rank + k, frontier))
    return ranks


def kalman_rank_observable(
    a: np.ndarray, c: np.ndarray, tolerance: float = 1e-8
) -> tuple[bool, int]:
    """Observability of (a, c) by iterative row-space expansion.

    Grows an orthonormal basis of the span of c, c a, c a^2, ... and stops
    when a sweep adds nothing; the pair is observable iff the basis reaches
    full dimension. Never forms the stacked observability matrix, whose
    high powers would dominate the conditioning.
    """
    a = np.asarray(a, dtype=float)
    c = np.atleast_2d(np.asarray(c, dtype=float))
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeError(f"state matrix must be square, got {a.shape}")
    if c.shape[1] != n:
        raise ShapeError(f"output map has {c.shape[1]} columns, expected {n}")
    rank = int(_rowspace_rank(lambda rows, sel: rows @ a, c[None], tolerance)[0])
    return rank == n, rank


# The trials of one call run in stacks whose bases take at most this many
# bytes together; a trial whose basis alone is larger runs by itself. Larger
# stacks fall out of cache: at 2 MiB, dim-300 trials paired up ran slower.
_STACK_BYTES = 1 << 20


def _joint_step(a: np.ndarray, wt: np.ndarray):
    """The step of a stack of trials with system matrices ``a`` and
    transposed consensus weights ``wt``: rows @ (W kron A) for each trial,
    without materializing the product. One product with A per trial for
    all its rows at once, then W.T on each row's (m, n) block."""
    n, m = a.shape[1], wt.shape[1]

    def step(rows: np.ndarray, sel) -> np.ndarray:
        t, k = rows.shape[:2]
        x = (rows.reshape(t, k * m, n) @ a[sel]).reshape(t, k, m, n)
        return (wt[sel][:, None] @ x).reshape(t, k, m * n)

    return step


def _trial_ranks(
    instance: ProblemInstance,
    h_pattern: StructuredMatrix,
    w_pattern: StructuredMatrix,
    rngs: list[np.random.Generator],
    tolerance: float,
) -> np.ndarray:
    """The networked observability rank of one random realization per
    stream.

    Each stream draws, in this order: the system matrix, re-drawn up to
    seven times while numerically singular (a singular draw is non-generic
    and would fail the trial for the wrong reason), the measurement values
    and the consensus weights. Every realization is drawn first; the trials
    then run through the stacked rank test in stacks of at most
    ``_STACK_BYTES`` of basis.
    """
    n, m = instance.n, instance.m
    dim = m * n
    sys_index = _pattern_index(instance.system_pattern)
    h_rows, h_cols = _pattern_index(h_pattern)
    w_index = _pattern_index(w_pattern)
    a = np.stack([_fill((n, n), sys_index, rng) for rng in rngs])
    for t in np.flatnonzero(np.linalg.matrix_rank(a) != n).tolist():
        for _ in range(7):
            a[t] = _fill((n, n), sys_index, rngs[t])
            if np.linalg.matrix_rank(a[t]) == n:
                break
    # squared by the scalar power the trial always used, which can round
    # differently from numpy's array square
    h_sq = np.array(
        [[v ** 2 for v in rng.uniform(0.5, 1.5, size=len(h_rows)).tolist()] for rng in rngs]
    ).reshape(len(rngs), len(h_rows))
    wt = np.stack([_stochastic(w_index, m, rng) for rng in rngs]).transpose(0, 2, 1)
    per_stack = max(1, _STACK_BYTES // (8 * dim * dim))
    ranks = []
    for lo in range(0, len(rngs), per_stack):
        stack = slice(lo, lo + per_stack)
        # The block-diagonal Gram stack has one independent row per
        # measuring sensor: sensor i contributes h_i^T h_i, a single nonzero
        # row. Feeding that row basis keeps the rank test at m starting rows.
        c = np.zeros((len(a[stack]), m, dim))
        c[:, h_rows, h_rows * n + h_cols] = h_sq[stack]
        ranks.append(_rowspace_rank(_joint_step(a[stack], wt[stack]), c, tolerance))
    return np.concatenate(ranks)


def observability_trial(
    instance: ProblemInstance,
    h_pattern: StructuredMatrix,
    w_pattern: StructuredMatrix,
    rng: np.random.Generator,
    tolerance: float = 1e-8,
) -> tuple[bool, int]:
    """One random realization of the networked observability test.

    Draws the system matrix (re-drawn if numerically singular), measurement
    values and consensus weights, then rank-tests the pair of the joint
    transition map (Kronecker product of weights and system) with the
    block-diagonal measurement Grams. Returns (observable, rank). Performs
    no structural screening, which lets tests probe structurally bad
    designs directly; a tolerance outside (0, 1) is still refused.
    """
    check_design_shape(h_pattern, w_pattern, instance.m, instance.n)
    rank = int(_trial_ranks(instance, h_pattern, w_pattern, [rng], tolerance)[0])
    return rank == instance.m * instance.n, rank


def verify_design_numeric(
    instance: ProblemInstance,
    design: DesignResult,
    trials: int = 20,
    seed: int = 0,
    tolerance: float = 1e-8,
) -> VerificationReport:
    """Random-realization observability trials for a design.

    The design must first pass the structural gate; a design that fails it
    is refused rather than trialed, since the numeric test would only
    confirm the structural verdict. Each trial then draws fresh numeric
    values from a seed-derived stream and rank-tests the networked pair;
    the trials of one call run as stacks through one rank test. A sound
    design passes every trial up to numerical accident; the report records
    the rank deficit of each failing trial.
    """
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    _check_tolerance(tolerance)
    h = design.measurement_pattern
    w = design.network_pattern
    if not check_distributed_observability_structural(instance, h, w):
        raise InfeasibleError(
            "design fails the structural gate (parent-component coverage,"
            " sensor-component bijection, or link strong connectivity);"
            " numeric trials refused"
        )
    rngs = [rng_for(seed, "verify", trial) for trial in range(trials)]
    deficits = instance.m * instance.n - _trial_ranks(instance, h, w, rngs, tolerance)
    return VerificationReport(
        trials=trials,
        passes=int(np.count_nonzero(deficits == 0)),
        rank_deficits=tuple(deficits[deficits > 0].tolist()),
        tolerance=tolerance,
    )
