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

import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import GuardError, InfeasibleError, ShapeError, ValidationError
from .graphs import DesignResult, ProblemInstance, StructuredMatrix, check_design_shape, real_array
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


# Past this m n the rank test refuses to run: a trial's basis would take
# over 128 MiB, and one trial took 20 s at dim 4000, m = 10 (2-core box,
# one BLAS thread); at m = 2 a dim-2000 trial already takes 10-12 s.
VERIFY_MAX_DIM = 4096
# The trials of one call run in stacks whose bases and generators take at
# most this many bytes together; a trial whose basis alone is larger runs by
# itself. Larger stacks fall out of cache: at 2 MiB, dim-300 trials paired
# up ran slower.
_STACK_BYTES = 1 << 20
# What one trial's generator holds (about 0.94 KB by tracemalloc); it counts
# against the stack budget, so stacks of tiny trials stay within it too.
_RNG_BYTES = 1 << 10


def _check_rank_test(dim: int, tolerance: float) -> None:
    """The entry rule of every rank test, checked before anything is drawn:
    a tolerance in (0, 1), and a dimension whose basis, 8 dim^2 bytes and
    the largest array a trial holds, is within ``VERIFY_MAX_DIM``."""
    # at or below 0 rounding noise counts as rank, so deficits pass; at or
    # above 1, or NaN, no direction counts, so every trial fails
    if not 0 < tolerance < 1:
        raise ValidationError(f"tolerance must be in (0, 1), got {tolerance}")
    if dim > VERIFY_MAX_DIM:
        raise GuardError(f"numeric verification guard: m*n={dim} exceeds {VERIFY_MAX_DIM}")


def _rowspace_rank(a: np.ndarray, wt: np.ndarray, c: np.ndarray, tolerance: float) -> np.ndarray:
    """Dimension of the smallest (W kron A)-invariant row space containing
    c, for each trial of a stack.

    ``a`` is a (trials, n, n) stack of system matrices, ``wt`` the matching
    (trials, m, m) stack of transposed consensus weights and ``c`` a
    (trials, rows, m n) stack. Rows go to rows @ (W kron A) without the
    product being formed: one product with A per trial for all its rows at
    once, then W.T on each row's (m, n) block. Grows one orthonormal basis
    per trial of span(c, c (W kron A), ...), projecting each new block
    against it twice; new directions count only when their singular value
    exceeds ``tolerance`` times the largest singular value the trial has
    seen, so the test is scale-free. Trials that find the same number of
    new directions go on as one cohort; a trial that finds another number
    goes on in a cohort of its own. The rank never exceeds m n: the
    complement of a rank-r basis holds at most m n - r directions.
    """
    trials, _, dim = c.shape
    n, m = a.shape[1], wt.shape[1]
    ranks = np.zeros(trials, dtype=np.intp)
    if dim == 0 or c.shape[1] == 0:
        return ranks
    # a cohort: its trials' places in the stack, matrices and weights, bases
    # (rows [:rank] hold them; rows never written take no memory), largest
    # singular values, shared rank and frontier
    cohorts = [(np.arange(trials), a, wt, np.empty((trials, dim, dim)), np.zeros(trials), 0, c)]
    while cohorts:
        ids, a, wt, basis, reference, rank, frontier = cohorts.pop()
        b = basis[:, :rank]
        bt = b.transpose(0, 2, 1)
        residual = np.subtract(frontier, (frontier @ bt) @ b)  # frontier may be the caller's c
        residual -= (residual @ bt) @ b  # twice is enough
        # The tall transpose has the same singular values, and its left
        # vectors are these right ones; LAPACK factors a tall stack 1.5-2.3x
        # faster than a wide one.
        u, sing, _ = np.linalg.svd(residual.transpose(0, 2, 1), full_matrices=False)
        vt = u.transpose(0, 2, 1)
        np.maximum(reference, sing[:, 0], out=reference)
        # singular values fall, so each trial's fresh rows lead its vt
        fresh = (sing > tolerance * reference[:, None]).sum(axis=1).tolist()
        counts = sorted(set(fresh))
        parts = []
        for k in counts:
            group = slice(None) if len(counts) == 1 else np.flatnonzero(np.equal(fresh, k))
            if k == 0 or rank + k >= dim:  # nothing new, or a full basis: no further step
                ranks[ids[group]] = min(rank + k, dim)
            else:
                parts.append((len(ids[group]), k, group))
        # The part with the most trials keeps the stack's basis. The others
        # copy their rows out first; then its trials' rows move down in order,
        # so it holds the same strides and values as a copy would.
        parts.sort(key=lambda part: part[0])
        for p, (t, k, group) in enumerate(parts):
            part_ids, part_a, part_wt, part_ref = ids[group], a[group], wt[group], reference[group]
            if p < len(parts) - 1:
                part_basis = np.empty((t, dim, dim))
                part_basis[:, :rank] = basis[group, :rank]
            else:
                if len(counts) > 1:
                    for to, source in enumerate(group.tolist()):
                        basis[to, :rank] = basis[source, :rank]
                part_basis = basis[:t]
            part_basis[:, rank:rank + k] = vt[group, :k]
            rows = part_basis[:, rank:rank + k]
            x = (rows.reshape(t, k * m, n) @ part_a).reshape(t, k, m, n)
            frontier = (part_wt[:, None] @ x).reshape(t, k, dim)
            cohorts.append((part_ids, part_a, part_wt, part_basis, part_ref, rank + k, frontier))
    return ranks


def kalman_rank_observable(
    a: np.ndarray, c: np.ndarray, tolerance: float = 1e-8
) -> tuple[bool, int]:
    """Observability of (a, c) by iterative row-space expansion.

    Grows an orthonormal basis of the span of c, c a, c a^2, ... and stops
    when a sweep adds nothing; the pair is observable iff the basis reaches
    full dimension. Never forms the stacked observability matrix, whose
    high powers would dominate the conditioning. Both matrices must hold
    finite real numbers.
    """
    a = real_array(a, "state matrix", ShapeError)
    c = np.atleast_2d(real_array(c, "output map", ShapeError))
    n = a.shape[0] if a.ndim else 0
    if a.shape != (n, n):
        raise ShapeError(f"state matrix must be square, got {a.shape}")
    if c.shape[1] != n:
        raise ShapeError(f"output map has {c.shape[1]} columns, expected {n}")
    if not (np.isfinite(a).all() and np.isfinite(c).all()):
        raise ShapeError("state matrix and output map must be finite")
    _check_rank_test(n, tolerance)
    rank = int(_rowspace_rank(a[None], np.ones((1, 1, 1)), c[None], tolerance)[0])  # W = [[1]]
    return rank == n, rank


def _trial_ranks(
    instance: ProblemInstance,
    h_pattern: StructuredMatrix,
    w_pattern: StructuredMatrix,
    rngs: Iterable[np.random.Generator],
    tolerance: float,
) -> np.ndarray:
    """The networked observability rank of one random realization per
    stream, taken from ``rngs`` one stack at a time.

    Each stream draws, in this order: the system matrix, re-drawn up to
    seven times while numerically singular (a singular draw is non-generic
    and would fail the trial for the wrong reason), the measurement values
    and the consensus weights. The trials run through the stacked rank test
    in stacks of at most ``_STACK_BYTES`` of basis and generators; each
    stack's generators are taken and drawn when it runs, so one stack bounds
    the memory when ``rngs`` makes them lazily.
    """
    n, m = instance.n, instance.m
    dim = m * n
    sys_index = _pattern_index(instance.system_pattern)
    h_rows, h_cols = _pattern_index(h_pattern)
    w_index = _pattern_index(w_pattern)
    per_stack = max(1, _STACK_BYTES // (8 * dim * dim + _RNG_BYTES))
    rngs = iter(rngs)
    ranks = []
    while stack := list(islice(rngs, per_stack)):
        a = np.stack([_fill((n, n), sys_index, rng) for rng in stack])
        for t in np.flatnonzero(np.linalg.matrix_rank(a) != n).tolist():
            for _ in range(7):
                a[t] = _fill((n, n), sys_index, stack[t])
                if np.linalg.matrix_rank(a[t]) == n:
                    break
        # The block-diagonal Gram stack has one independent row per sensor:
        # sensor i contributes h_i^T h_i, a single nonzero row, so the rank
        # test starts from m rows. h is squared by the scalar power the
        # trial always used, which can round unlike numpy's array square.
        c = np.zeros((len(stack), m, dim))
        c[:, h_rows, h_rows * n + h_cols] = [
            [v ** 2 for v in rng.uniform(0.5, 1.5, size=len(h_rows)).tolist()] for rng in stack
        ]
        wt = np.stack([_stochastic(w_index, m, rng) for rng in stack]).transpose(0, 2, 1)
        ranks.append(_rowspace_rank(a, wt, c, tolerance))
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
    no structural screening, so tests can probe bad designs directly; a
    tolerance outside (0, 1) and an m n over ``VERIFY_MAX_DIM`` are refused.
    """
    check_design_shape(h_pattern, w_pattern, instance.m, instance.n)
    _check_rank_test(instance.m * instance.n, tolerance)
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
    values from a seed-derived stream and rank-tests the networked pair, in
    stacks drawn as they run; an m n over ``VERIFY_MAX_DIM`` raises
    GuardError first. A sound design passes every trial up to numerical
    accident; the report records the rank deficit of each failing trial.
    ``trials`` must be an integer, numpy integers included and bools
    refused, and so must ``seed``; anything else is a ValidationError.
    """
    if not isinstance(trials, numbers.Integral) or type(trials) is bool:
        raise ValidationError(f"trials must be an integer, got {trials!r}")
    trials = int(trials)
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    _check_rank_test(instance.m * instance.n, tolerance)
    h = design.measurement_pattern
    w = design.network_pattern
    if not check_distributed_observability_structural(instance, h, w):
        raise InfeasibleError(
            "design fails the structural gate (parent-component coverage,"
            " sensor-component bijection, or link strong connectivity);"
            " numeric trials refused"
        )
    rngs = (rng_for(seed, "verify", trial) for trial in range(trials))
    deficits = instance.m * instance.n - _trial_ranks(instance, h, w, rngs, tolerance)
    return VerificationReport(
        trials=trials,
        passes=int(np.count_nonzero(deficits == 0)),
        rank_deficits=tuple(deficits[deficits > 0].tolist()),
        tolerance=tolerance,
    )
