"""Numerical observability checks for realized designs.

A design is structural; this module draws random numeric realizations and
tests observability of the networked filter: the joint transition matrix is
the Kronecker product of the consensus weights with the system matrix, and
the joint output map is the block-diagonal stack of each sensor's
measurement Gram block. Neither is formed: the rank test applies the
product to row stacks and projects each new block twice. Structural claims
should hold for almost every realization, so repeated random trials either
all pass or expose a non-generic (or simply wrong) design.
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


def realize_numeric(pattern: StructuredMatrix, rng: np.random.Generator) -> np.ndarray:
    """Fill the nonzeros of a pattern with draws from [0.5, 1.5), one draw
    per nonzero in sorted (row, col) order."""
    out = np.zeros((pattern.rows, pattern.cols))
    pairs = np.array(pattern.sorted_pairs(), dtype=np.intp).reshape(-1, 2)
    out[pairs[:, 0], pairs[:, 1]] = rng.uniform(0.5, 1.5, size=len(pairs))
    return out


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
    m = pattern.rows
    w = realize_numeric(pattern, rng)
    w[np.arange(m), np.arange(m)] = rng.uniform(0.5, 1.5, size=m)
    return w / w.sum(axis=1, keepdims=True)


def _rowspace_rank(step, c: np.ndarray, n: int, tolerance: float) -> int:
    """Dimension of the smallest step-invariant row space containing c.

    ``step`` maps a stack of row vectors r to r applied to the transition
    map. Grows an orthonormal basis of span(c, step(c), step^2(c), ...),
    projecting each new block against it twice; new directions count only
    when their singular value exceeds ``tolerance`` times the largest
    singular value seen, so the test is scale-free.
    """
    _check_tolerance(tolerance)
    basis = np.empty((n, n))  # rows [:rank] hold it; rows never written take no memory
    rank = 0
    frontier = c
    reference = 0.0
    while frontier.shape[0] and rank < n:
        b = basis[:rank]
        residual = frontier - (frontier @ b.T) @ b
        residual = residual - (residual @ b.T) @ b  # twice is enough
        _, sing, vt = np.linalg.svd(residual, full_matrices=False)
        reference = max(reference, float(sing[0]))
        fresh = vt[sing > tolerance * reference]
        k = fresh.shape[0]
        if k == 0 or rank + k >= n:  # nothing new, or a full basis: no further step
            return rank + k
        basis[rank:rank + k] = fresh
        rank += k
        frontier = step(fresh)
    return rank


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
    rank = _rowspace_rank(lambda rows: rows @ a, c, n, tolerance)
    return rank == n, rank


def _realize_system(
    pattern: StructuredMatrix, rng: np.random.Generator, n: int
) -> np.ndarray:
    # A singular draw is non-generic and would fail the trial for the wrong
    # reason; re-draw a few times before giving up and using it anyway.
    for _ in range(8):
        a = realize_numeric(pattern, rng)
        if np.linalg.matrix_rank(a) == n:
            return a
    return a


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
    n, m = instance.n, instance.m
    check_design_shape(h_pattern, w_pattern, m, n)
    a_sys = _realize_system(instance.system_pattern, rng, n)
    h_num = realize_numeric(h_pattern, rng)
    w_num = make_row_stochastic(w_pattern, rng)
    # The block-diagonal Gram stack has one independent row per measuring
    # sensor: sensor i contributes h_i^T h_i, a single nonzero row. Feeding
    # that row basis keeps the rank test at m starting rows.
    joint_c = np.zeros((m, m * n))
    for (i, state) in h_pattern.sorted_pairs():
        joint_c[i, i * n + state] = h_num[i, state] ** 2
    dim = m * n

    def step(rows: np.ndarray) -> np.ndarray:
        # rows @ (W kron A) without materializing the dim x dim product
        return (w_num.T @ (rows.reshape(-1, m, n) @ a_sys)).reshape(-1, dim)

    rank = _rowspace_rank(step, joint_c, dim, tolerance)
    return rank == dim, rank


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
    values from a seed-derived stream and rank-tests the networked pair.
    A sound design passes every trial up to numerical accident; the report
    records the rank deficit of each failing trial.
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
    passes = 0
    deficits: list[int] = []
    for trial in range(trials):
        rng = rng_for(seed, "verify", trial)
        ok, rank = observability_trial(instance, h, w, rng, tolerance)
        if ok:
            passes += 1
        else:
            deficits.append(instance.m * instance.n - rank)
    return VerificationReport(
        trials=trials,
        passes=passes,
        rank_deficits=tuple(deficits),
        tolerance=tolerance,
    )
