"""Integer payoff selection for large games from estimated attributions.

Works from a Shapley estimate and a synergy matrix alone, so it scales to
games that exist only behind an oracle.  Units are granted one at a time
to the player with the highest working estimate; when a player is granted
more than their remaining estimate, the deficit is charged to the others,
an ``alpha`` fraction proportionally to synergy and the rest uniformly.

No quota or core guarantee is made here; the loop merely mimics the exact
indivisible solver.  Grants keep going to the argmax even if the working
estimates run negative, which is the documented behavior when the target
total exceeds what the attributions cover.
"""

from __future__ import annotations

from typing import Sequence

from .errors import AlphaOutOfRange, DegenerateTotal, InvalidRange, LengthMismatch
from .sampling import SamplerConfig, ValueOracle, _shapley_and_matrix

DEFAULT_ALPHA = 0.5


def normalize_attributions(
    phi: Sequence[float],
    matrix: Sequence[Sequence[float]],
    target_total: int,
) -> tuple[list[float], list[list[float]]]:
    """Shift attributions to be nonnegative and scale them to a target sum.

    The shift that removes negative values is also added to the matrix
    diagonal, and the scale multiplies every matrix entry, so the matrix
    stays consistent with the shifted game.  A final corrective
    subtraction on the largest entry absorbs the float residue so the
    returned values sum to the target exactly.
    """
    n = len(phi)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise LengthMismatch(f"matrix shape does not match {n} attributions")
    if target_total <= 0:
        raise InvalidRange(f"target total must be positive, got {target_total}")
    shift = max(0.0, -min(phi)) if n else 0.0
    shifted = [p + shift for p in phi]
    mat = [list(row) for row in matrix]
    for i in range(n):
        mat[i][i] += shift
    mass = sum(shifted)
    if mass == 0.0:
        raise DegenerateTotal("all shifted attributions are zero")
    scale = target_total / mass
    out = [p * scale for p in shifted]
    mat = [[x * scale for x in row] for row in mat]
    top = max(range(n), key=lambda i: out[i])
    out[top] -= sum(out) - target_total
    return out, mat


def _steps(phi: list[float], matrix: Sequence[Sequence[float]], total: int, alpha: float):
    """Grant loop; yields (picked player, working estimates after the step)."""
    n = len(phi)
    for _ in range(total):
        pick = max(range(n), key=lambda j: phi[j])
        if phi[pick] > 1.0:
            phi[pick] -= 1.0
        else:
            deficit = 1.0 - phi[pick]
            row = matrix[pick]
            denom = sum(row[k] for k in range(n) if k != pick)
            uniform = (1.0 - alpha) / (n - 1) if n > 1 else 0.0
            for j in range(n):
                if j == pick:
                    continue
                if denom > 0.0:
                    weight = alpha * row[j] / denom + uniform
                else:
                    # synergy row is degenerate; fall back to the uniform share
                    weight = 1.0 / (n - 1)
                phi[j] -= deficit * weight
            phi[pick] = 0.0
        yield pick, tuple(phi)


def isv_large(
    phi: Sequence[float],
    matrix: Sequence[Sequence[float]],
    total: int,
    alpha: float = DEFAULT_ALPHA,
) -> list[int]:
    """Grant ``total`` units by repeatedly picking the highest estimate.

    Argmax ties break toward the lower player index.  Working estimates
    are never clamped; they may go negative and keep competing, which
    preserves the total-deficit bookkeeping.
    """
    n = len(phi)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise LengthMismatch(f"matrix shape does not match {n} attributions")
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha must be in [0, 1], got {alpha}")
    if total < 0 or int(total) != total:
        raise InvalidRange(f"total must be a nonnegative integer, got {total}")
    grants = [0] * n
    for pick, _ in _steps(list(phi), matrix, int(total), alpha):
        grants[pick] += 1
    return grants


def select_top_k(
    oracle: ValueOracle,
    k: int,
    cfg: SamplerConfig = SamplerConfig(),
    alpha: float = DEFAULT_ALPHA,
) -> list[int]:
    """Pick ``k`` units worth of players from a black-box game.

    Pipeline: estimate the Shapley vector and the synergy matrix in one
    pass over the sampled permutations, shift and scale them so the
    estimates sum to ``k``, then run the grant loop.
    The result is a grant-count vector; with well-spread attributions it
    is a 0/1 selection mask, but multiple grants to one player are
    possible and returned as-is.
    """
    if k < 1:
        raise InvalidRange(f"selection size must be >= 1, got {k}")
    phi, matrix = _shapley_and_matrix(oracle, cfg)
    phi, matrix = normalize_attributions(phi, matrix, k)
    return isv_large(phi, matrix, k, alpha)
