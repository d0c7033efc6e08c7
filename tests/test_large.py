import math
import random

import pytest

from indivisible import (
    SamplerConfig,
    TableOracle,
    isv_large,
    normalize_attributions,
    select_top_k,
    shapley_matrix_exact,
    unanimity_game,
)
from indivisible.errors import AlphaOutOfRange, DegenerateTotal, InvalidRange, LengthMismatch

from oracles import random_positive_int_game
from test_sampling import additive_oracle


def zeros(n):
    return [[0.0] * n for _ in range(n)]


class TestNormalize:
    def test_shift_and_scale(self):
        phi, mat = normalize_attributions([-0.2, 0.7], zeros(2), 1)
        assert phi == [0.0, 1.0]
        assert mat[0][0] == pytest.approx(0.2 * (1 / 0.9))
        assert mat[1][1] == pytest.approx(0.2 * (1 / 0.9))

    def test_already_normalized(self):
        phi, mat = normalize_attributions([1.0, 1.0], zeros(2), 2)
        assert phi == [1.0, 1.0]
        assert mat == zeros(2)

    def test_degenerate(self):
        with pytest.raises(DegenerateTotal):
            normalize_attributions([0.0, 0.0], zeros(2), 1)

    def test_sum_hits_target_exactly(self):
        rng = random.Random(301)
        for _ in range(20):
            n = rng.randint(1, 8)
            phi = [rng.uniform(-1, 2) for _ in range(n)]
            mat = [[rng.uniform(-0.5, 0.5) for _ in range(n)] for _ in range(n)]
            if max(phi) <= 0:
                continue
            out, _ = normalize_attributions(phi, mat, 5)
            assert abs(sum(out) - 5.0) <= 1e-12

    def test_matrix_shape_checked(self):
        with pytest.raises(LengthMismatch):
            normalize_attributions([1.0], zeros(2), 1)


class TestIsvLarge:
    def test_mixed_floors_then_uniform(self):
        assert isv_large([2.3, 0.4, 0.3], zeros(3), 3, alpha=0.0) == [2, 1, 0]

    def test_integer_attributions_decrement_only(self):
        for alpha in (0.0, 0.5, 1.0):
            assert isv_large([3.0, 0.0, 0.0], zeros(3), 3, alpha=alpha) == [3, 0, 0]

    def test_tie_breaks_to_lower_index(self):
        synergy = [[0.0, 0.25], [0.25, 0.0]]
        assert isv_large([0.5, 0.5], synergy, 1, alpha=1.0) == [1, 0]

    def test_validation(self):
        with pytest.raises(LengthMismatch):
            isv_large([1.0, 1.0], zeros(3), 1)
        with pytest.raises(AlphaOutOfRange):
            isv_large([1.0], zeros(1), 1, alpha=1.5)
        with pytest.raises(InvalidRange):
            isv_large([1.0], zeros(1), -1)

    def test_exactly_total_grants(self):
        rng = random.Random(307)
        for _ in range(20):
            n = rng.randint(1, 6)
            phi = [rng.uniform(0, 3) for _ in range(n)]
            total = rng.randint(0, 2 * n)
            grants = isv_large(phi, zeros(n), total, alpha=0.0)
            assert sum(grants) == total
            assert all(g >= 0 for g in grants)

    def test_lower_quota_with_exact_synergies(self):
        rng = random.Random(311)
        for _ in range(20):
            n = rng.randint(2, 6)
            game = random_positive_int_game(rng, n)
            synergy = [[float(v) for v in row] for row in shapley_matrix_exact(game)]
            # nonnegative estimates on a 1/64 grid, summing to an integer
            raw = [rng.randint(0, 192) for _ in range(n)]
            total = sum(raw) // 64 + 1
            phi = [r / 64 for r in raw]
            phi[0] += total - sum(phi)
            if phi[0] < 0:
                continue
            floors = [math.floor(p) for p in phi]
            for alpha in (0.0, 0.5, 1.0):
                grants = isv_large(phi, synergy, total, alpha=alpha)
                assert sum(grants) == total
                assert all(g >= f for g, f in zip(grants, floors))

    def test_alpha_one_matches_pure_synergy_redistribution(self):
        # reference loop using only the synergy-proportional rule
        def reference(phi, matrix, total):
            n = len(phi)
            phi = list(phi)
            for _ in range(total):
                i = max(range(n), key=lambda j: phi[j])
                if phi[i] > 1.0:
                    phi[i] -= 1.0
                else:
                    deficit = 1.0 - phi[i]
                    denom = sum(matrix[i][k] for k in range(n) if k != i)
                    for j in range(n):
                        if j != i:
                            phi[j] -= deficit * (matrix[i][j] / denom)
                    phi[i] = 0.0
                yield i

        rng = random.Random(313)
        for _ in range(40):
            n = rng.randint(2, 5)
            phi = [rng.randint(1, 80) / 64 for _ in range(n)]
            synergy = [[rng.randint(1, 32) / 64 for _ in range(n)] for _ in range(n)]
            for i in range(n):
                synergy[i][i] = 0.0
                for j in range(i):
                    synergy[j][i] = synergy[i][j]
            total = rng.randint(1, 3 * n)
            picks = list(reference(phi, synergy, total))
            # the grants after each prefix of the loop pin every pick in order
            for t in range(1, total + 1):
                expected = [picks[:t].count(j) for j in range(n)]
                assert isv_large(phi, synergy, t, alpha=1.0) == expected

    def test_permutation_equivariance(self):
        rng = random.Random(317)
        for _ in range(10):
            n = rng.randint(2, 6)
            # 1/64-grid values keep every sum exact, so relabeling cannot
            # perturb the arithmetic
            phi = [rng.randint(0, 128) / 64 for _ in range(n)]
            synergy = [[rng.randint(0, 32) / 64 for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    synergy[j][i] = synergy[i][j]
            if len(set(phi)) < n:
                continue  # argmax ties resolve by label; skip degenerate draws
            total = rng.randint(1, n)
            perm = list(range(n))
            rng.shuffle(perm)
            phi_p = [0.0] * n
            syn_p = [[0.0] * n for _ in range(n)]
            for i in range(n):
                phi_p[perm[i]] = phi[i]
                for j in range(n):
                    syn_p[perm[i]][perm[j]] = synergy[i][j]
            base = isv_large(phi, synergy, total, alpha=0.5)
            moved = isv_large(phi_p, syn_p, total, alpha=0.5)
            assert all(moved[perm[i]] == base[i] for i in range(n))

    def test_degenerate_synergy_row_falls_back_to_uniform(self):
        synergy = [[0.0, -0.3, 0.1], [-0.3, 0.0, 0.0], [0.1, 0.0, 0.0]]
        # row 1 sums to -0.3: redistribution must use the uniform rule
        grants = isv_large([0.2, 0.9, 0.1], synergy, 1, alpha=1.0)
        assert grants == [0, 1, 0]

    def test_estimates_may_run_negative(self):
        phi = [0.6, 0.5]
        grants = isv_large(phi, zeros(2), 2, alpha=0.0)
        assert sum(grants) == 2

    def test_single_player_never_redistributes(self):
        # with one player the deficit has nowhere to go; grants still land
        for alpha in (0.0, 0.5, 1.0):
            assert isv_large([0.5], zeros(1), 3, alpha=alpha) == [3]


class TestSelectTopK:
    def test_additive_pipeline_trace(self):
        # exhaustive estimates (5,1,0) scale to (2.5,0.5,0); two decrements
        # leave a 0.5 tie that resolves to the lowest index
        grants = select_top_k(
            additive_oracle([5.0, 1.0, 0.0]), 3, SamplerConfig(exhaustive=True), alpha=0.5
        )
        assert grants == [3, 0, 0]

    def test_pair_tiebreak(self):
        oracle = TableOracle(unanimity_game(2, 0b11))
        for alpha in (0.0, 1.0):
            grants = select_top_k(oracle, 1, SamplerConfig(exhaustive=True), alpha=alpha)
            assert grants == [1, 0]

    def test_zero_selection_rejected(self):
        with pytest.raises(InvalidRange):
            select_top_k(additive_oracle([1.0]), 0, SamplerConfig(exhaustive=True))
