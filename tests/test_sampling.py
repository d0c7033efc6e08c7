import random
import sys
from fractions import Fraction

import pytest

from indivisible import (
    FunctionOracle,
    SamplerConfig,
    SubprocessOracle,
    TableOracle,
    coalition,
    harmonic_tail,
    members,
    memoized,
    sample_shapley,
    sample_shapley_matrix,
    shapley_exact,
    shapley_matrix_exact,
    unanimity_game,
)
from indivisible.errors import (
    ChildExited,
    InvalidRange,
    ProtocolViolation,
    SpawnFailure,
    TooManyPlayers,
)
from indivisible.sampling import _CHUNK

from oracles import random_game, two_goods_game

F = Fraction

ADDITIVE_CHILD = [
    sys.executable,
    "-u",
    "-c",
    "import sys\n"
    "for line in sys.stdin:\n"
    "    bits = line.strip()\n"
    "    print(sum(i + 1 for i, c in enumerate(bits) if c == '1'))\n",
]


def additive_oracle(weights):
    return FunctionOracle(
        len(weights), lambda mask: float(sum(weights[i] for i in members(mask)))
    )


class TestHarmonicTail:
    def test_single_term(self):
        assert harmonic_tail(2, 2) == 0.5

    def test_empty_sum(self):
        assert harmonic_tail(3, 2) == 0.0

    def test_three_terms(self):
        assert abs(harmonic_tail(2, 4) - (1 / 2 + 1 / 3 + 1 / 4)) < 1e-15

    def test_range_validated(self):
        with pytest.raises(InvalidRange):
            harmonic_tail(0, 3)
        with pytest.raises(InvalidRange):
            harmonic_tail(5, 3)


class TestSampleShapley:
    def test_additive_is_exact(self):
        oracle = additive_oracle([1.0, 2.0, 3.0])
        for seed in (0, 7):
            est = sample_shapley(oracle, SamplerConfig(samples=50, seed=seed))
            assert est == [1.0, 2.0, 3.0]

    def test_exhaustive_matches_exact_pair(self):
        est = sample_shapley(TableOracle(unanimity_game(2, 0b11)), SamplerConfig(exhaustive=True))
        assert est == [0.5, 0.5]

    def test_exhaustive_matches_exact_random(self):
        rng = random.Random(211)
        for _ in range(8):
            g = random_game(rng, rng.randint(1, 5))
            est = sample_shapley(TableOracle(g), SamplerConfig(exhaustive=True))
            exact = shapley_exact(g)
            assert all(abs(e - float(x)) <= 1e-9 for e, x in zip(est, exact))

    def test_concentration_with_committed_seed(self):
        est = sample_shapley(
            TableOracle(unanimity_game(2, 0b11)), SamplerConfig(samples=10_000, seed=42)
        )
        assert abs(est[0] - 0.5) <= 0.05 and abs(est[1] - 0.5) <= 0.05

    def test_null_player_exactly_zero(self):
        g = unanimity_game(4, coalition([0, 2]))
        for seed in (0, 1, 2):
            est = sample_shapley(TableOracle(g), SamplerConfig(samples=500, seed=seed))
            assert est[1] == 0.0 and est[3] == 0.0

    def test_pinned_multi_chunk_estimate(self):
        # three chunk partials merged in chunk order; any change to the
        # permutation stream or the summation order shows in the last bits
        g = random_game(random.Random(229), 6)
        est = sample_shapley(TableOracle(g), SamplerConfig(samples=2 * _CHUNK + 5, seed=9))
        assert repr(est) == (
            "[0.28895391367959034, -0.0753474762253109, 0.9578151670324311, "
            "-0.250792489636674, 0.16264325774201413, 0.16672762740794927]"
        )

    def test_sample_count_validated(self):
        with pytest.raises(InvalidRange):
            sample_shapley(additive_oracle([1.0]), SamplerConfig(samples=0))

    def test_exhaustive_cap(self):
        with pytest.raises(TooManyPlayers):
            sample_shapley(additive_oracle([0.0] * 10), SamplerConfig(exhaustive=True))


class TestSampleMatrix:
    def test_pair_exhaustive(self):
        est = sample_shapley_matrix(
            TableOracle(unanimity_game(2, 0b11)), SamplerConfig(exhaustive=True)
        )
        assert est[0][1] == 0.25 and est[1][0] == 0.25
        assert est[0][0] == 0.0 and est[1][1] == 0.0

    def test_additive_off_diagonal_zero(self):
        est = sample_shapley_matrix(
            additive_oracle([1.0, 2.0, 3.0]), SamplerConfig(samples=200, seed=3)
        )
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert est[i][j] == 0.0

    def test_two_goods_exhaustive_matches_exact(self):
        g = two_goods_game()
        est = sample_shapley_matrix(TableOracle(g), SamplerConfig(exhaustive=True))
        exact = shapley_matrix_exact(g)
        for i in range(g.n):
            for j in range(g.n):
                if i != j:
                    assert abs(est[i][j] - float(exact[i][j])) <= 1e-9
        assert abs(est[0][1] - 2 / 9) <= 1e-9
        assert est[0][3] == 0.0

    def test_mirrored_bit_for_bit(self):
        g = random_game(random.Random(223), 5)
        est = sample_shapley_matrix(TableOracle(g), SamplerConfig(samples=300, seed=5))
        for i in range(5):
            for j in range(5):
                assert est[i][j] == est[j][i]

    def test_pinned_multi_chunk_estimate(self):
        g = random_game(random.Random(227), 5)
        est = sample_shapley_matrix(TableOracle(g), SamplerConfig(samples=2 * _CHUNK + 5, seed=1))
        assert repr(est) == (
            "[[0.0, 0.1676928391449238, 0.36329960172315523, 0.1894436316345593, "
            "-0.5947289279037666], "
            "[0.1676928391449238, 0.0, -0.13281415102007604, -0.46618507681053173, "
            "-0.40955661220840733], "
            "[0.36329960172315523, -0.13281415102007604, 0.0, -0.09129379013248687, "
            "0.4984201007884295], "
            "[0.1894436316345593, -0.46618507681053173, -0.09129379013248687, 0.0, "
            "0.34151629683817025], "
            "[-0.5947289279037666, -0.40955661220840733, 0.4984201007884295, "
            "0.34151629683817025, 0.0]]"
        )


class TestMemoization:
    def test_caches_and_preserves_values(self):
        calls = []

        def fn(mask):
            calls.append(mask)
            return float(mask.bit_count())

        oracle = memoized(FunctionOracle(3, fn))
        assert oracle.evaluate(0b101) == 2.0
        assert oracle.evaluate(0b101) == 2.0
        assert calls == [0b101]

    def test_estimates_unchanged_by_memo(self):
        g = two_goods_game()
        direct = sample_shapley(TableOracle(g), SamplerConfig(samples=500, seed=11))
        wrapped = sample_shapley(memoized(TableOracle(g)), SamplerConfig(samples=500, seed=11))
        assert direct == wrapped


class TestSubprocessOracle:
    def test_protocol_round_trip(self):
        with SubprocessOracle(ADDITIVE_CHILD, 4) as oracle:
            assert oracle.evaluate(coalition([0, 1])) == 3.0
            assert oracle.evaluate(0) == 0.0

    def test_sampling_through_child(self):
        with SubprocessOracle(ADDITIVE_CHILD, 3) as oracle:
            est = sample_shapley(oracle, SamplerConfig(samples=64, seed=0))
        assert est == [1.0, 2.0, 3.0]

    def test_malformed_reply(self):
        child = [sys.executable, "-u", "-c", "import sys\n[print('abc') for _ in sys.stdin]"]
        with SubprocessOracle(child, 2) as oracle:
            with pytest.raises(ProtocolViolation):
                oracle.evaluate(0b01)

    def test_nonzero_empty_reply(self):
        child = [sys.executable, "-u", "-c", "import sys\n[print('1.5') for _ in sys.stdin]"]
        with SubprocessOracle(child, 2) as oracle:
            with pytest.raises(ProtocolViolation):
                oracle.evaluate(0)

    def test_child_exit_detected(self):
        child = [sys.executable, "-c", "pass"]
        with SubprocessOracle(child, 2) as oracle:
            with pytest.raises(ChildExited):
                oracle.evaluate(0b01)

    def test_spawn_failure(self):
        with pytest.raises(SpawnFailure):
            SubprocessOracle(["/nonexistent/oracle-binary"], 2)

    @pytest.mark.parametrize("command", ['"x', "", "   ", []])
    def test_unusable_command_is_spawn_failure(self, command):
        with pytest.raises(SpawnFailure):
            SubprocessOracle(command, 2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_player_count_validated(self, n):
        with pytest.raises(InvalidRange):
            SubprocessOracle(ADDITIVE_CHILD, n)
