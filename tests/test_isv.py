import random
from fractions import Fraction
from itertools import product

import pytest

import indivisible.isv
from indivisible import (
    coalition,
    game_linear,
    harsanyi_dividends,
    in_core,
    indivisible_shapley,
    is_convex,
    isv_oracle_convex,
    lp_distance,
    make_game,
    remainder_order,
    shapley_exact,
    unanimity_game,
)
from indivisible.errors import EmptyFeasibleSet, LengthMismatch, NotIndivisible, SolverError

from oracles import (
    floor_half_game,
    isv_by_enumeration,
    isv_by_reductions,
    random_convex_int_game,
    random_fractional_game,
    random_game,
    random_positive_int_game,
    two_goods_game,
    wide_convex_int_game,
    within,
)

F = Fraction


class TestRemainderOrder:
    def test_two_goods_order(self):
        assert remainder_order([F(2, 3), F(2, 3), F(2, 3), F(1, 2), F(1, 2)]) == (0, 1, 2, 3, 4)

    def test_all_tied(self):
        assert remainder_order([F(1, 2)] * 4) == (0, 1, 2, 3)

    def test_integer_part_ignored(self):
        assert remainder_order([F(7, 2), F(1, 4)]) == (0, 1)
        assert remainder_order([F(1, 4), F(7, 2)]) == (1, 0)

    def test_matches_sorted_reference(self):
        rng = random.Random(41)
        for _ in range(300):
            # small denominators make whole values and tied remainders common
            size = rng.randint(0, 9)
            sv = [F(rng.randint(-9, 30), rng.choice((1, 2, 3, 4, 6))) for _ in range(size)]
            want = tuple(sorted(range(len(sv)), key=lambda i: (-(sv[i] % 1), i)))
            assert remainder_order(sv) == want, sv

    def test_whole_values_last_by_index(self):
        assert remainder_order([F(2), F(1, 3), 5, F(4, 3), F(0)]) == (1, 3, 0, 2, 4)
        assert remainder_order([3, 1, 2]) == (0, 1, 2)
        assert indivisible.isv._remainder_order([6, 1, 9, 0, 8], 3) == (4, 1)


class TestIndivisibleShapley:
    def test_two_goods(self):
        result = indivisible_shapley(two_goods_game(), record_games=True)
        assert result.payoffs == (1, 1, 0, 1, 0)
        # the working game after each grant, in original labels
        labels_0, after_first = result.games[1]
        assert labels_0 == (1, 2, 3, 4)
        assert after_first == game_linear(
            F(1), unanimity_game(4, coalition([0, 1])),
            F(1), unanimity_game(4, coalition([2, 3])),
        )
        labels_1, after_second = result.games[2]
        assert labels_1 == (2, 3, 4)
        assert after_second == unanimity_game(3, coalition([1, 2]))

    def test_pair_tiebreak(self):
        assert indivisible_shapley(unanimity_game(2, 0b11)).payoffs == (1, 0)

    def test_half_game(self):
        payoffs = indivisible_shapley(floor_half_game()).payoffs
        assert payoffs == (1, 1, 0, 0)
        assert sum(payoffs) == 2
        assert set(payoffs) == {0, 1}
        # no integer vector can be stable here
        assert not in_core(floor_half_game(), payoffs)

    def test_fractional_grand_rejected(self):
        g = make_game(2, [(0b11, F(3, 2))])
        with pytest.raises(NotIndivisible):
            indivisible_shapley(g)

    def test_negative_grand_rejected(self):
        g = make_game(2, [(0b11, F(-1))])
        with pytest.raises(NotIndivisible):
            indivisible_shapley(g)

    def test_trace_accounts_for_payoffs(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_convex_int_game(rng, rng.randint(2, 5))
            result = indivisible_shapley(g)
            totals = [0] * g.n
            for _, player, amount in result.trace:
                totals[player] += amount
            assert tuple(totals) == result.payoffs

    def test_deterministic(self):
        g = random_convex_int_game(random.Random(5), 5)
        a = indivisible_shapley(g)
        b = indivisible_shapley(g)
        assert a == b and repr(a) == repr(b)


class TestLazyShapley:
    """The solver against the whole-vector-per-grant reference."""

    @staticmethod
    def counted_calls(monkeypatch, g):
        calls = []
        kernel = indivisible.isv.shapley_exact

        def counting(game):
            calls.append(game.n)
            return kernel(game)

        monkeypatch.setattr(indivisible.isv, "shapley_exact", counting)
        result = indivisible_shapley(g)
        grants = sum(kind == "granted" for kind, _, _ in result.trace)
        return len(calls), grants, result

    def test_convex_game_needs_no_working_game_value(self, monkeypatch):
        calls, grants, _ = self.counted_calls(
            monkeypatch, random_convex_int_game(random.Random(8), 8)
        )
        assert grants == 5
        assert calls == 1

    def test_kernel_called_only_after_a_quota_failure(self, monkeypatch):
        g = random_fractional_game(random.Random(15), 8)
        calls, grants, result = self.counted_calls(monkeypatch, g)
        assert 1 < calls <= 1 + grants
        # some grant passed over the first player left in remainder order,
        # so that player failed the quota test and had no positive value
        left = list(remainder_order(shapley_exact(g)))
        passed_over = False
        for kind, player, _ in result.trace[g.n :]:
            passed_over |= kind == "granted" and player != left[0]
            left.remove(player)
        assert passed_over

    @pytest.mark.parametrize(
        "family",
        [
            random_game,
            random_fractional_game,
            random_convex_int_game,
            random_positive_int_game,
            wide_convex_int_game,
        ],
    )
    def test_matches_reductions_reference(self, family):
        for seed in range(152):
            g = family(random.Random(seed), 1 + seed % 8)
            try:
                expected = isv_by_reductions(g, record_games=True)
            except SolverError as exc:
                with pytest.raises(type(exc)) as caught:
                    indivisible_shapley(g, record_games=True)
                assert str(caught.value) == str(exc)
            else:
                assert indivisible_shapley(g, record_games=True) == expected

    def test_fractional_seeds_where_the_shapley_test_rejects(self):
        for seed in (15, 20, 27):
            g = random_fractional_game(random.Random(seed), 8)
            assert indivisible_shapley(g, record_games=True) == isv_by_reductions(
                g, record_games=True
            )


class TestConvexProperties:
    def test_matches_oracle(self):
        rng = random.Random(101)
        for _ in range(40):
            g = random_convex_int_game(rng, rng.randint(2, 6))
            assert indivisible_shapley(g).payoffs == isv_oracle_convex(g)

    def test_efficiency_quotas_core(self):
        rng = random.Random(103)
        for _ in range(40):
            g = random_convex_int_game(rng, rng.randint(2, 6))
            sv = shapley_exact(g)
            payoffs = indivisible_shapley(g).payoffs
            assert sum(payoffs) == g.grand_value
            for i in range(g.n):
                low = sv[i].numerator // sv[i].denominator
                assert low <= payoffs[i] <= low + (0 if sv[i] == low else 1)
            assert in_core(g, payoffs)

    def test_distance_minimality(self):
        import math

        rng = random.Random(107)
        for _ in range(25):
            g = random_convex_int_game(rng, rng.randint(2, 5))
            sv = shapley_exact(g)
            payoffs = indivisible_shapley(g).payoffs
            choices = [sorted({math.floor(s), math.ceil(s)}) for s in sv]
            rivals = [
                x
                for x in product(*choices)
                if sum(x) == g.grand_value and in_core(g, x)
            ]
            assert rivals
            for p in (1, 2, 3):
                ours = lp_distance(payoffs, sv, p)
                assert all(ours <= lp_distance(y, sv, p) for y in rivals)


class TestGeneralGames:
    def test_efficiency_and_quotas_only(self):
        import math

        rng = random.Random(109)
        for _ in range(40):
            g = random_fractional_game(rng, rng.randint(2, 5))
            sv = shapley_exact(g)
            payoffs = indivisible_shapley(g).payoffs
            assert sum(payoffs) == g.grand_value
            for i in range(g.n):
                assert math.floor(sv[i]) <= payoffs[i] <= math.ceil(sv[i])

    def test_null_players_get_zero(self):
        g = unanimity_game(4, coalition([1, 3]))
        assert indivisible_shapley(g).payoffs == (0, 1, 0, 0)


class TestOracle:
    def test_two_goods(self):
        assert isv_oracle_convex(two_goods_game()) == (1, 1, 0, 1, 0)

    def test_disjoint_pairs(self):
        g = game_linear(
            F(1), unanimity_game(4, coalition([0, 1])),
            F(1), unanimity_game(4, coalition([2, 3])),
        )
        assert isv_oracle_convex(g) == (1, 0, 1, 0)

    def test_additive_integer(self):
        g = make_game(3, [
            (0b001, F(3)), (0b010, F(0)), (0b100, F(2)),
            (0b011, F(3)), (0b101, F(5)), (0b110, F(2)), (0b111, F(5)),
        ])
        assert isv_oracle_convex(g) == (3, 0, 2)

    def test_empty_feasible_set(self):
        with pytest.raises(EmptyFeasibleSet):
            isv_oracle_convex(floor_half_game())

    def test_negative_grand_rejected_like_the_solver(self):
        g = make_game(2, [(0b01, F(-1)), (0b10, F(-1)), (0b11, F(-2))])
        assert is_convex(g)
        for solve in (indivisible_shapley, isv_oracle_convex):
            with pytest.raises(NotIndivisible):
                solve(g)

    def test_matches_enumeration(self):
        rng = random.Random(113)
        makers = (
            random_convex_int_game, random_positive_int_game, random_game, random_fractional_game
        )
        errors = set()
        for k in range(320):
            g = makers[k % len(makers)](rng, rng.randint(1, 7))
            try:
                expected = isv_by_enumeration(g)
            except SolverError as exc:
                errors.add(type(exc))
                with pytest.raises(type(exc)):
                    isv_oracle_convex(g)
            else:
                assert isv_oracle_convex(g) == expected
        assert errors == {EmptyFeasibleSet, NotIndivisible}

    def test_wide_convex_games_are_convex_with_negative_dividends(self):
        rng = random.Random(127)
        games = [wide_convex_int_game(rng, n) for n in range(2, 8) for _ in range(5)]
        assert all(is_convex(g) for g in games)
        assert any(min(harsanyi_dividends(g).nums) < 0 for g in games)

    @pytest.mark.parametrize("n", [16, 20])
    def test_matches_solver_at_table_cap(self, n):
        with within(30):
            g = wide_convex_int_game(random.Random(n), n)
            assert indivisible_shapley(g).payoffs == isv_oracle_convex(g)


class TestLpDistance:
    def test_pair(self):
        assert lp_distance((1, 0), (F(1, 2), F(1, 2)), 2) == F(1, 2)

    def test_zero(self):
        assert lp_distance((3, 0, 2), (F(3), F(0), F(2)), 5) == 0

    def test_two_goods_l1(self):
        sv = (F(2, 3), F(2, 3), F(2, 3), F(1, 2), F(1, 2))
        assert lp_distance((1, 1, 0, 1, 0), sv, 1) == F(7, 3)

    def test_length_checked(self):
        with pytest.raises(LengthMismatch):
            lp_distance((1,), (F(1), F(2)), 1)
