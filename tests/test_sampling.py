import os
import random
import select
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from indivisible import (
    FunctionOracle,
    SamplerConfig,
    SubprocessOracle,
    TableOracle,
    ValueOracle,
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
    OracleFailure,
    PlayerOutOfRange,
    ProtocolViolation,
    SpawnFailure,
    TooManyPlayers,
)
from indivisible import sampling
from indivisible.large import select_top_k
from indivisible.sampling import _CHUNK, _permutation, _shapley_and_matrix

from oracles import random_game, splitmix_permutation, two_goods_game

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

# answers each query with the mask it encodes, so character p must be bit p
MASK_CHILD = [
    sys.executable,
    "-u",
    "-c",
    "import sys\nfor line in sys.stdin:\n    print(int(line.strip()[::-1], 2))\n",
]


# v(S) = (lowest member + 1) + |S|, from string methods, so long queries stay cheap
LOWEST_CHILD = [
    sys.executable,
    "-u",
    "-c",
    "import sys\nfor line in sys.stdin:\n    print(line.find('1') + 1 + line.count('1'))\n",
]


def lowest_oracle(n):
    return FunctionOracle(n, lambda mask: (mask & -mask).bit_length() + mask.bit_count())


def python_child(body):
    """A child oracle running ``body``; ``sys`` and ``time`` are imported."""
    return [sys.executable, "-u", "-c", "import sys, time\n" + body]


@pytest.fixture
def deadline():
    """Fail a test that hangs, instead of hanging the run."""

    def past_deadline(signum, frame):
        raise TimeoutError("the test did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, past_deadline)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


class TestPermutationStream:
    @pytest.mark.parametrize("n", [1, 2, 7, 24, 100])
    def test_matches_reference_stream(self, n):
        for seed in (0, 1, 9, -5, 2**64 + 3, 12345678901234567890):
            for t in (0, 1, 2, _CHUNK - 1, _CHUNK, 10**6, 2**63):
                assert _permutation(n, seed, t) == splitmix_permutation(n, seed, t)


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

    def test_pinned_exhaustive_estimate(self):
        # 7! permutations exceed one chunk; exhaustive mode sums them as one.
        # Sevenths are not dyadic, so another summation order shows.
        g = random_game(random.Random(233), 7, denominator=7)
        est = sample_shapley(TableOracle(g), SamplerConfig(exhaustive=True))
        assert repr(est) == (
            "[0.7204081632653326, -0.6391156462585045, 0.09659863945577774, "
            "-0.3938775510204057, -0.258163265306129, -0.19863945578230355, "
            "1.1013605442177181]"
        )

    def test_sample_count_validated(self):
        with pytest.raises(InvalidRange):
            sample_shapley(additive_oracle([1.0]), SamplerConfig(samples=0))

    @pytest.mark.parametrize(
        "cfg",
        [
            SamplerConfig(samples=2.5),
            SamplerConfig(seed=1.5),
            SamplerConfig(samples="3"),
            SamplerConfig(seed="1"),
            SamplerConfig(samples=None, exhaustive=True),
        ],
    )
    def test_non_integer_config_is_invalid_range(self, cfg):
        with pytest.raises(InvalidRange):
            sample_shapley(additive_oracle([1.0, 2.0]), cfg)
        with pytest.raises(InvalidRange):
            sample_shapley_matrix(additive_oracle([1.0, 2.0]), cfg)

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

    def test_pinned_exhaustive_estimate(self):
        g = random_game(random.Random(233), 7, denominator=7)
        est = sample_shapley_matrix(TableOracle(g), SamplerConfig(exhaustive=True))
        assert repr(est) == (
            "[[0.0, -0.17515144152899517, 0.08254697116941867, -0.06709588597344003, "
            "-0.10090540978296178, -0.14590540978296107, -0.04519112406867675], "
            "[-0.17515144152899517, 0.0, 0.3353247489471967, 0.06754697116942056, "
            "-0.14082604470359572, -0.22356413994169166, 0.05111839974084893], "
            "[0.08254697116941867, 0.3353247489471967, 0.0, 0.26437236799481895, "
            "0.06405490767735658, 0.021356494978945668, -0.07713556851312005], "
            "[-0.06709588597344003, 0.06754697116942056, 0.26437236799481895, 0.0, "
            "0.4243723679948206, -0.039714933592484146, 0.11215014577259333], "
            "[-0.10090540978296178, -0.14082604470359572, 0.06405490767735658, "
            "0.4243723679948206, 0.0, -0.05626255264010392, -0.013286362163913365], "
            "[-0.14590540978296107, -0.22356413994169166, 0.021356494978945668, "
            "-0.039714933592484146, -0.05626255264010392, 0.0, -0.10991334629089775], "
            "[-0.04519112406867675, 0.05111839974084893, -0.07713556851312005, "
            "0.11215014577259333, -0.013286362163913365, -0.10991334629089775, 0.0]]"
        )


class TestOnePass:
    @pytest.mark.parametrize(
        "cfg",
        [
            SamplerConfig(exhaustive=True),
            SamplerConfig(samples=300, seed=4),
            SamplerConfig(samples=2 * _CHUNK + 5, seed=6),
        ],
    )
    def test_matches_both_estimators(self, cfg):
        g = random_game(random.Random(239), 6, denominator=7)
        phi, matrix = _shapley_and_matrix(TableOracle(g), cfg)
        assert repr(phi) == repr(sample_shapley(TableOracle(g), cfg))
        assert repr(matrix) == repr(sample_shapley_matrix(TableOracle(g), cfg))


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

    def test_fill_asks_once_for_each_missing_mask(self):
        batches = []

        class Recording(FunctionOracle):
            def evaluate_many(self, masks):
                batches.append(list(masks))
                return super().evaluate_many(masks)

        oracle = memoized(Recording(3, lambda mask: float(mask.bit_count())))
        assert oracle.evaluate(0b001) == 1.0
        oracle._ask([0b011, 0b001, 0b011, 0b111])()
        oracle._ask([0b111, 0b001])()
        assert batches == [[0b001], [0b011, 0b111]]
        assert oracle._memo == {0b001: 1.0, 0b011: 2.0, 0b111: 3.0}

    def test_evaluate_through_a_batch_only_oracle(self):
        class BatchOnly(ValueOracle):
            n = 3

            def evaluate_many(self, masks):
                return [float(mask.bit_count()) for mask in masks]

        assert memoized(BatchOnly()).evaluate(0b101) == 2.0

    def test_evaluate_after_a_rejected_value_asks_again(self):
        answers = iter([float("nan"), 2.0])
        oracle = memoized(FunctionOracle(3, lambda mask: next(answers)))
        with pytest.raises(ProtocolViolation):
            oracle.evaluate(0b101)
        assert oracle.evaluate(0b101) == 2.0
        assert not oracle._flight

    def test_full_memo_starts_over_at_the_next_ask(self, monkeypatch):
        monkeypatch.setattr(sampling, "_MEMO_SIZE", 2)
        oracle = memoized(FunctionOracle(3, lambda mask: float(mask)))
        assert [oracle.evaluate(mask) for mask in (0b001, 0b010)] == [1.0, 2.0]
        assert oracle._memo == {0b001: 1.0, 0b010: 2.0}
        assert oracle.evaluate(0b001) == 1.0
        assert oracle._memo == {0b001: 1.0}

    class Asking(FunctionOracle):
        """Records every batch the memo asks of it."""

        def __init__(self, n, fn):
            super().__init__(n, fn)
            self.asks = []

        def _ask(self, masks):
            self.asks.append(list(masks))
            return super()._ask(masks)

    def test_batch_is_one_ask(self):
        inner = self.Asking(11, lambda mask: float(mask.bit_count()))
        masks = list(range(1, 2001))
        assert memoized(inner).evaluate_many(masks) == [float(m.bit_count()) for m in masks]
        assert inner.asks == [masks]

    def test_batch_asks_each_new_mask_once(self):
        inner = self.Asking(3, lambda mask: float(mask))
        oracle = memoized(inner)
        assert oracle.evaluate(0b100) == 4.0
        values = oracle.evaluate_many([0b011, 0b100, 0b001, 0b011, 0, 0b001])
        assert values == [3.0, 4.0, 1.0, 3.0, 0.0, 1.0]
        assert inner.asks == [[0b100], [0b011, 0b001, 0]]

    @pytest.mark.parametrize("bad", [0b1000, -1, 1.0])
    def test_bad_mask_in_a_batch_is_rejected_before_any_ask(self, bad):
        inner = self.Asking(3, lambda mask: float(mask))
        with pytest.raises(PlayerOutOfRange):
            memoized(inner).evaluate_many([0b011, bad])
        assert inner.asks == []

    def test_nan_in_a_batch_is_a_protocol_violation(self):
        inner = self.Asking(3, lambda mask: float("nan") if mask == 0b010 else 1.0)
        oracle = memoized(inner)
        with pytest.raises(ProtocolViolation):
            oracle.evaluate_many([0b001, 0b010, 0b100])
        assert inner.asks == [[0b001, 0b010, 0b100]]
        assert oracle._memo == {} and not oracle._flight  # the batch is checked whole

    def test_estimates_unchanged_by_memo(self):
        g = two_goods_game()
        direct = sample_shapley(TableOracle(g), SamplerConfig(samples=500, seed=11))
        wrapped = sample_shapley(memoized(TableOracle(g)), SamplerConfig(samples=500, seed=11))
        assert direct == wrapped


def needed_coalitions(n, cfg, matrix):
    """Every coalition an estimator needs: for each sampled permutation and
    player ``i`` after prefix ``S``, ``S+i``, and with ``matrix`` also
    ``S-j+i`` and ``S-j`` for each ``j > i`` in ``S``."""
    return set(needed_in_order(n, cfg, matrix))


def needed_in_order(n, cfg, matrix):
    """``needed_coalitions`` in order of first appearance, each ``j`` taken
    in ascending order."""
    needed = {}
    for t in range(cfg.samples):
        before = set()
        for i in splitmix_permutation(n, cfg.seed, t):
            needed[coalition(before | {i})] = None
            if matrix:
                for j in sorted(before):
                    if j > i:
                        needed[coalition(before - {j} | {i})] = None
                        needed[coalition(before - {j})] = None
            before.add(i)
    return list(needed)


class TestQueryPlans:
    @pytest.mark.parametrize("matrix", [False, True])
    @pytest.mark.parametrize("n", [4, 9])
    def test_each_needed_coalition_asked_once(self, n, matrix):
        table = TableOracle(random_game(random.Random(241 + n), n))
        asked = []

        def value(mask):
            asked.append(mask)
            return table.evaluate(mask)

        cfg = SamplerConfig(samples=300, seed=2)
        estimator = sample_shapley_matrix if matrix else sample_shapley
        est = estimator(FunctionOracle(n, value), cfg)
        assert len(asked) == len(set(asked))
        assert set(asked) == needed_coalitions(n, cfg, matrix)
        assert repr(est) == repr(estimator(table, cfg))


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

    def test_close_releases_both_pipes(self):
        oracle = SubprocessOracle(ADDITIVE_CHILD, 2)
        oracle.evaluate(0b11)
        oracle.close()
        assert oracle._proc.stdin.closed and oracle._proc.stdout.closed
        assert oracle._proc.returncode is not None

    def test_child_that_ignores_end_of_input_is_killed_at_close(self, deadline, monkeypatch):
        # the grace period is not waited out: a wait with a timeout expires at once
        waits, wait = [], subprocess.Popen.wait

        def impatient(proc, timeout=None):
            waits.append(timeout)
            if timeout is not None:
                raise subprocess.TimeoutExpired(proc.args, timeout)
            return wait(proc)

        child = python_child("print(sys.stdin.readline().count('1'))\ntime.sleep(60)\n")
        with SubprocessOracle(child, 2) as oracle:
            assert oracle.evaluate(0b11) == 2.0
            monkeypatch.setattr(subprocess.Popen, "wait", impatient)
        assert waits == [5, None]  # 5 s of grace, then a kill and a reap
        assert oracle._proc.returncode == -signal.SIGKILL
        assert oracle._proc.stdin.closed and oracle._proc.stdout.closed

    def test_child_that_exits_at_end_of_input_is_not_killed(self, deadline):
        with SubprocessOracle(ADDITIVE_CHILD, 2) as oracle:
            assert oracle.evaluate(0b11) == 3.0
        assert oracle._proc.returncode == 0

    @pytest.mark.parametrize("n", [1, 24, 64])
    def test_query_string_encodes_mask(self, n):
        rng = random.Random(n)
        masks = {0, 1, 1 << (n - 1), (1 << n) - 1} | {rng.getrandbits(n) for _ in range(50)}
        with SubprocessOracle(MASK_CHILD, n) as oracle:
            for mask in sorted(masks):
                # replies are floats; above 2**53 they are the rounded mask
                assert oracle.evaluate(mask) == float(mask)
            for mask in (1 << n, -1):
                with pytest.raises(PlayerOutOfRange):
                    oracle.evaluate(mask)

    @pytest.mark.parametrize("n", [0, -1])
    def test_player_count_validated(self, n):
        with pytest.raises(InvalidRange):
            SubprocessOracle(ADDITIVE_CHILD, n)

    def test_batch_spans_several_writes(self, deadline):
        masks = [random.Random(4).getrandbits(64) for _ in range(200)]
        with SubprocessOracle(MASK_CHILD, 64) as oracle:
            assert len(masks) * 65 > select.PIPE_BUF  # 200 query lines of 65 bytes
            assert oracle.evaluate_many(masks) == [float(mask) for mask in masks]

    def test_bad_mask_is_rejected_before_any_query(self):
        with SubprocessOracle(MASK_CHILD, 3) as oracle:
            with pytest.raises(PlayerOutOfRange):
                oracle.evaluate_many([0b011, 0b1000])
            assert oracle.evaluate_many([0b101]) == [5.0]  # no reply left behind

    def test_failed_session_is_reported_before_a_bad_mask(self, deadline):
        child = python_child("for line in sys.stdin:\n    print('abc')\n")
        with SubprocessOracle(child, 3) as oracle:
            with pytest.raises(ProtocolViolation):
                oracle.evaluate(0b001)
            # PlayerOutOfRange is not an OracleFailure
            with pytest.raises(OracleFailure, match="session ended"):
                oracle.evaluate_many([0b011, 0b1000])
            with pytest.raises(OracleFailure, match="session ended"):
                oracle.evaluate(0b1000)

    @pytest.mark.parametrize(
        "n, estimator", [(2000, sample_shapley), (64, sample_shapley_matrix)]
    )
    def test_plans_larger_than_pipe_buf(self, deadline, n, estimator):
        cfg = SamplerConfig(samples=2, seed=5)
        with SubprocessOracle(LOWEST_CHILD, n) as oracle:
            est = estimator(oracle, cfg)
        assert repr(est) == repr(estimator(lowest_oracle(n), cfg))

    def test_long_replies_do_not_block(self, deadline):
        # 256 replies of 5001 bytes each: far more than a pipe holds
        child = python_child("for line in sys.stdin:\n    print(f\"{line.count('1'):>5000}\")\n")
        with SubprocessOracle(child, 8) as oracle:
            values = oracle.evaluate_many(list(range(256)))
        assert values == [float(mask.bit_count()) for mask in range(256)]

    def test_silent_child_is_killed(self, deadline, monkeypatch):
        monkeypatch.setattr(sampling, "_REPLY_TIMEOUT", 0.5)
        oracle = SubprocessOracle(python_child("for line in sys.stdin:\n    time.sleep(60)\n"), 2)
        start = time.monotonic()
        try:
            with pytest.raises(ChildExited, match="no reply for 0.5 s to query 10"):
                oracle.evaluate(0b01)
            assert time.monotonic() - start < 5
            assert oracle._proc.wait(timeout=2) == -signal.SIGKILL  # killed at the deadline
        finally:
            oracle.close()
        assert oracle._proc.stdin.closed and oracle._proc.stdout.closed

    def test_fewer_replies_than_queries(self, deadline, monkeypatch):
        monkeypatch.setattr(sampling, "_REPLY_TIMEOUT", 0.5)
        child = python_child("sys.stdin.readline()\nprint(1)\nfor line in sys.stdin:\n    pass\n")
        with SubprocessOracle(child, 2) as oracle:
            with pytest.raises(ChildExited, match="no reply for 0.5 s to query 01"):
                oracle.evaluate_many([0b01, 0b10, 0b11])
            assert oracle._proc.wait(timeout=2) == -signal.SIGKILL

    def test_child_exits_mid_batch(self, deadline):
        child = python_child(
            "for k, line in enumerate(sys.stdin):\n"
            "    if k == 2:\n"
            "        break\n"
            "    print(line.count('1'))\n"
        )
        with SubprocessOracle(child, 2) as oracle:
            with pytest.raises(ChildExited, match="closed its output on query 11"):
                oracle.evaluate_many([0b01, 0b10, 0b11])

    def test_more_replies_than_queries(self, deadline):
        child = python_child("for line in sys.stdin:\n    sys.stdout.buffer.write(b'1\\n1\\n')\n")
        with SubprocessOracle(child, 2) as oracle:
            with pytest.raises(ProtocolViolation, match="more replies"):
                oracle.evaluate(0b01)

    def test_reply_before_any_whole_query(self, deadline):
        # the child answers before it reads, and never reads: the one query
        # line is longer than a pipe holds, so none has been written whole
        n = 1 << 21
        oracle = SubprocessOracle(python_child("print(1)\ntime.sleep(60)\n"), n)
        try:
            with pytest.raises(ProtocolViolation) as caught:
                oracle.evaluate((1 << n) - 1)
            # the message names no query, which would be n characters long
            assert str(caught.value) == "oracle sent more replies than the 0 queries written to it"
        finally:
            oracle._proc.kill()
            oracle.close()

    def test_child_exited_before_the_ask(self, deadline):
        with SubprocessOracle([sys.executable, "-c", "pass"], 2) as oracle:
            oracle._proc.wait()
            with pytest.raises(ChildExited, match="^oracle exited with status 0 before query 10$"):
                oracle.evaluate(0b01)

    def test_child_closed_its_input_and_runs_on(self, deadline):
        child = python_child("import os\nos.close(0)\nprint('closed')\ntime.sleep(60)\n")
        oracle = SubprocessOracle(child, 2)
        try:
            select.select([oracle._out], [], [], 10)
            assert os.read(oracle._out, 100) == b"closed\n"  # no query was written before
            with pytest.raises(ChildExited, match="^oracle pipe closed on query 10: .*Broken pipe"):
                oracle.evaluate(0b01)
        finally:
            oracle._proc.kill()
            oracle.close()

    def test_query_text_held_once(self, deadline):
        # 2048 query lines of 20 001 bytes, far more than the pipe takes: the
        # lines not written yet are the only copy of the run's text
        n, rng = 20_000, random.Random(31)
        masks = [rng.getrandbits(n) for _ in range(2048)]
        text = len(masks) * (n + 1)
        with SubprocessOracle(python_child("sys.stdin.buffer.read()\n"), n) as oracle:
            tracemalloc.start()
            try:
                oracle._ask(masks)  # the completion is dropped unread
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 1.5 * text


class TestPipeline:
    """Each run of at most ``_RUN_MASKS`` coalitions, which may end inside a
    permutation, is asked for before the last run's values are read."""

    class Recording(FunctionOracle):
        def __init__(self, n, fn):
            super().__init__(n, fn)
            self.batches = []

        def evaluate_many(self, masks):
            self.batches.append(list(masks))
            return super().evaluate_many(masks)

    @pytest.mark.parametrize("estimator", [sample_shapley, sample_shapley_matrix])
    @pytest.mark.parametrize("n", [4, 9])
    def test_queries_in_first_appearance_order(self, deadline, n, estimator):
        table = TableOracle(random_game(random.Random(251 + n), n))
        oracle = self.Recording(n, table.evaluate)
        cfg = SamplerConfig(samples=2 * _CHUNK + 5, seed=3)
        estimator(oracle, cfg)
        asked = [mask for batch in oracle.batches for mask in batch]
        assert asked == needed_in_order(n, cfg, estimator is sample_shapley_matrix)

    @pytest.mark.parametrize("estimator", [sample_shapley, sample_shapley_matrix])
    @pytest.mark.parametrize("n, samples", [(9, _CHUNK + 300), (100, 4)])
    def test_small_memo_and_runs_change_no_estimate(
        self, deadline, monkeypatch, n, samples, estimator
    ):
        table = lowest_oracle(n) if n > 64 else TableOracle(random_game(random.Random(257), n))
        cfg = SamplerConfig(samples=samples, seed=8)
        expected = estimator(table, cfg)
        # the memo holds 50 coalitions whatever the player count: a mask of
        # 100 players takes two 64-bit words
        monkeypatch.setattr(sampling, "_MEMO_SIZE", 50 * -(-n // 64))
        monkeypatch.setattr(sampling, "_RUN_MASKS", 40)
        memo = memoized(table)
        largest = []

        def value(mask):
            largest.append(len(memo._memo) + len(memo._flight))
            return table.evaluate(mask)

        memo._oracle = FunctionOracle(n, value)
        assert repr(estimator(memo, cfg)) == repr(expected)
        assert repr(estimator(table, cfg)) == repr(expected)
        # one run plans at most 40 coalitions
        assert max(largest) <= 50 + 40

    def test_no_batch_exceeds_a_run(self, deadline, monkeypatch):
        monkeypatch.setattr(sampling, "_RUN_MASKS", 40)
        n = 12  # each of the 3 permutations plans 56 to 92 coalitions
        table = TableOracle(random_game(random.Random(263), n))
        oracle = self.Recording(n, table.evaluate)
        cfg = SamplerConfig(samples=3, seed=5)
        est = sample_shapley_matrix(oracle, cfg)
        assert max(map(len, oracle.batches)) <= 40
        assert repr(est) == repr(sample_shapley_matrix(table, cfg))

    def test_every_run_but_the_last_is_full(self, deadline, monkeypatch):
        # the memo is handed the plans themselves, duplicates included, cut
        # into runs of exactly 40 coalitions
        monkeypatch.setattr(sampling, "_RUN_MASKS", 40)
        runs = []

        class Recording(sampling.MemoOracle):
            def _ask(self, masks):
                runs.append(len(masks))
                return super()._ask(masks)

        n = 12
        table = TableOracle(random_game(random.Random(263), n))
        cfg = SamplerConfig(samples=3, seed=5)
        est = sample_shapley_matrix(Recording(table), cfg)
        planned = 0  # S+i for each i, and S-j+i and S-j for each j > i in S
        for t in range(cfg.samples):
            perm = splitmix_permutation(n, cfg.seed, t)
            planned += n + 2 * sum(j > i for k, i in enumerate(perm) for j in perm[:k])
        assert sum(runs) == planned
        assert runs[:-1] == [40] * (len(runs) - 1)
        assert 0 < runs[-1] <= 40
        assert repr(est) == repr(sample_shapley_matrix(table, cfg))

    def test_one_permutation_of_1000_players_in_128_mib(self):
        # the one plan, about 500 000 coalitions of 1000 bits, streams into
        # runs and the memo keeps 2**20 // 16 of them, so the call needs about
        # 100 MB, most of it the 1000 x 1000 matrix and its sums
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no address-space limit on this platform")
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 128 << 20 if hard == resource.RLIM_INFINITY else min(128 << 20, hard)

        def limit_address_space():  # in the child only
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

        script = (
            "from indivisible import FunctionOracle, SamplerConfig, sample_shapley_matrix\n"
            "oracle = FunctionOracle(1000, lambda mask: mask.bit_count())\n"
            "matrix = sample_shapley_matrix(oracle, SamplerConfig(samples=1, seed=1))\n"
            "print(len(matrix))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            preexec_fn=limit_address_space,
            timeout=120,
        )
        assert res.stderr == ""
        assert res.returncode == 0
        assert res.stdout == "1000\n"

    @pytest.mark.parametrize("n", [8, 9])  # 800 coalitions make 20 whole runs, 900 do not
    def test_next_run_asked_before_the_last_is_read(self, monkeypatch, n):
        monkeypatch.setattr(sampling, "_RUN_MASKS", 40)
        events = []

        class Logging(sampling.MemoOracle):
            def _ask(self, masks):
                run = sum(kind == "ask" for kind, _ in events)
                events.append(("ask", run))
                complete = super()._ask(masks)

                def logged():
                    events.append(("complete", run))
                    return complete()

                return logged

        cfg = SamplerConfig(samples=100, seed=4)
        est = sample_shapley(Logging(lowest_oracle(n)), cfg)
        assert repr(est) == repr(sample_shapley(lowest_oracle(n), cfg))
        runs = -(-n * cfg.samples // 40)
        expected = [("ask", 0)]
        for r in range(1, runs):
            expected += [("ask", r), ("complete", r - 1)]
        assert events == expected + [("complete", runs - 1)]

    def test_both_pipes_overflow(self, deadline, monkeypatch):
        # a run of 400 queries of 201 bytes fills the query pipe (64 KiB on
        # Linux); 400 replies of 5001 bytes fill the reply pipe many times over
        monkeypatch.setattr(sampling, "_RUN_MASKS", 400)
        child = python_child(
            "for line in sys.stdin:\n"
            "    print(f\"{line.find('1') + 1 + line.count('1'):>5000}\")\n"
        )
        n, cfg = 200, SamplerConfig(samples=8, seed=1)
        with SubprocessOracle(child, n) as oracle:
            est = sample_shapley(oracle, cfg)
        assert repr(est) == repr(sample_shapley(lowest_oracle(n), cfg))

    def test_child_closing_its_output_mid_run(self, deadline, monkeypatch):
        monkeypatch.setattr(sampling, "_RUN_MASKS", 40)
        child = python_child(
            "for k, line in enumerate(sys.stdin):\n"
            "    if k == 100:\n"
            "        break\n"
            "    print(line.find('1') + 1 + line.count('1'))\n"
        )
        n, cfg = 9, SamplerConfig(samples=100, seed=4)
        first_unanswered = format(needed_in_order(n, cfg, False)[100], f"0{n}b")[::-1]
        with SubprocessOracle(child, n) as oracle:
            memo = memoized(oracle)
            with pytest.raises(ChildExited, match=f"query {first_unanswered}\\b"):
                sample_shapley(memo, cfg)
        assert not memo._flight

    def test_child_values_are_gated_once(self, deadline, monkeypatch):
        gated = []
        checked = sampling._checked

        def counting(masks, values):
            gated.append(len(masks))
            return checked(masks, values)

        monkeypatch.setattr(sampling, "_checked", counting)
        n, cfg = 9, SamplerConfig(samples=300, seed=6)
        with SubprocessOracle(LOWEST_CHILD, n) as oracle:
            sample_shapley(oracle, cfg)
        assert sum(gated) == len(needed_coalitions(n, cfg, False))


class TestReplyQueue:
    """Replies go, in order, to the completions of the asks; a failed exchange
    ends the session."""

    def test_two_asks_in_flight(self, deadline):
        n = 200  # query lines of 201 bytes: 1000 of them overfill the pipe
        rng = random.Random(17)
        first = [rng.getrandbits(n) for _ in range(50)]
        second = [rng.getrandbits(n) for _ in range(1000)] + [0]
        with SubprocessOracle(LOWEST_CHILD, n) as oracle:
            complete_first = oracle._ask(first)
            complete_second = oracle._ask(second)
            assert oracle._unsent  # part of the second ask waits for the pipe
            assert complete_first() == lowest_oracle(n).evaluate_many(first)
            assert complete_second() == lowest_oracle(n).evaluate_many(second)

    def test_dropped_completion_leaves_no_reply_behind(self, deadline):
        with SubprocessOracle(MASK_CHILD, 3) as oracle:
            oracle._ask([0b001, 0b010])  # its caller failed before completing it
            assert oracle._ask([0b100, 0b011])() == [4.0, 3.0]
            assert oracle.evaluate(0b111) == 7.0

    def test_pending_run_of_a_failed_estimate_is_skipped(self, deadline, monkeypatch):
        # the first run's values are rejected while the second run is in flight
        monkeypatch.setattr(sampling, "_RUN_MASKS", 40)
        child = python_child(
            "for k, line in enumerate(sys.stdin):\n"
            "    print('1e999' if k == 3 else int(line[::-1], 2))\n"
        )
        with SubprocessOracle(child, 9) as oracle:
            with pytest.raises(ProtocolViolation, match="not a finite number"):
                sample_shapley(oracle, SamplerConfig(samples=100, seed=4))
            assert oracle.evaluate(0b101010101) == float(0b101010101)

    @pytest.mark.parametrize(
        "body, first",
        [
            (
                "for k, line in enumerate(sys.stdin):\n"
                "    print('abc' if k == 1 else 10 * line.count('1'))\n",
                ProtocolViolation,
            ),
            (
                "for line in sys.stdin:\n    sys.stdout.buffer.write(b'1\\n1\\n')\n",
                ProtocolViolation,
            ),
            ("for line in sys.stdin:\n    print(1)\n    break\n", ChildExited),
            ("for line in sys.stdin:\n    time.sleep(60)\n", ChildExited),
        ],
        ids=["malformed reply", "extra reply", "closed output", "silence"],
    )
    def test_failed_session_stays_failed(self, deadline, monkeypatch, body, first):
        monkeypatch.setattr(sampling, "_REPLY_TIMEOUT", 0.5)
        with SubprocessOracle(python_child(body), 3) as oracle:
            with pytest.raises(first) as failure:
                oracle.evaluate_many([0b001, 0b010, 0b100])
            monkeypatch.setattr(sampling, "_REPLY_TIMEOUT", 5.0)
            start = time.monotonic()
            with pytest.raises(OracleFailure) as later:
                oracle.evaluate(0b011)
            assert time.monotonic() - start < 1
            assert str(failure.value) in str(later.value)

    def test_completion_in_flight_fails_with_the_session(self, deadline):
        child = python_child("for line in sys.stdin:\n    print('abc')\n")
        with SubprocessOracle(child, 3) as oracle:
            complete_first = oracle._ask([0b001])
            complete_second = oracle._ask([0b010])
            with pytest.raises(ProtocolViolation, match="to query 100"):
                complete_first()
            with pytest.raises(OracleFailure, match="to query 100"):
                complete_second()
            with pytest.raises(OracleFailure, match="to query 100"):
                oracle._ask([0b100])


class TestOverflowingSums:
    """Finite replies whose sums overflow must not come back as nan or inf."""

    @staticmethod
    def parity_oracle(n):
        return FunctionOracle(
            n, lambda mask: 0.0 if mask == 0 else (1e308 if mask.bit_count() % 2 else -1e308)
        )

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_sample_shapley(self, exhaustive):
        cfg = SamplerConfig(samples=10, exhaustive=exhaustive)
        with pytest.raises(OracleFailure):
            sample_shapley(self.parity_oracle(3), cfg)

    def test_sample_shapley_matrix(self):
        with pytest.raises(OracleFailure):
            sample_shapley_matrix(self.parity_oracle(3), SamplerConfig(samples=10))

    def test_select_top_k(self):
        with pytest.raises(OracleFailure):
            select_top_k(self.parity_oracle(3), 1, SamplerConfig(samples=10))
