"""Monte-Carlo estimators for black-box games.

Games too large to tabulate are reachable only through a value oracle:
anything with a player count and a per-coalition evaluator.  Coalition
queries use the same bit-mask encoding as the exact modules.

Determinism contract: the estimators are pure functions of
``(oracle, samples, seed)``.  Permutation ``t`` is generated from
``(seed, t)`` by a counter-based splitmix64 stream, and permutations are
summed in fixed-size chunks whose partials are merged in chunk order.
That fixes the float summation order, so the same inputs and seed give
bit-identical estimates on every run.

Both estimators run through one summing loop, ``_sums``; exhaustive mode
is a single chunk over all ``n!`` permutations.  Each estimator update
comes in two halves: a query plan, the coalitions one permutation needs,
and the sum itself.  ``_sums`` hands every permutation's plan to the
memo, which drops hits and duplicates and asks the wrapped oracle for the
rest in one ``evaluate_many`` call; the sum then reads each value straight
from the memo, in the same order as before, so the plans change no
estimate.  Once the memo holds all ``2**n`` coalitions, planning stops.
A child-process oracle thus answers each permutation in a few pipe
exchanges instead of one round trip per coalition.  ``large.select_top_k``
takes the Shapley estimate and the synergy matrix from one pass, so it
samples each permutation once.
"""

from __future__ import annotations

import math
import os
import re
import select
import shlex
import subprocess
from dataclasses import dataclass
from itertools import accumulate, permutations
from operator import or_
from typing import Callable, Sequence

from .errors import (
    ChildExited,
    InvalidRange,
    OracleFailure,
    ProtocolViolation,
    SpawnFailure,
    TooManyPlayers,
)
from .games import Game, _check_coalition, _whole

_CHUNK = 2048  # permutations per accumulation chunk; fixed for determinism
_MEMO_SIZE = 1 << 20  # coalitions kept by MemoOracle
_MASK64 = (1 << 64) - 1
_EXHAUSTIVE_CAP = 9
_DECIMAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_REPLY_TIMEOUT = 60.0  # seconds a child oracle may stay silent while it owes replies
_READ_SIZE = 1 << 16


class ValueOracle:
    """A black-box game: a player count and a coalition evaluator.

    ``evaluate`` must be deterministic per coalition within one run.  The
    estimators read every value through ``memoized``, which checks it as it
    stores it: there must be one value per coalition asked, each a number
    ``float`` accepts (``Fraction`` included), finite, and 0 for the empty
    coalition.  A value that breaks a rule raises ``ProtocolViolation``.
    """

    n: int

    def evaluate(self, mask: int) -> float:
        raise NotImplementedError

    def evaluate_many(self, masks: Sequence[int]) -> list[float]:
        """The values of ``masks``, in order; oracles that can answer a batch
        faster than one coalition at a time override this."""
        return [self.evaluate(mask) for mask in masks]


def _checked(masks: Sequence[int], values) -> list[float]:
    """``values``, the oracle's answers to ``masks``, as floats, if there is one
    per mask and each is finite, and 0 for the empty coalition; otherwise
    ``ProtocolViolation``.  The batch is checked whole; it is scanned value
    by value only to name the value at fault."""
    values = list(values)
    if len(values) != len(masks):
        raise ProtocolViolation(f"oracle gave {len(values)} values for {len(masks)} coalitions")
    try:
        floats = list(map(float, values))
    except (TypeError, ValueError, OverflowError):
        floats = None  # some value is not a number; the scan below names it
    if (
        floats is not None
        and all(map(math.isfinite, floats))
        and (0 not in masks or not any(x for mask, x in zip(masks, floats) if not mask))
    ):
        return floats
    for mask, value in zip(masks, values):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if not math.isfinite(number):
            raise ProtocolViolation(
                f"oracle value {value!r} for coalition mask {mask:b} is not a finite number"
            )
        if not mask and number:
            raise ProtocolViolation(f"empty coalition must be worth 0, oracle said {value!r}")


class TableOracle(ValueOracle):
    """Oracle view of an explicit game table."""

    def __init__(self, game: Game):
        self.n = game.n
        self._values = game.values

    def evaluate(self, mask: int) -> float:
        _check_coalition(mask, self.n, "coalition")
        return float(self._values[mask])


class FunctionOracle(ValueOracle):
    """Oracle wrapping a plain callable from coalition mask to value."""

    def __init__(self, n: int, fn: Callable[[int], float]):
        self.n = _whole(n, "player count", 1)
        self._fn = fn

    def evaluate(self, mask: int) -> float:
        try:
            return float(self._fn(mask))
        except OracleFailure:
            raise
        except Exception as exc:
            raise OracleFailure(f"oracle failed on coalition mask {mask:b}: {exc}") from exc


class MemoOracle(ValueOracle):
    """Cached view of another oracle; the cache starts over at ``_MEMO_SIZE``."""

    def __init__(self, oracle: ValueOracle):
        self.n = oracle.n
        self._oracle = oracle
        self._memo: dict[int, float] = {}

    def evaluate(self, mask: int) -> float:
        value = self._memo.get(mask)  # oracle values are floats, never None
        if value is None:
            _check_coalition(mask, self.n, "coalition")
            if len(self._memo) >= _MEMO_SIZE:
                self._memo.clear()
            value = self._memo[mask] = _checked([mask], [self._oracle.evaluate(mask)])[0]
        return value

    def _fill(self, masks: Sequence[int]) -> None:
        """Cache every one of ``masks``, asking the wrapped oracle for those
        not cached yet in one ``evaluate_many`` call, each mask once."""
        memo = self._memo
        if len(memo) >= _MEMO_SIZE:
            memo.clear()
        missing = [mask for mask in dict.fromkeys(masks) if mask not in memo]
        if missing:
            memo.update(zip(missing, _checked(missing, self._oracle.evaluate_many(missing))))


def memoized(oracle: ValueOracle) -> ValueOracle:
    if isinstance(oracle, MemoOracle):
        return oracle
    return MemoOracle(oracle)


class SubprocessOracle(ValueOracle):
    """Oracle that forwards coalition queries to a child process.

    Line protocol over the child's standard input/output: one query line
    per coalition, a string of ``n`` characters over ``{0,1}`` where
    character ``p`` is 1 iff player ``p`` is a member; the child replies
    with one line holding a decimal number.  ``evaluate_many`` writes its
    queries in batches of at most ``select.PIPE_BUF`` bytes, one write per
    batch, and reads every reply of a batch before it writes the next, so
    neither process can block on a full pipe.  A child that owes replies
    and sends nothing for ``_REPLY_TIMEOUT`` seconds is killed, and the
    query raises ``ChildExited``.
    """

    def __init__(self, command: str | Sequence[str], n: int):
        self.n = _whole(n, "player count", 1)
        self._width = f"0{self.n}b"
        self._batch = max(1, select.PIPE_BUF // (self.n + 1))  # query lines per write
        try:
            args = shlex.split(command) if isinstance(command, str) else list(command)
        except ValueError as exc:
            raise SpawnFailure(f"cannot parse oracle command {command!r}: {exc}") from exc
        if not args:
            raise SpawnFailure("empty oracle command")
        try:
            self._proc = subprocess.Popen(
                args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
            )
        except OSError as exc:
            raise SpawnFailure(f"cannot spawn oracle {args!r}: {exc}") from exc
        os.set_blocking(self._proc.stdout.fileno(), False)  # reads wait in select

    def evaluate(self, mask: int) -> float:
        return self.evaluate_many([mask])[0]

    def evaluate_many(self, masks: Sequence[int]) -> list[float]:
        for mask in masks:
            _check_coalition(mask, self.n, "coalition")
        values: list[float] = []
        for start in range(0, len(masks), self._batch):
            self._exchange(masks[start : start + self._batch], values)
        return _checked(masks, values)

    def _exchange(self, masks: Sequence[int], values: list[float]) -> None:
        """Write one batch of queries, then append the values of its replies."""
        proc = self._proc
        queries = [format(mask, self._width)[::-1] for mask in masks]  # character p is bit p
        if proc.poll() is not None:
            raise ChildExited(
                f"oracle exited with status {proc.returncode} before query {queries[0]}"
            )
        data = ("\n".join(queries) + "\n").encode()
        try:
            while data:  # one whole write, unless a single query exceeds PIPE_BUF
                data = data[os.write(proc.stdin.fileno(), data) :]
        except OSError as exc:  # a broken pipe included
            raise ChildExited(f"oracle pipe closed on query {queries[0]}: {exc}") from exc
        out = proc.stdout.fileno()
        done = 0
        pending = b""  # the start of a reply whose line has not ended yet
        while done < len(queries):
            try:
                chunk = os.read(out, _READ_SIZE)
            except BlockingIOError:  # nothing to read yet: wait, up to the deadline
                if not select.select([out], [], [], _REPLY_TIMEOUT)[0]:
                    proc.kill()
                    raise ChildExited(
                        f"oracle sent no reply for {_REPLY_TIMEOUT:g} s to query {queries[done]}"
                    ) from None
                continue
            if not chunk:
                raise ChildExited(f"oracle closed its output on query {queries[done]}")
            *replies, pending = (pending + chunk).split(b"\n")
            if len(replies) + (pending != b"") > len(queries) - done:  # bytes past the last reply
                raise ProtocolViolation(
                    f"oracle sent more replies than the {len(queries)} queries up to {queries[-1]}"
                )
            for reply in replies:
                query = queries[done]
                # an undecodable reply then fails the decimal check
                text = reply.decode("utf-8", "replace").strip()
                if not _DECIMAL_RE.fullmatch(text):
                    raise ProtocolViolation(f"malformed oracle reply {text!r} to query {query}")
                values.append(float(text))
                done += 1

    def close(self) -> None:
        """End the session: close the child's input, reap the child (killed
        if it has not exited 5 s later) and close its output."""
        proc = self._proc
        try:
            proc.stdin.close()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        finally:
            proc.stdout.close()

    def __enter__(self) -> "SubprocessOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling parameters; results depend only on (oracle, samples, seed)."""

    samples: int = 10_000
    seed: int = 0
    exhaustive: bool = False


def harmonic_tail(start: int, end: int) -> float:
    """Sum of 1/t for t from ``start`` to ``end`` inclusive; empty sum is 0."""
    first = _whole(start, "start", 1)
    total = 0.0
    for t in range(first, _whole(end, "end", first - 1) + 1):
        total += 1.0 / t
    return total


def _permutation(n: int, seed: int, t: int) -> tuple[int, ...]:
    """Fisher-Yates permutation from the counter-based stream (seed, t).

    Each swap draws one splitmix64 output, computed in line.
    """
    state = ((seed & _MASK64) * 0xA24BAED4963EE407 + t * 0x9FB21C651E98DF25 + 1) & _MASK64
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        j = (z ^ (z >> 31)) % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def _validate(cfg: SamplerConfig, n: int) -> None:
    for name in ("samples", "seed"):
        value = getattr(cfg, name)
        if not isinstance(value, int):
            raise InvalidRange(f"{name} must be an int, got {value!r}")
    if cfg.exhaustive:
        if n > _EXHAUSTIVE_CAP:
            raise TooManyPlayers(
                f"exhaustive mode enumerates n! permutations; capped at {_EXHAUSTIVE_CAP} players"
            )
    elif cfg.samples < 1:
        raise InvalidRange(f"sample count must be >= 1, got {cfg.samples}")


def _sums(
    oracle: ValueOracle, cfg: SamplerConfig, size: int, plan: Callable, add: Callable
) -> tuple[list[float], int]:
    """Sum ``add(perm, ev, part)`` over the configured permutations.

    ``plan(perm)`` lists every coalition that ``add`` evaluates for
    ``perm``.  The memo caches them all before ``add`` runs, so ``ev``
    is a plain lookup in the memo's dict.  Returns ``size`` flat totals
    and the permutation count.  Each chunk of ``_CHUNK`` permutations is
    summed into its own partial, and partials are merged in chunk order;
    exhaustive mode is a single chunk.
    """
    n = oracle.n
    _validate(cfg, n)
    memo = memoized(oracle)
    cached = memo._memo
    ev = cached.__getitem__
    everything = 1 << n
    if cfg.exhaustive:
        count = math.factorial(n)
        chunks = [permutations(range(n))]
    else:
        count = cfg.samples
        chunks = (
            (_permutation(n, cfg.seed, t) for t in range(start, min(start + _CHUNK, count)))
            for start in range(0, count, _CHUNK)
        )
    total = [0.0] * size
    for chunk in chunks:
        part = [0.0] * size
        for perm in chunk:
            if len(cached) < everything:
                memo._fill(plan(perm))
            add(perm, ev, part)
        total = [a + b for a, b in zip(total, part)]
    if not all(map(math.isfinite, total)):
        raise OracleFailure("sampled sums overflow: oracle values are too large for floats")
    return total, count


def _prefixes(perm: Sequence[int]) -> list[int]:
    """The query plan of ``_marginals``: the ``n`` prefixes of ``perm``."""
    return list(accumulate([1 << i for i in perm], or_))


def _marginals(perm: Sequence[int], ev, out: list[float]) -> None:
    prefix = 0
    prev = 0.0
    for i in perm:
        prefix |= 1 << i
        cur = ev(prefix)
        out[i] += cur - prev
        prev = cur


def sample_shapley(oracle: ValueOracle, cfg: SamplerConfig = SamplerConfig()) -> list[float]:
    """Shapley estimate: mean marginal-contribution vector over permutations.

    In exhaustive mode every permutation is visited once, which turns the
    estimate into the exact value up to float summation error.
    """
    total, count = _sums(oracle, cfg, oracle.n, _prefixes, _marginals)
    return [x / count for x in total]


def _shapley_and_matrix(
    oracle: ValueOracle, cfg: SamplerConfig
) -> tuple[list[float], list[list[float]]]:
    """``sample_shapley`` and ``sample_shapley_matrix`` from one pass.

    The flat totals hold the synergy sums at ``i*n + j`` (only ``i < j``
    is updated) followed by the marginal sums at ``n*n + i``.
    """
    n = oracle.n
    tails = [harmonic_tail(s + 1, n) for s in range(n + 1)]
    phi_at = n * n

    def plan(perm: Sequence[int]) -> list[int]:
        """Each prefix ``S+i``, and ``S-j+i`` and ``S-j`` for each predecessor ``j > i``."""
        masks = []
        prefix = 0
        for i in perm:
            bit = 1 << i
            masks.append(prefix | bit)
            rest = prefix >> (i + 1) << (i + 1)
            while rest:
                low = rest & -rest
                rest ^= low
                masks.append((prefix ^ low) | bit)
                masks.append(prefix ^ low)
            prefix |= bit
        return masks

    def add(perm: Sequence[int], ev, acc: list[float]) -> None:
        prefix = 0
        prev = 0.0
        for i in perm:
            cur = ev(prefix | (1 << i))
            base = cur - prev
            acc[phi_at + i] += base
            rest = prefix >> (i + 1) << (i + 1)  # the predecessors j > i
            if rest:
                h = tails[prefix.bit_count()]
                row = i * n - 1  # j's slot i*n + j is row + low.bit_length()
                while rest:
                    low = rest & -rest
                    rest ^= low
                    without_j = prefix ^ low
                    second = base - ev(without_j | (1 << i)) + ev(without_j)
                    acc[row + low.bit_length()] += second * h
            prefix |= 1 << i
            prev = cur

    total, count = _sums(oracle, cfg, phi_at + n, plan, add)
    # the lower triangle mirrors the upper one; the diagonal was never updated
    matrix = [[total[min(i, j) * n + max(i, j)] / count for j in range(n)] for i in range(n)]
    return [x / count for x in total[phi_at:]], matrix


def sample_shapley_matrix(
    oracle: ValueOracle, cfg: SamplerConfig = SamplerConfig()
) -> list[list[float]]:
    """Synergy-matrix estimate from sampled permutations.

    For every sampled permutation and player ``i`` with prefix ``S``, each
    predecessor ``j > i`` receives the second difference
    ``v(S+i) - v(S) - v(S-j+i) + v(S-j)`` weighted by the harmonic tail
    over sizes ``|S|+1 .. n``.  The upper triangle is mirrored afterwards;
    the diagonal is never updated and stays 0 (the exact matrix carries
    the true diagonal).
    """
    return _shapley_and_matrix(oracle, cfg)[1]
