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
comes in two halves: a query plan, which yields the coalitions one
permutation needs, and the sum itself.  ``_sums`` runs them as two streams
over the same permutations.  The planner chains the plans into one stream
of coalitions and cuts it with ``islice`` into runs of at most
``_RUN_MASKS``, which may end inside a permutation, so no whole plan is
held; it hands each run to the memo, which drops hits, duplicates and
coalitions already asked, and asks the wrapped oracle for the rest in one
batch.  It asks for run ``r + 1`` before run ``r`` is read, so a
child-process oracle answers the next run while this process sums the
last one.  The memo gives back each run's values in plan order, and the
summer reads them in that order, so neither the plans nor the runs change
an estimate.  ``large.select_top_k`` takes the Shapley estimate and the
synergy matrix from one pass, so it samples each permutation once.
"""

from __future__ import annotations

import math
import os
import re
import select
import shlex
import subprocess
import time
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, islice, pairwise, permutations, tee
from operator import or_
from typing import Callable, Iterator, Sequence

from .errors import (
    ChildExited,
    InvalidRange,
    OracleFailure,
    ProtocolViolation,
    SpawnFailure,
    TooManyPlayers,
)
from .games import Game, _check_coalition, _shown, _whole

_CHUNK = 2048  # permutations per accumulation chunk; fixed for determinism
_MEMO_SIZE = 1 << 20  # coalitions kept by MemoOracle
_RUN_MASKS = 1 << 11  # the most coalitions asked of the memo at once
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

    def _ask(self, masks: Sequence[int]) -> Callable[[], list]:
        """Start evaluating ``masks``; returns their completion, a call that
        gives their values, in order and unchecked.  Each completion is
        called once, in the order of the asks, unless its caller fails first
        and drops it.  This one evaluates at once."""
        values = self.evaluate_many(masks)
        return lambda: values


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
    """Oracle wrapping a plain callable from coalition mask to value; the
    value is returned as it is, for the estimators to convert and check."""

    def __init__(self, n: int, fn: Callable[[int], float]):
        self.n = _whole(n, "player count", 1)
        self._fn = fn

    def evaluate(self, mask: int) -> float:
        _check_coalition(mask, self.n, "coalition")
        try:
            return self._fn(mask)
        except OracleFailure:
            raise
        except Exception as exc:
            raise OracleFailure(f"oracle failed on coalition mask {mask:b}: {exc}") from exc


class MemoOracle(ValueOracle):
    """Cached view of another oracle.

    ``_ask`` is the one place that asks the wrapped oracle, checks and
    caches its values and starts the cache over, which it does at an ask
    once the cached and in-flight coalitions together number
    ``_MEMO_SIZE`` divided by the 64-bit words of a mask, so the cache
    holds about as many mask words at any player count.  Each completion
    reads the cache it was asked against, so completions still due when
    the cache starts over give their values as before.
    """

    def __init__(self, oracle: ValueOracle):
        self.n = oracle.n
        self._oracle = oracle
        self._memo: dict[int, float] = {}
        self._flight: set[int] = set()  # asked of the wrapped oracle, not cached yet

    def evaluate(self, mask: int) -> float:
        _check_coalition(mask, self.n, "coalition")
        return self._ask([mask])()[0]

    def _ask(self, masks: Sequence[int]) -> Callable[[], list]:
        """Ask the wrapped oracle, in one batch, for each of ``masks`` that is
        neither cached nor in flight yet, each mask once.  The completion
        checks and caches their values and gives the values of ``masks``,
        in order."""
        if len(self._memo) + len(self._flight) >= _MEMO_SIZE // ((self.n + 63) // 64):
            self._memo, self._flight = {}, set()
        memo, flight = self._memo, self._flight
        unseen = dict.fromkeys([m for m in masks if m not in memo])
        missing = [m for m in unseen if m not in flight]
        if missing:
            complete = self._oracle._ask(missing)
            flight.update(missing)

        def cache() -> list[float]:
            if missing:
                flight.difference_update(missing)  # answered or failed, no longer asked
                memo.update(zip(missing, _checked(missing, complete())))
            return list(map(memo.__getitem__, masks))

        return cache


def memoized(oracle: ValueOracle) -> ValueOracle:
    if isinstance(oracle, MemoOracle):
        return oracle
    return MemoOracle(oracle)


class SubprocessOracle(ValueOracle):
    """Oracle that forwards coalition queries to a child process.

    Line protocol over the child's standard input/output: one query line
    per coalition, a string of ``n`` characters over ``{0,1}`` where
    character ``p`` is 1 iff player ``p`` is a member; the child replies
    with one line holding a decimal number, in query order.  ``_ask``
    queues a batch and writes what the pipe takes; its completion pumps
    both pipes until the replies up to that batch's last are read.  A
    pending query is kept once, as its mask; its text is rendered line by
    line into the unsent bytes, and again only for an error message that
    names it, so the parent holds one copy of the text of each run it has
    asked and not yet written.  Both
    pipes are non-blocking and the pump waits in ``select`` only when
    neither can move, so neither process can block on a full pipe.  A
    child that owes replies and sends nothing for ``_REPLY_TIMEOUT``
    seconds is killed.  The first failed exchange ends the session: every
    later query raises an ``OracleFailure`` that names it.
    """

    def __init__(self, command: str | Sequence[str], n: int):
        self.n = _whole(n, "player count", 1)
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
        self._in = self._proc.stdin.fileno()
        self._out = self._proc.stdout.fileno()
        os.set_blocking(self._in, False)  # both pipes wait in one select
        os.set_blocking(self._out, False)
        self._unsent = bytearray()  # query lines not written yet
        self._owed = 0  # query lines written whose replies have not been read
        self._queries: deque[int] = deque()  # masks asked and not answered yet, oldest first
        self._replies: list[float] = []  # replies read and not taken by a completion yet
        self._taken = 0  # replies taken off the front of ``_replies``
        self._partial = b""  # the start of a reply whose line has not ended yet
        self._broken: OSError | None = None  # why the child takes no more queries
        self._failure: OracleFailure | None = None  # the exchange that ended the session

    def evaluate(self, mask: int) -> float:
        return self.evaluate_many([mask])[0]

    def evaluate_many(self, masks: Sequence[int]) -> list[float]:
        self._live()  # a failed session is reported before a bad mask
        for mask in masks:
            _check_coalition(mask, self.n, "coalition")
        return _checked(masks, self._ask(masks)())

    def _ask(self, masks: Sequence[int]) -> Callable[[], list]:
        """Queue one query per mask, append their lines to the unsent bytes
        one at a time and write what the pipe takes now; the completion
        pumps until they are answered.  The masks are not checked here:
        ``evaluate_many`` checks the masks it is given, and ``MemoOracle``
        asks only for masks its planner built or its ``evaluate`` checked."""
        self._live()
        start = self._taken + len(self._replies) + len(self._queries)  # replies due before these
        if masks:
            if not self._queries and self._proc.poll() is not None:
                status, query = self._proc.returncode, self._line(masks[0])
                raise ChildExited(f"oracle exited with status {status} before query {query}")
            self._queries += masks
            if self._broken is None:
                for mask in masks:
                    self._unsent += self._line(mask).encode() + b"\n"
                self._write()

        def complete() -> list[float]:
            self._live()
            skip = start - self._taken  # replies to earlier asks whose completion was dropped
            end = skip + len(masks)
            if len(self._replies) < end:
                try:
                    self._pump(end)
                except OracleFailure as exc:
                    self._failure = exc
                    raise
            values = self._replies[skip:end]
            del self._replies[:end]
            self._taken += end
            return values

        return complete

    def _line(self, mask: int) -> str:
        """The query text of ``mask``: character ``p`` is bit ``p``."""
        return bin(mask)[:1:-1].ljust(self.n, "0")

    def _live(self) -> None:
        """Raise if an exchange failed: later replies may answer other queries."""
        if self._failure is not None:
            raise OracleFailure(f"oracle session ended at an earlier failure: {self._failure}")

    def _write(self) -> bool:
        """Write what the pipe takes of the unsent queries; whether it moved."""
        try:
            sent = os.write(self._in, self._unsent)
        except BlockingIOError:
            return False
        except OSError as exc:  # a broken pipe included: the rest can never be answered
            self._broken = exc
            self._unsent.clear()
            return True
        self._owed += self._unsent.count(b"\n", 0, sent)
        del self._unsent[:sent]
        return True

    def _pump(self, count: int) -> None:
        """Write queued queries and read replies until ``count`` replies wait."""
        out = self._out
        deadline = None
        while len(self._replies) < count:
            if not self._owed and self._broken is not None:
                raise ChildExited(
                    f"oracle pipe closed on query {self._line(self._queries[0])}: {self._broken}"
                ) from self._broken
            wrote = bool(self._unsent) and self._write()
            try:
                chunk = os.read(out, _READ_SIZE)
            except BlockingIOError:  # nothing to read yet
                if wrote:
                    continue
                now = time.monotonic()
                if deadline is None:
                    deadline = now + _REPLY_TIMEOUT
                ready = select.select(
                    [out], [self._in] if self._unsent else [], [], max(0.0, deadline - now)
                )
                if not any(ready):
                    self._proc.kill()
                    raise ChildExited(
                        f"oracle sent no reply for {_REPLY_TIMEOUT:g} s "
                        f"to query {self._line(self._queries[0])}"
                    ) from None
                continue
            if not chunk:
                query = self._line(self._queries[0])
                raise ChildExited(f"oracle closed its output on query {query}")
            deadline = None
            self._take(chunk)

    def _take(self, chunk: bytes) -> None:
        """Append the replies in ``chunk``, each answering the oldest unanswered query."""
        *replies, self._partial = (self._partial + chunk).split(b"\n")
        owed = self._owed
        if len(replies) + (self._partial != b"") > owed:  # bytes past the last query sent
            raise ProtocolViolation(
                f"oracle sent more replies than the {self._taken + len(self._replies) + owed} "
                "queries written to it"
            )
        self._owed = owed - len(replies)
        for reply in replies:
            mask = self._queries.popleft()
            # an undecodable reply then fails the decimal check
            text = reply.decode("utf-8", "replace").strip()
            if not _DECIMAL_RE.fullmatch(text):
                query = self._line(mask)
                raise ProtocolViolation(f"malformed oracle reply {text!r} to query {query}")
            self._replies.append(float(text))

    def close(self) -> None:
        """End the session: close the child's input, reap the child and close
        its output.  A child whose exchange failed, or that owes replies
        nobody will now read, is killed at once: it may be blocked writing
        into a full pipe.  Any other child is killed only if it has not
        exited 5 s after its input closed."""
        proc = self._proc
        try:
            if self._failure is not None or self._queries:
                proc.kill()
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
    for name, kind in (("samples", int), ("seed", int), ("exhaustive", bool)):
        value = getattr(cfg, name)
        if not isinstance(value, kind):
            raise InvalidRange(f"{name} must be of type {kind.__name__}, got {_shown(value)}")
    if cfg.exhaustive:
        if n > _EXHAUSTIVE_CAP:
            raise TooManyPlayers(
                f"exhaustive mode enumerates n! permutations; capped at {_EXHAUSTIVE_CAP} players"
            )
    elif cfg.samples < 1:
        raise InvalidRange(f"sample count must be >= 1, got {_shown(cfg.samples)}")


def _sums(
    oracle: ValueOracle, cfg: SamplerConfig, size: int, plan: Callable, add: Callable
) -> tuple[list[float], int]:
    """Sum ``add(perm, values, part)`` over the configured permutations.

    ``plan(perm)`` yields every coalition that ``add`` reads for ``perm``,
    in the order it reads them; ``values`` is an iterator over the values
    of all the plans, in order, and ``add`` takes the values of ``perm``'s
    plan off its front.  Two streams share the permutations: the planner
    chains the plans into one stream of coalitions, asks the memo for
    consecutive ``islice`` runs of at most ``_RUN_MASKS`` of them, which
    may end inside a permutation, and asks for run ``r + 1`` before run
    ``r``'s completion is called; the summer reads the completions'
    values in order.  Returns ``size`` flat totals and the permutation
    count.  Each chunk of ``_CHUNK`` permutations is summed into its own
    partial, and partials are merged in chunk order; exhaustive mode is a
    single chunk.
    """
    n = oracle.n
    _validate(cfg, n)
    memo = memoized(oracle)
    if cfg.exhaustive:
        count = chunk = math.factorial(n)
        perms = permutations(range(n))
    else:
        count, chunk = cfg.samples, _CHUNK
        perms = (_permutation(n, cfg.seed, t) for t in range(count))
    ahead, behind = tee(perms)
    masks = chain.from_iterable(map(plan, ahead))
    asks = map(memo._ask, iter(lambda: list(islice(masks, _RUN_MASKS)), []))
    # pairwise asks for run r + 1 before it hands out run r's completion
    values = chain.from_iterable(complete() for complete, _ in pairwise(chain(asks, [None])))
    total = [0.0] * size
    try:
        for _ in range(0, count, chunk):
            part = [0.0] * size
            for perm in islice(behind, chunk):
                add(perm, values, part)
            total = [a + b for a, b in zip(total, part)]
    finally:
        memo._flight.clear()  # after a failure, no completion is coming
    if not all(map(math.isfinite, total)):
        raise OracleFailure("sampled sums overflow: oracle values are too large for floats")
    return total, count


def _prefixes(perm: Sequence[int]) -> Iterator[int]:
    """The query plan of ``_marginals``: the ``n`` prefixes of ``perm``."""
    return accumulate((1 << i for i in perm), or_)


def _marginals(perm: Sequence[int], values, out: list[float]) -> None:
    prev = 0.0
    for i, cur in zip(perm, values):  # perm ends the zip before it takes a value
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

    def plan(perm: Sequence[int]) -> Iterator[int]:
        """Each prefix ``S+i``, and ``S-j+i`` and ``S-j`` for each predecessor ``j > i``."""
        prefix = 0
        for i in perm:
            bit = 1 << i
            yield prefix | bit
            rest = prefix >> (i + 1) << (i + 1)
            while rest:
                low = rest & -rest
                rest ^= low
                yield (prefix ^ low) | bit
                yield prefix ^ low
            prefix |= bit

    def add(perm: Sequence[int], values, acc: list[float]) -> None:
        prefix = 0
        prev = 0.0
        for i in perm:
            cur = next(values)
            base = cur - prev
            acc[phi_at + i] += base
            rest = prefix >> (i + 1) << (i + 1)  # the predecessors j > i
            if rest:
                h = tails[prefix.bit_count()]
                row = i * n - 1  # j's slot i*n + j is row + low.bit_length()
                while rest:
                    low = rest & -rest
                    rest ^= low
                    second = base - next(values) + next(values)  # v(S-j+i), then v(S-j)
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
