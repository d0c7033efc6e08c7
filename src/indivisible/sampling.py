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
is a single chunk over all ``n!`` permutations.  ``large.select_top_k``
takes the Shapley estimate and the synergy matrix from one pass, so it
samples each permutation once.
"""

from __future__ import annotations

import functools
import math
import re
import shlex
import subprocess
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

from .errors import (
    ChildExited,
    InvalidRange,
    OracleFailure,
    ProtocolViolation,
    SpawnFailure,
    TooManyPlayers,
)
from .games import Game

_CHUNK = 2048  # permutations per accumulation chunk; fixed for determinism
_MEMO_SIZE = 1 << 20  # coalitions kept by MemoOracle
_MASK64 = (1 << 64) - 1
_EXHAUSTIVE_CAP = 9
_DECIMAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


class ValueOracle:
    """A black-box game: a player count and a coalition evaluator.

    ``evaluate`` must be deterministic per coalition within one run and
    must return 0 for the empty coalition.
    """

    n: int

    def evaluate(self, mask: int) -> float:
        raise NotImplementedError


class TableOracle(ValueOracle):
    """Oracle view of an explicit game table."""

    def __init__(self, game: Game):
        self.n = game.n
        self._values = game.values

    def evaluate(self, mask: int) -> float:
        return float(self._values[mask])


class FunctionOracle(ValueOracle):
    """Oracle wrapping a plain callable from coalition mask to value."""

    def __init__(self, n: int, fn: Callable[[int], float]):
        self.n = n
        self._fn = fn

    def evaluate(self, mask: int) -> float:
        try:
            return float(self._fn(mask))
        except OracleFailure:
            raise
        except Exception as exc:
            raise OracleFailure(f"oracle failed on coalition mask {mask:b}: {exc}") from exc


class MemoOracle(ValueOracle):
    """LRU-cached view of another oracle, keeping ``_MEMO_SIZE`` coalitions."""

    def __init__(self, oracle: ValueOracle):
        self.n = oracle.n
        self._lookup = functools.lru_cache(maxsize=_MEMO_SIZE)(oracle.evaluate)

    def evaluate(self, mask: int) -> float:
        return self._lookup(mask)


def memoized(oracle: ValueOracle) -> ValueOracle:
    if isinstance(oracle, MemoOracle):
        return oracle
    return MemoOracle(oracle)


class SubprocessOracle(ValueOracle):
    """Oracle that forwards coalition queries to a child process.

    Line protocol over the child's standard input/output: one query line
    per coalition, a string of ``n`` characters over ``{0,1}`` where
    character ``p`` is 1 iff player ``p`` is a member; the child replies
    with one line holding a decimal number.  Queries go one at a time:
    each waits for its reply before the next is written.
    """

    def __init__(self, command: str | Sequence[str], n: int):
        if n < 1:
            raise InvalidRange(f"player count must be >= 1, got {n}")
        self.n = n
        try:
            args = shlex.split(command) if isinstance(command, str) else list(command)
        except ValueError as exc:
            raise SpawnFailure(f"cannot parse oracle command {command!r}: {exc}") from exc
        if not args:
            raise SpawnFailure("empty oracle command")
        try:
            self._proc = subprocess.Popen(
                args,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise SpawnFailure(f"cannot spawn oracle {args!r}: {exc}") from exc

    def evaluate(self, mask: int) -> float:
        query = "".join("1" if mask >> p & 1 else "0" for p in range(self.n))
        if self._proc.poll() is not None:
            raise ChildExited(
                f"oracle exited with status {self._proc.returncode} before query {query}"
            )
        try:
            self._proc.stdin.write(query + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ChildExited(f"oracle pipe closed on query {query}: {exc}") from exc
        reply = self._proc.stdout.readline()
        if reply == "":
            raise ChildExited(f"oracle closed its output on query {query}")
        text = reply.strip()
        if not _DECIMAL_RE.fullmatch(text):
            raise ProtocolViolation(f"malformed oracle reply {text!r} to query {query}")
        value = float(text)
        if not math.isfinite(value):
            raise ProtocolViolation(f"non-finite oracle reply {text!r} to query {query}")
        if mask == 0 and value != 0.0:
            raise ProtocolViolation(f"empty coalition must be worth 0, oracle said {text!r}")
        return value

    def close(self) -> None:
        proc = self._proc
        if proc.stdin and not proc.stdin.closed:
            try:
                proc.stdin.close()
            except OSError:
                pass
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout:
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
    if start < 1 or start > end + 1:
        raise InvalidRange(f"need 1 <= start <= end+1, got start={start}, end={end}")
    total = 0.0
    for t in range(start, end + 1):
        total += 1.0 / t
    return total


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _permutation(n: int, seed: int, t: int) -> tuple[int, ...]:
    """Fisher-Yates permutation from the counter-based stream (seed, t)."""
    state = ((seed & _MASK64) * 0xA24BAED4963EE407 + t * 0x9FB21C651E98DF25 + 1) & _MASK64
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        state, word = _splitmix64(state)
        j = word % (i + 1)
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
    oracle: ValueOracle, cfg: SamplerConfig, size: int, add: Callable
) -> tuple[list[float], int]:
    """Sum ``add(perm, ev, part)`` over the configured permutations.

    Returns ``size`` flat totals and the permutation count.  Each chunk of
    ``_CHUNK`` permutations is summed into its own partial, and partials
    are merged in chunk order; exhaustive mode is a single chunk.
    """
    n = oracle.n
    _validate(cfg, n)
    ev = memoized(oracle).evaluate
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
            add(perm, ev, part)
        total = [a + b for a, b in zip(total, part)]
    return total, count


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
    total, count = _sums(oracle, cfg, oracle.n, _marginals)
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

    def add(perm: Sequence[int], ev, acc: list[float]) -> None:
        prefix = 0
        prev = 0.0
        for i in perm:
            cur = ev(prefix | (1 << i))
            base = cur - prev
            acc[phi_at + i] += base
            if prefix:
                h = tails[prefix.bit_count()]
                row = i * n
                rest = prefix
                while rest:
                    low = rest & -rest
                    rest ^= low
                    j = low.bit_length() - 1
                    if j > i:
                        without_j = prefix ^ low
                        second = base - ev(without_j | (1 << i)) + ev(without_j)
                        acc[row + j] += second * h
            prefix |= 1 << i
            prev = cur

    total, count = _sums(oracle, cfg, phi_at + n, add)
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
