"""Monte-Carlo estimators for black-box games.

Games too large to tabulate are reachable only through a value oracle:
anything with a player count and a per-coalition evaluator.  Coalition
queries use the same bit-mask encoding as the exact modules.

Determinism contract: the estimators are pure functions of
``(oracle, samples, seed)``.  Permutation ``t`` is generated from
``(seed, t)`` by a counter-based splitmix64 stream, permutations are
processed in fixed-size chunks, and chunk partials are merged in chunk
order, so running with one worker or many gives bit-identical results.
"""

from __future__ import annotations

import math
import re
import shlex
import subprocess
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
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
    """LRU-cached view of another oracle; safe for concurrent queries."""

    def __init__(self, oracle: ValueOracle, maxsize: int = 1 << 20):
        self.n = oracle.n
        self._oracle = oracle
        self._maxsize = maxsize
        self._cache: OrderedDict[int, float] = OrderedDict()
        self._lock = threading.Lock()

    def evaluate(self, mask: int) -> float:
        with self._lock:
            if mask in self._cache:
                self._cache.move_to_end(mask)
                return self._cache[mask]
        value = self._oracle.evaluate(mask)
        with self._lock:
            self._cache[mask] = value
            if len(self._cache) > self._maxsize:
                self._cache.popitem(last=False)
        return value


def memoized(oracle: ValueOracle, maxsize: int = 1 << 20) -> ValueOracle:
    if isinstance(oracle, MemoOracle):
        return oracle
    return MemoOracle(oracle, maxsize)


class SubprocessOracle(ValueOracle):
    """Oracle that forwards coalition queries to a child process.

    Line protocol over the child's standard input/output: one query line
    per coalition, a string of ``n`` characters over ``{0,1}`` where
    character ``p`` is 1 iff player ``p`` is a member; the child replies
    with one line holding a decimal number.  Queries are serialized, so
    the oracle is safe to share between sampling workers.
    """

    def __init__(self, command: str | Sequence[str], n: int):
        self.n = n
        args = shlex.split(command) if isinstance(command, str) else list(command)
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
        self._lock = threading.Lock()

    def evaluate(self, mask: int) -> float:
        query = "".join("1" if mask >> p & 1 else "0" for p in range(self.n))
        with self._lock:
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

    def __enter__(self) -> "SubprocessOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling parameters; results depend only on (oracle, samples, seed)."""

    samples: int = 10_000
    seed: int = 0
    workers: int = 1
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
    if cfg.exhaustive:
        if n > _EXHAUSTIVE_CAP:
            raise TooManyPlayers(
                f"exhaustive mode enumerates n! permutations; capped at {_EXHAUSTIVE_CAP} players"
            )
    elif cfg.samples < 1:
        raise InvalidRange(f"sample count must be >= 1, got {cfg.samples}")
    if cfg.workers < 1:
        raise InvalidRange(f"worker count must be >= 1, got {cfg.workers}")


def _run_chunks(chunk_fn, n_chunks: int, workers: int) -> list:
    if workers <= 1 or n_chunks <= 1:
        return [chunk_fn(c) for c in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk_fn, range(n_chunks)))


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
    n = oracle.n
    _validate(cfg, n)
    ev = memoized(oracle).evaluate

    if cfg.exhaustive:
        acc = [0.0] * n
        count = 0
        for perm in permutations(range(n)):
            _marginals(perm, ev, acc)
            count += 1
        return [a / count for a in acc]

    k = cfg.samples
    n_chunks = (k + _CHUNK - 1) // _CHUNK

    def chunk(c: int) -> list[float]:
        acc = [0.0] * n
        for t in range(c * _CHUNK, min((c + 1) * _CHUNK, k)):
            _marginals(_permutation(n, cfg.seed, t), ev, acc)
        return acc

    total = [0.0] * n
    for part in _run_chunks(chunk, n_chunks, cfg.workers):
        for i in range(n):
            total[i] += part[i]
    return [x / k for x in total]


def _matrix_tails(n: int) -> list[float]:
    return [harmonic_tail(s + 1, n) for s in range(n + 1)]


def _matrix_contrib(
    perm: Sequence[int], ev, tails: Sequence[float]
) -> tuple[tuple[int, int, float], ...]:
    """Per-permutation synergy updates as (i, j, value) with i < j."""
    out = []
    prefix = 0
    prev = 0.0
    for i in perm:
        cur = ev(prefix | (1 << i))
        if prefix:
            base = cur - prev
            h = tails[prefix.bit_count()]
            rest = prefix
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                if j > i:
                    without_j = prefix ^ low
                    second = base - ev(without_j | (1 << i)) + ev(without_j)
                    out.append((i, j, second * h))
        prefix |= 1 << i
        prev = cur
    return tuple(out)


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
    n = oracle.n
    _validate(cfg, n)
    ev = memoized(oracle).evaluate
    tails = _matrix_tails(n)

    if cfg.exhaustive:
        acc = [[0.0] * n for _ in range(n)]
        count = 0
        for perm in permutations(range(n)):
            for i, j, value in _matrix_contrib(perm, ev, tails):
                acc[i][j] += value
            count += 1
        return _mirror([[x / count for x in row] for row in acc])

    k = cfg.samples
    n_chunks = (k + _CHUNK - 1) // _CHUNK
    # contributions are pure in the permutation, so repeated permutations
    # (inevitable for small n and large k) are computed once
    contrib_cache: dict[tuple[int, ...], tuple[tuple[int, int, float], ...]] = {}
    cache_cap = 1 << 16

    def chunk(c: int) -> list[list[float]]:
        acc = [[0.0] * n for _ in range(n)]
        for t in range(c * _CHUNK, min((c + 1) * _CHUNK, k)):
            perm = _permutation(n, cfg.seed, t)
            triples = contrib_cache.get(perm)
            if triples is None:
                triples = _matrix_contrib(perm, ev, tails)
                if len(contrib_cache) < cache_cap:
                    contrib_cache[perm] = triples
            for i, j, value in triples:
                acc[i][j] += value
        return acc

    total = [[0.0] * n for _ in range(n)]
    for part in _run_chunks(chunk, n_chunks, cfg.workers):
        for i in range(n):
            row = total[i]
            prow = part[i]
            for j in range(n):
                row[j] += prow[j]
    return _mirror([[x / k for x in row] for row in total])


def _mirror(mat: list[list[float]]) -> list[list[float]]:
    n = len(mat)
    for i in range(n):
        for j in range(i + 1, n):
            mat[j][i] = mat[i][j]
    return mat
