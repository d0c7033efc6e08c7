"""Spans around the library's public functions, recorded from outside.

``install`` replaces each traced function wherever the package binds it
(``indivisible.isv.shapley_exact`` is the same object as
``indivisible.games.shapley_exact``, and both are wrapped), and each
traced method on its class.  A span records its name, start, end, parent
span and the operation (one command of one round) it ran under.  Spans
live in flat arrays; at the end of each round they are folded into
totals per name, from which the per-layer metrics are derived, and the
first round's spans are written out when the run ends.  A name the package
no longer has is listed in ``Tracer.missing`` and its metrics are left
out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

# "<module>.<name>" under the indivisible package; "<module>.<Class>.<method>"
# wraps a method on its class
TRACED = [
    "formats.parse_game",
    "formats.parse_owner_list",
    "formats.parse_approval_profile",
    "formats.parse_regional",
    "formats.parse_vector",
    "formats.format_value",
    "games.make_game",
    "games.harsanyi_dividends",
    "games.shapley_exact",
    "games.shapley_matrix_exact",
    "games.reduced_game",
    "games.floor_values",
    "games.is_convex",
    "games.is_positive",
    "games.is_size_bounded",
    "games.in_core",
    "isv.indivisible_shapley",
    "elections.game_from_approvals",
    "elections.coalition_game_from_regions",
    "elections.dhondt",
    "sampling.sample_shapley",
    "sampling.sample_shapley_matrix",
    "sampling.MemoOracle.evaluate",
    "sampling.SubprocessOracle.__init__",
    "sampling.SubprocessOracle.evaluate",
    "sampling.SubprocessOracle.close",
    "large.select_top_k",
    "large.normalize_attributions",
    "large.isv_large",
    "matching.shapley_from_owners",
    "matching.MatchingGraph.add_copy",
    "matching.MatchingGraph.hopcroft_karp",
    "matching.MatchingGraph.augment_from",
    "cli.main",
]

PARSERS = [
    "formats.parse_game",
    "formats.parse_owner_list",
    "formats.parse_approval_profile",
    "formats.parse_regional",
    "formats.parse_vector",
]


def _count_parse_bytes(tracer, args, result):
    tracer.count("formats.parse_bytes", len(args[0]))


def _count_isv_events(tracer, args, result):
    kinds = [event[0] for event in getattr(result, "trace", ())]
    tracer.count("isv.grants", kinds.count("granted"))
    tracer.count("isv.removals", kinds.count("removed"))


def _count_augment(tracer, args, result):
    tracer.count("matching.augment_successes", 1 if result else 0)


HOOKS = {name: _count_parse_bytes for name in PARSERS}
HOOKS["isv.indivisible_shapley"] = _count_isv_events
HOOKS["matching.MatchingGraph.augment_from"] = _count_augment

# per-round series -> (how, span names, unit): "incl" sums span durations,
# "self" sums durations minus child spans, "calls" counts spans, "counter"
# sums what the hooks above counted under the series' own name.  A unit of
# None marks a helper series that only feeds RATIOS.
LAYER_METRICS = {
    "formats.parse_s": ("incl", PARSERS, "s"),
    "formats.parse_bytes": ("counter", PARSERS, "bytes"),
    "formats.format_value_s": ("incl", ["formats.format_value"], "s"),
    "games.harsanyi_dividends_s": ("incl", ["games.harsanyi_dividends"], "s"),
    "games.harsanyi_dividends_calls": ("calls", ["games.harsanyi_dividends"], "count"),
    "games.shapley_exact_s": ("incl", ["games.shapley_exact"], "s"),
    "games.shapley_exact_calls": ("calls", ["games.shapley_exact"], "count"),
    "games.reduced_game_s": ("incl", ["games.reduced_game"], "s"),
    "games.reduced_game_calls": ("calls", ["games.reduced_game"], "count"),
    "games.floor_values_s": ("incl", ["games.floor_values"], "s"),
    "games.shapley_matrix_exact_s": ("incl", ["games.shapley_matrix_exact"], "s"),
    "games.is_convex_s": ("incl", ["games.is_convex"], "s"),
    "games.is_positive_s": ("incl", ["games.is_positive"], "s"),
    "games.is_size_bounded_s": ("incl", ["games.is_size_bounded"], "s"),
    "games.in_core_s": ("incl", ["games.in_core"], "s"),
    "games.make_game_s": ("incl", ["games.make_game"], "s"),
    "isv.indivisible_shapley_s": ("incl", ["isv.indivisible_shapley"], "s"),
    "isv.self_s": ("self", ["isv.indivisible_shapley"], "s"),
    "isv.grants": ("counter", ["isv.indivisible_shapley"], "count"),
    "isv.removals": ("counter", ["isv.indivisible_shapley"], "count"),
    "elections.game_from_approvals_s": ("incl", ["elections.game_from_approvals"], "s"),
    "elections.coalition_game_from_regions_s": (
        "incl", ["elections.coalition_game_from_regions"], "s"),
    "elections.dhondt_s": ("incl", ["elections.dhondt"], "s"),
    "elections.dhondt_calls": ("calls", ["elections.dhondt"], "count"),
    "sampling.sample_shapley_s": ("incl", ["sampling.sample_shapley"], "s"),
    "sampling.sample_shapley_matrix_s": ("incl", ["sampling.sample_shapley_matrix"], "s"),
    "sampling.estimator_self_s": (
        "self", ["sampling.sample_shapley", "sampling.sample_shapley_matrix"], "s"),
    "sampling.memo_s": ("self", ["sampling.MemoOracle.evaluate"], "s"),
    "sampling.memo_lookups": ("calls", ["sampling.MemoOracle.evaluate"], "count"),
    "sampling.oracle_queries": ("calls", ["sampling.SubprocessOracle.evaluate"], "count"),
    "sampling.oracle_roundtrip_s": ("incl", ["sampling.SubprocessOracle.evaluate"], "s"),
    "sampling.oracle_spawn_s": ("incl", ["sampling.SubprocessOracle.__init__"], "s"),
    "sampling.oracle_close_s": ("incl", ["sampling.SubprocessOracle.close"], "s"),
    "large.select_top_k_s": ("incl", ["large.select_top_k"], "s"),
    "large.normalize_attributions_s": ("incl", ["large.normalize_attributions"], "s"),
    "large.isv_large_s": ("incl", ["large.isv_large"], "s"),
    "matching.shapley_from_owners_s": ("incl", ["matching.shapley_from_owners"], "s"),
    "matching.add_copy_s": ("incl", ["matching.MatchingGraph.add_copy"], "s"),
    "matching.copies": ("calls", ["matching.MatchingGraph.add_copy"], "count"),
    "matching.hopcroft_karp_s": ("incl", ["matching.MatchingGraph.hopcroft_karp"], "s"),
    "matching.augment_from_s": ("incl", ["matching.MatchingGraph.augment_from"], "s"),
    "matching.augment_calls": ("calls", ["matching.MatchingGraph.augment_from"], "count"),
    "matching.augment_successes": ("counter", ["matching.MatchingGraph.augment_from"], None),
    "cli.self_s": ("self", ["cli.main"], "s"),
}

# metric -> (numerator series, denominator series, scale, unit)
RATIOS = {
    "sampling.memo_hit_ratio": ("sampling.memo_hits", "sampling.memo_lookups", 1.0, "ratio"),
    "sampling.oracle_roundtrip_us": (
        "sampling.oracle_roundtrip_s", "sampling.oracle_queries", 1e6, "us"),
    "matching.augment_success_ratio": (
        "matching.augment_successes", "matching.augment_calls", 1.0, "ratio"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")  # index of the enclosing span in this round, or -1
        self.op = array("i")
        self.ops: list[tuple[int, str]] = []  # op id -> (round, command)
        self.rounds: list[dict] = []  # per finished round: totals per span name
        self.first_round: list[tuple[str, array]] | None = None
        self._counters: dict[str, int] = {}
        self._stack = [-1]

    def columns(self) -> list[tuple[str, array]]:
        return [("start", self.start), ("end", self.end), ("name", self.name),
                ("parent", self.parent), ("op", self.op)]

    def begin_op(self, round_no: int, command: str) -> None:
        self.ops.append((round_no, command))

    def count(self, key: str, amount: int) -> None:
        self._counters[key] = self._counters.get(key, 0) + amount

    def end_round(self) -> None:
        """Fold the round's spans into totals per name (inclusive time, self
        time, calls).  The first round's spans are kept for ``write_spans``;
        later ones are dropped, so memory stays bounded by one round."""
        n_names = len(self.names)
        durations = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(durations)
        for p, d in zip(self.parent, durations):
            if p >= 0:
                child[p] += d
        incl = [0.0] * n_names
        self_ = [0.0] * n_names
        calls = [0] * n_names
        for nid, d, c in zip(self.name, durations, child):
            incl[nid] += d
            self_[nid] += d - c
            calls[nid] += 1
        self.rounds.append({"incl": incl, "self": self_, "calls": calls,
                            "counters": self._counters, "spans": len(durations)})
        self._counters = {}
        if self.first_round is None:
            self.first_round = [(col, array(arr.typecode, arr)) for col, arr in self.columns()]
        for _, arr in self.columns():
            del arr[:]

    def wrap(self, label: str, fn):
        nid = len(self.names)
        self.names.append(label)
        hook = HOOKS.get(label)
        clock = time.perf_counter
        start, end, name, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack)
        ops = self.ops
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(len(ops) - 1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced name in the imported ``indivisible`` package."""
    package = [m for k, m in sys.modules.items() if k == "indivisible" or k.startswith("indivisible.")]
    for label in TRACED:
        modname, *cls_path, fname = label.split(".")
        owner = sys.modules.get("indivisible." + modname)
        for part in cls_path:
            owner = getattr(owner, part, None)
        orig = getattr(owner, fname, None)
        if orig is None:
            tracer.missing.append(label)
            continue
        wrapped = tracer.wrap(label, orig)
        if cls_path:
            setattr(owner, fname, wrapped)
            continue
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)


def layer_metrics(tracer: Tracer, round_seconds: list[float]) -> dict[str, dict]:
    """Per-layer metrics: the median over rounds of each round's total."""
    ids = {label: i for i, label in enumerate(tracer.names)}
    per_round: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for metric, (how, labels, unit) in LAYER_METRICS.items():
        present = [ids[label] for label in labels if label in ids]
        if not present:
            continue
        if how == "counter":
            per_round[metric] = [r["counters"].get(metric, 0) for r in tracer.rounds]
        else:
            per_round[metric] = [sum(r[how][i] for i in present) for r in tracer.rounds]
        if unit is not None:
            units[metric] = unit
    if "sampling.memo_lookups" in per_round and "sampling.oracle_queries" in per_round:
        per_round["sampling.memo_hits"] = [
            lookups - queries for lookups, queries in
            zip(per_round["sampling.memo_lookups"], per_round["sampling.oracle_queries"])]
    for metric, (num, den, scale, unit) in RATIOS.items():
        if num in per_round and den in per_round:
            per_round[metric] = [
                scale * a / b if b else 0.0 for a, b in zip(per_round[num], per_round[den])]
            units[metric] = unit
    per_round["trace.spans"] = [r["spans"] for r in tracer.rounds]
    units["trace.spans"] = "count"
    # counts stay whole: take a round's actual value, not a mean of two
    metrics = {
        metric: {
            "value": (statistics.median_low if units[metric] in ("count", "bytes")
                      else statistics.median)(per_round[metric]),
            "unit": units[metric],
        }
        for metric in units
    }
    # the traced counterpart of the end-to-end round_s, for the tracing overhead
    metrics["trace.round_s"] = {"value": statistics.fmean(round_seconds), "unit": "s"}
    return metrics


def write_spans(tracer: Tracer, path: Path) -> None:
    """Write the first round's spans as ``<path>.json`` (names, ops, layout)
    plus ``<path>.bin`` (the five columns, one after another)."""
    columns = tracer.first_round or tracer.columns()
    index = {
        "spans": len(columns[0][1]),
        "names": tracer.names,
        "missing": tracer.missing,
        "ops": tracer.ops,
        "columns": [[col, arr.typecode, arr.itemsize] for col, arr in columns],
        "byteorder": sys.byteorder,
        "totals_per_round": tracer.rounds,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh)
        fh.write("\n")
    with open(path.with_suffix(".bin"), "wb") as fh:
        for _, arr in columns:
            arr.tofile(fh)
