"""Mutant check: each listed mutant of the source must fail the tests named for it.

Run from anywhere with ``python tests/mutants.py``; it needs only the
standard library and pytest.  The script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, checks that the named tests
pass there unchanged, then applies one mutant at a time as an exact text
replacement and runs only that mutant's tests.  It exits 1 if a mutant's
text no longer matches the source exactly once, or if a mutant's tests
all pass.  pytest does not collect this file: its name has no ``test_``
prefix.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ELECTIONS = "src/indivisible/elections.py"
FORMATS = "src/indivisible/formats.py"
GAMES = "src/indivisible/games.py"
ISV = "src/indivisible/isv.py"
MATCHING = "src/indivisible/matching.py"
SAMPLING = "src/indivisible/sampling.py"

# (name, file, original text, mutated text, tests that must fail)
MUTANTS = [
    (
        "a quota failure always skips the player",
        ISV,
        "            if sv_cur[li] > 0:\n",
        "            if False:\n",
        [
            "tests/test_isv.py::TestLazyShapley::test_matches_reductions_reference",
            "tests/test_isv.py::TestLazyShapley::test_fractional_seeds_where_the_shapley_test_rejects",
        ],
    ),
    (
        "the quota test accepts at equality",
        ISV,
        "if nums[cur.full] > nums[cur.full ^ (1 << li)]:",
        "if nums[cur.full] >= nums[cur.full ^ (1 << li)]:",
        [
            "tests/test_isv.py::TestLazyShapley::test_matches_reductions_reference",
            "tests/test_isv.py::TestIndivisibleShapley::test_two_goods",
        ],
    ),
    (
        "the working game is not rounded",
        ISV,
        "floor_values(g).values.nums",
        "g.values.nums",
        [
            "tests/test_isv.py::TestRoundOnce::test_whole_valued_players_match_the_reductions_reference",
            "tests/test_isv.py::TestLazyShapley::test_matches_reductions_reference",
        ],
    ),
    (
        "the floor game leaves out the last player",
        ISV,
        "coalition_sums(floors)",
        "coalition_sums(floors[:-1] + [0])",
        [
            "tests/test_isv.py::TestRoundOnce::test_whole_valued_players_match_the_reductions_reference",
            "tests/test_isv.py::TestLazyShapley::test_matches_reductions_reference",
        ],
    ),
    (
        "remainder ties go to the higher index",
        ISV,
        "key=lambda i: (-(nums[i] % den), i)",
        "key=lambda i: (-(nums[i] % den), -i)",
        [
            "tests/test_isv.py::TestRemainderOrder::test_all_tied",
            "tests/test_isv.py::TestIndivisibleShapley::test_pair_tiebreak",
        ],
    ),
    (
        "_remainder_order keeps a whole-valued player",
        ISV,
        "[i for i, x in enumerate(nums) if x % den]",
        "list(range(len(nums)))",
        [
            "tests/test_isv.py::TestRemainderOrder::test_whole_values_last_by_index",
            "tests/test_isv.py::TestLazyShapley::test_matches_reductions_reference",
        ],
    ),
    (
        "each run is read before the next is asked",
        SAMPLING,
        "for complete, _ in pairwise(chain(asks, [None]))",
        "for complete in asks",
        ["tests/test_sampling.py::TestPipeline::test_next_run_asked_before_the_last_is_read"],
    ),
    (
        "a full memo is cleared in place",
        SAMPLING,
        "            self._memo, self._flight = {}, set()\n",
        "            self._memo.clear()\n",
        [
            "tests/test_sampling.py::TestPipeline::test_small_memo_and_runs_change_no_estimate",
        ],
    ),
    (
        "a run asks again for coalitions already in flight",
        SAMPLING,
        "            flight.update(missing)\n",
        "",
        [
            "tests/test_sampling.py::TestPipeline::test_queries_in_first_appearance_order",
            "tests/test_sampling.py::TestPipeline::test_child_values_are_gated_once",
        ],
    ),
    (
        "runs are cut one coalition too long",
        SAMPLING,
        "list(islice(masks, _RUN_MASKS))",
        "list(islice(masks, _RUN_MASKS + 1))",
        [
            "tests/test_sampling.py::TestPipeline::test_next_run_asked_before_the_last_is_read",
            "tests/test_sampling.py::TestPipeline::test_every_run_but_the_last_is_full",
        ],
    ),
    (
        "the memo cap counts coalitions, not mask words",
        SAMPLING,
        "_MEMO_SIZE // ((self.n + 63) // 64)",
        "_MEMO_SIZE",
        ["tests/test_sampling.py::TestPipeline::test_small_memo_and_runs_change_no_estimate"],
    ),
    (
        "a tie at equal quotients and equal raw votes goes to the outsider",
        ELECTIONS,
        "thresholds.append(q if r == 0 and s >= b else q + 1)",
        "thresholds.append(q if r == 0 and s > b else q + 1)",
        [
            "tests/test_elections.py::TestCoalitionGame::test_ties_at_the_decisive_seat",
            "tests/test_elections.py::TestCoalitionGame::test_matches_dhondt_per_coalition_on_forced_ties",
        ],
    ),
    (
        "the outsider quotient rank is off by one",
        ELECTIONS,
        "_dhondt(outs, seats - most)",
        "_dhondt(outs, seats - most + 1)",
        [
            "tests/test_elections.py::TestCoalitionGame::test_single_region_merged_list",
            "tests/test_elections.py::TestCoalitionGame::test_matches_dhondt_per_coalition_on_forced_ties",
        ],
    ),
    (
        "the seat step breaks an equal-quotient tie toward fewer votes",
        ELECTIONS,
        "(lhs == rhs and votes[i] > votes[best])",
        "(lhs == rhs and votes[i] < votes[best])",
        [
            "tests/test_elections.py::TestDhondt::test_matches_quotient_enumeration_at_many_seats",
            "tests/test_elections.py::TestCoalitionGame::test_matches_dhondt_per_coalition_at_hundreds_of_seats",
        ],
    ),
    (
        "convexity accepted when the smallest dividend is at least -1",
        GAMES,
        "return is_positive(g) or _locally_convex(g)",
        "return min(harsanyi_dividends(g).nums) >= -1 or _locally_convex(g)",
        ["tests/test_games.py::TestPredicates::test_dividend_accept_agrees_with_supermodularity"],
    ),
    (
        "a head equal to a recent tail's lowest index passes as ascending",
        FORMATS,
        "(1 << idx) < (rest & -rest)",
        "(1 << idx) <= (rest & -rest)",
        ["tests/test_formats.py::TestRecentLines::test_head_not_below_a_recent_tail"],
    ),
    (
        "a recent line's tail mask is stored as its own",
        FORMATS,
        "            recent[players] = mask\n",
        "            recent[players] = rest\n",
        [
            "tests/test_formats.py::TestRecentLines::test_index_lists_almost_all_read_from_a_recent_tail",
        ],
    ),
    (
        "a search takes the last player of a scan that holds a free object",
        MATCHING,
        "                    obj = self._free_object(player)\n"
        "                    if obj != _FREE:\n"
        "                        break\n"
        "                    queue.append(player)\n",
        "                    found = self._free_object(player)\n"
        "                    if found == _FREE:\n"
        "                        queue.append(player)\n"
        "                    else:\n"
        "                        obj, last = found, player\n"
        "                if obj != _FREE:\n"
        "                    player = last\n",
        [
            "tests/test_matching.py::TestMatchingGraph::test_first_reached_player_with_a_free_object_wins",
            "tests/test_matching.py::TestIsvAllocation::test_agrees_with_reference_search",
        ],
    ),
    (
        "a floor unit with no free object of its own is dropped instead of searched",
        MATCHING,
        "        return all(map(self._augment, range(first + len(taken), first + units)))\n",
        "        return True\n",
        [
            "tests/test_matching.py::TestIsvAllocation::test_agrees_with_reference_search",
            "tests/test_matching.py::TestScale::test_200_players_5000_objects_assignment_is_pinned",
        ],
    ),
    (
        "the floor pass starts one object past the first free one",
        MATCHING,
        "islice(self._unheld.get(player, iter(())), units)",
        "islice(self._unheld.get(player, iter(())), 1, units + 1)",
        [
            "tests/test_matching.py::TestIsvAllocation::test_agrees_with_reference_search",
            "tests/test_matching.py::TestScale::test_200_players_5000_objects_assignment_is_pinned",
        ],
    ),
    (
        "the convex reference walks the round-up sets in reverse",
        ISV,
        "    for ups in combinations(fractional, units - sum(floors)):\n",
        "    for ups in reversed(list(combinations(fractional, units - sum(floors)))):\n",
        [
            "tests/test_isv.py::TestOracle::test_two_goods",
            "tests/test_isv.py::TestOracle::test_matches_enumeration",
        ],
    ),
]


def run_tests(tree: Path, tests: list[str]) -> int:
    """pytest's exit code for ``tests`` run against ``tree``'s own ``src/``.

    ``-B`` writes no bytecode, so no mutant can be served a cached
    compile of the source before it.
    """
    cmd = [sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)

        named = sorted({test for *_, tests in MUTANTS for test in tests})
        if run_tests(tree, named) != 0:
            print("the named tests do not pass on the unmutated source")
            return 1

        for name, rel, old, new, tests in MUTANTS:
            path = tree / rel
            source = path.read_text()
            if source.count(old) != 1:
                failures.append(name)
                print(f"STALE    {name}: the text to mutate occurs {source.count(old)} times in {rel}")
                continue
            path.write_text(source.replace(old, new))
            start = time.perf_counter()
            code = run_tests(tree, tests)
            path.write_text(source)
            took = time.perf_counter() - start
            if code == 1:
                print(f"killed   {name} ({took:.1f} s)")
            else:
                failures.append(name)
                verdict = "its tests pass" if code == 0 else f"pytest exited {code}"
                print(f"SURVIVED {name}: {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
