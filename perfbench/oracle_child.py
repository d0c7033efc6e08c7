"""Child oracle for the ``oracle`` workload.

Usage: ``python3 -u oracle_child.py GAME.json``.  The game file holds
additive weights plus pairwise synergies::

    v(S) = sum(w[i] for i in S) + sum(s[i][j] for i < j both in S)

The child speaks the line protocol of ``indivisible sample``/``large``:
one query per line, a string of ``n`` characters over ``{0,1}``, answered
with one line holding an integer.  Per-query work is a few microseconds,
small next to a pipe round trip.
"""

import json
import sys


def main(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        game = json.load(fh)
    weights = game["weights"]
    n = len(weights)
    # partners[i] lists (j, s) with j > i, so each pair is counted once
    partners = [[] for _ in range(n)]
    for i, j, s in game["synergy"]:
        partners[min(i, j)].append((max(i, j), s))
    write = sys.stdout.write
    flush = sys.stdout.flush
    for line in sys.stdin:
        bits = line.rstrip("\n")
        value = 0
        for i in range(n):
            if bits[i] == "1":
                value += weights[i]
                for j, s in partners[i]:
                    if bits[j] == "1":
                        value += s
        write(f"{value}\n")
        flush()


if __name__ == "__main__":
    main(sys.argv[1])
