"""A fixed reference workload that measures how fast the machine is now.

    python3 perfbench/reference.py

Prints the wall time of reference_work() in seconds. The work is pure
Python of the kinds the workloads spend their time on (difflib ratios of
sentences, a word-level edit distance) and uses nothing from the program,
so a change to the program cannot move it. run.py times it
in a process of its own before and after every command: on a shared
machine whose speed swings by tens of percent within a minute, the
command's time divided by the reference's time stays much steadier than
either alone.
"""

import difflib
import random
import sys
import time


def reference_work() -> float:
    rng = random.Random(1)
    words = ["w%03d" % i for i in range(400)]
    sents = [" ".join(rng.choice(words) for _ in range(rng.randint(8, 20))) for _ in range(80)]
    total = 0.0
    for a in sents[:40]:
        for b in sents[40:]:
            total += difflib.SequenceMatcher(None, a, b).ratio()
    toks = [s.split() for s in sents]
    for a in toks[:30]:
        for b in toks[30:60]:
            prev = list(range(len(b) + 1))
            for i, x in enumerate(a, 1):
                cur = [i] + [0] * len(b)
                for j, y in enumerate(b, 1):
                    cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
                prev = cur
            total += prev[-1]
    return total


def main() -> int:
    t0 = time.perf_counter()
    reference_work()
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
