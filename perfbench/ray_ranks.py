"""The benchmark's one library call: the rank of every chamber's extreme-ray
matrix for n <= 10, through the public all_chambers, extreme_rays and rank_of.

Prints one line per rank, ``n=<n> chambers=<count> min_rank=<r> max_rank=<r>``;
the benchmark checks that every rank equals n and that there are 2^n chambers.
Run with the package on the path: ``PYTHONPATH=src python3 perfbench/ray_ranks.py``.
"""

import sys

from weylfan.chambers import all_chambers, extreme_rays
from weylfan.oracle.linalg import rank_of

TOP = 10


def main() -> int:
    for n in range(1, TOP + 1):
        chambers = all_chambers(n)
        ranks = [rank_of([list(r) for r in extreme_rays(c)]) for c in chambers]
        sys.stdout.write(
            f"n={n} chambers={len(chambers)} min_rank={min(ranks)} max_rank={max(ranks)}\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
