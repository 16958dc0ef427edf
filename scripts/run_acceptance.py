#!/usr/bin/env python3
"""Run the full acceptance suite and print one line per criterion.

Progress goes to stderr, one line per criterion: `[i/n] name ...` when it
starts, completed by its seconds when it ends.  Standard output holds only
the criterion lines.
"""

import sys
import time

from stochgame import acceptance


def main() -> int:
    criteria = acceptance.CRITERIA
    failed = 0
    for i, criterion in enumerate(criteria, 1):
        print(f"[{i}/{len(criteria)}] {criterion.__name__} ...", end=" ",
              file=sys.stderr, flush=True)
        started = time.perf_counter()
        result = criterion()
        print(f"{time.perf_counter() - started:.2f}s", file=sys.stderr,
              flush=True)
        print(result.line(), flush=True)
        failed += not result.passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
