#!/usr/bin/env python3
"""Regenerate every figure-style CSV table in one go.

Usage: python scripts/run_all_figures.py [--outdir DIR] [--seed N] [--skip fig6 ...]
"""

import argparse
import sys
import time

from ghznet.config import ConfigError, check_seed
from ghznet.reproduce import RECIPES, run_reproduce


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="reproduce-out")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--skip", nargs="*", default=[], help="figure ids to skip (fig6 is the slow one)"
    )
    args = parser.parse_args()
    try:
        check_seed(args.seed)
    except ConfigError as exc:
        parser.error(str(exc))
    for figure_id in RECIPES:
        if figure_id in args.skip:
            print(f"{figure_id}: skipped")
            continue
        start = time.monotonic()
        files = run_reproduce(figure_id, args.outdir, seed=args.seed)
        print(f"{figure_id}: {len(files)} table(s) in {time.monotonic() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
