"""Measure realized rounding error against the 0.5 * 2**(n-m) guarantee.

For each visible size n and hidden budget m, rounds random distributions
to the 2**-m grid and records the worst realized total variation distance.
The guarantee halves per extra hidden qubit; the realized worst case
tracks it with a roughly constant slack factor, and sits at exactly zero
once inputs land on the grid.

Usage:
    python3 scripts/dyadic_bound_sweep.py --trials 200 --n-max 4
"""

import argparse
import sys

import numpy as np

from iqpsynth.decompose import round_to_dyadic
from iqpsynth.probdist import tv_distance, validate


def worst_case(n, m, trials, rng):
    worst = 0.0
    for _ in range(trials):
        raw = rng.random(1 << n) + 1e-9
        p = validate(raw / raw.sum(), n)
        worst = max(worst, tv_distance(p, round_to_dyadic(p, m)))
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=100, help="distributions per cell")
    ap.add_argument("--n-max", type=int, default=4)
    ap.add_argument("--extra-max", type=int, default=6, help="largest m - n")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    print(f"{'n':>3} {'m':>3} {'bound':>12} {'worst tv':>12} {'ratio':>8}")
    for n in range(1, args.n_max + 1):
        for m in range(n, n + args.extra_max + 1):
            bound = 0.5 * 2.0 ** (n - m)
            worst = worst_case(n, m, args.trials, rng)
            print(f"{n:>3} {m:>3} {bound:>12.6g} {worst:>12.6g} "
                  f"{worst / bound:>8.3f}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
