"""End-to-end walkthrough of the exact synthesis pipeline.

Draws a random distribution over n visible qubits (or reads one from a
file), decomposes it into 2-sparse mixture components, encodes each
component into one hidden row of a phase table, and checks that the
simulated visible marginal reproduces the input.  With --lower the table
is also rewritten as X-rotation gates and re-simulated through that path.

Usage:
    python3 scripts/exact_synthesis_demo.py --n 3 --seed 11 --lower
    python3 scripts/exact_synthesis_demo.py --dist mydist.json --samples 12
"""

import argparse
import sys

import numpy as np

from iqpsynth.circuit import serialize_circuit
from iqpsynth.decompose import decompose_2sparse
from iqpsynth.probdist import format_float, parse_dist, tv_distance, validate
from iqpsynth.sim import iqp_state, marginal_mixture, sample, simulate_gates
from iqpsynth.synth import exact_phase_table, walsh_lower


def random_dist(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.exponential(size=1 << n)
    return validate(raw / raw.sum(), n)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2, help="visible qubits (random input)")
    ap.add_argument("--dist", help="distribution JSON file (overrides --n)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=8)
    ap.add_argument("--lower", action="store_true", help="also run the gate path")
    args = ap.parse_args(argv)

    if args.dist:
        with open(args.dist) as handle:
            p = parse_dist(handle.read())
    else:
        p = random_dist(args.n, args.seed)
    n = p.n

    print(f"target over n={n} visible qubits:")
    for j in range(1 << n):
        print(f"  {p.bitstring(j)}  {format_float(p.probs[j])}")

    parts = decompose_2sparse(p)
    widths = parts.sparsity.tolist()
    print(f"\n{len(parts)} mixture components, sparsity counts "
          f"{{1: {widths.count(1)}, 2: {widths.count(2)}}}")

    pt = exact_phase_table(p)
    q = marginal_mixture(pt)
    print(f"phase table: m={pt.m} hidden qubits, {pt.theta.size} entries")
    print(f"tv(target, simulated marginal) = {format_float(tv_distance(p, q))}")

    if args.lower:
        g = walsh_lower(pt)
        print(f"\nlowered to {len(g)} X-rotation gates")
        diag = iqp_state(pt)
        gate = simulate_gates(g)
        print(f"gate path amplitude error = "
              f"{format_float(float(np.abs(gate.amps - diag.amps).max()))}")
        print("\ncircuit file:")
        print(serialize_circuit(gates=g, mode="exact"), end="")

    if args.samples:
        draws = sample(q, args.samples, seed=args.seed)
        print(f"\n{args.samples} samples: {' '.join(draws)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
