#!/usr/bin/env python3
"""Print how the interleaved-product error scales with the step count.

Table columns: M, max element deviation from the direct squeezing
propagator at fixed t, and the ratio to the previous row (first-order
splitting should halve the error per doubling).
"""

import argparse

from fluxsqueeze.gates import analytic_us, gate_distance, trotter_squeeze
from fluxsqueeze.physics import CircuitParams


def run(t: float, f_s: float) -> None:
    p = CircuitParams(e_c=0.12, e_j=58.0, e_l=58.6, f_s=f_s)
    us = analytic_us(p, t, "2x2")
    print(f"t = {t} ns, f_s = {f_s}")
    print(f"{'M':>6}  {'max deviation':>14}  {'ratio':>7}")
    previous = None
    for m in (8, 16, 32, 64, 128, 256, 512, 1024, 2048):
        dev = gate_distance(trotter_squeeze(p, t, m, "2x2"), us)
        ratio = "" if previous is None else f"{previous / dev:7.3f}"
        print(f"{m:>6}  {dev:14.6e}  {ratio:>7}")
        previous = dev


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", type=float, default=5.0, help="evolution time in ns")
    parser.add_argument("--fs", type=float, default=0.9, help="normalized flux")
    args = parser.parse_args()
    run(args.t, args.fs)
