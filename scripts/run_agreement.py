#!/usr/bin/env python3
"""Sweep seeded instances and report worst-case disagreement between the
three execution paths (recurrence, linear scale/scan, materialized kernel),
and between each model's output and the three paths run on its full-rank
masked-attention dual."""

import argparse
import itertools

from ssdlab.duality import full_rank_one_ss_dual
from ssdlab.errors import PreconditionError
from ssdlab.ss_matrix import rel_err
from ssdlab.ssm import forward_materialized, forward_recurrence, forward_ssd, random_instance


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    combos = list(itertools.product((8, 32, 64, 256), (1, 4, 8), (1, 3)))
    worst = worst_dual = 0.0
    worst_dims = None
    refused = 0
    for i in range(args.instances):
        steps, modes, channels = combos[i % len(combos)]
        ssm, x = random_instance(args.seed + i, steps, modes, channels)
        y_rec = forward_recurrence(ssm, x)
        err = max(rel_err(y_rec, forward_ssd(ssm, x)), rel_err(y_rec, forward_materialized(ssm, x)))
        if err > worst:
            worst, worst_dims = err, (steps, modes, channels)
        try:
            dual = full_rank_one_ss_dual(ssm)
        except PreconditionError:
            refused += 1
            continue
        for forward in (forward_recurrence, forward_ssd, forward_materialized):
            worst_dual = max(worst_dual, rel_err(y_rec, forward(dual, x)))
    print(f"instances: {args.instances}")
    print(f"worst relative Frobenius error: {worst:.3e} at (T, N, d) = {worst_dims}")
    print(f"worst dual-factors-vs-model error: {worst_dual:.3e} ({refused} duals refused)")


if __name__ == "__main__":
    main()
