#!/usr/bin/env python3
"""Sweep the penalty exponent and print the sharpness evidence as CSV.

For each beta: the sampled sharpness verdict of the negative-part penalty
against the exact distance, whether the dual necessary condition survived
at seeded nonnegative frames, and the verdict's own modulus estimate (the
sampled infimum over the check's sample, so an upper bound on the modulus).
The dual condition is refuted above 1.  Below 1 nothing is refuted at the
default alpha, which does not make the penalty sharp:
for 1/2 < beta < 1 and n > k >= 2 the local modulus is 0, along curves that
the sampled frames almost surely miss (see the README's honesty notes).

Usage: python3 scripts/beta_study.py [n] [k] [samples]
"""

import sys

from sharpmin.cheeger import wsm_penalty_check


def main(argv):
    n = int(argv[0]) if len(argv) > 0 else 2
    k = int(argv[1]) if len(argv) > 1 else 1
    samples = int(argv[2]) if len(argv) > 2 else 300
    betas = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
    print("beta,wsm_status,dual_consistent,modulus_estimate")
    for beta in betas:
        study = wsm_penalty_check(n, k, beta, n_samples=samples, seed=0)
        print(f"{beta},{study.wsm.status},{study.dual_consistent},"
              f"{study.wsm.estimated_modulus!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
