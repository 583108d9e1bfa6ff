#!/usr/bin/env python3
"""Scan the multipartite-advantage extent over long-link distance and
memory quality.

For each (d_A, T2) pair this prints the largest player number with a rate
advantage over the optimal bipartite baseline, with and without memories,
in the asymptotic regime or at a fixed finite block size.
"""

import argparse
import sys

from ghznet.analysis import advantage_profile
from ghznet.config import ConfigError, check_seed
from ghznet.finite import FiniteSizeParams
from ghznet.network import NetworkConfig
from ghznet.noise import NoiseParams


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d-a", type=float, nargs="*", default=[30.0, 50.0, 80.0])
    parser.add_argument("--t2", type=float, nargs="*", default=[0.1, 1.0, 10.0])
    parser.add_argument("--d-b", type=float, default=4.0)
    parser.add_argument("--f-depol", type=float, default=0.01)
    parser.add_argument("--n-max", type=int, default=30)
    parser.add_argument("--block", type=float, help="finite block size (default: asymptotic)")
    parser.add_argument("--epsilon", type=float, default=1e-10)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    try:
        check_seed(args.seed)
    except ConfigError as exc:
        parser.error(str(exc))

    fsp = None
    if args.block is not None:
        fsp = FiniteSizeParams(epsilon=args.epsilon, block_size=args.block)
    print("d_A_km  T2_s    max_N(memory)  max_N(linear)  max_N(no memory)")
    for d_a in args.d_a:
        cfg = NetworkConfig(2, d_a, args.d_b)
        for t2 in args.t2:
            noise = NoiseParams(args.f_depol, t2_s=t2, prep_time_s=2e-6)
            mem = advantage_profile(
                cfg, noise, args.n_max, memories=True, fsp=fsp,
                mc_samples=args.samples, seed=args.seed,
            )
            plain = advantage_profile(
                cfg, noise, args.n_max, memories=False, fsp=fsp,
                mc_samples=args.samples, seed=args.seed,
            )
            print(
                f"{d_a:6.1f}  {t2:6.2f}  {str(mem.max_n_advantage):>13}  "
                f"{str(mem.max_n_linear):>13}  {str(plain.max_n_advantage):>16}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
