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


def _checked(parser, option, factory, *values):
    """factory(*values), a ValueError from the model reported as a usage
    error on the option that set the rejected value."""
    try:
        return factory(*values)
    except ValueError as exc:
        parser.error(f"argument {option}: {exc}")


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
    # every input is checked before the header is printed
    if args.n_max < 2:
        parser.error(f"argument --n-max: need at least 2 players, got {args.n_max}")
    if args.samples < 1:
        parser.error(f"argument --samples: must be >= 1, got {args.samples}")
    fsp = None
    if args.block is not None:
        _checked(parser, "--epsilon", FiniteSizeParams, args.epsilon, 1.0)
        fsp = _checked(parser, "--block", FiniteSizeParams, args.epsilon, args.block)
    _checked(parser, "--d-b", NetworkConfig, 2, args.d_b, args.d_b)
    cfgs = [_checked(parser, "--d-a", NetworkConfig, 2, d_a, args.d_b) for d_a in args.d_a]
    # the memory-assisted profile needs a long Alice link that still transmits
    for cfg in cfgs:
        need = None
        if cfg.p_a > cfg.p_b:
            need = f"d_A >= d_B = {args.d_b:g}, got {cfg.d_a_km:g}"
        elif cfg.p_a == 0.0:
            need = f"p_a > 0; d_A = {cfg.d_a_km:g} gives 0"
        if need is not None:
            parser.error(f"argument --d-a: memory-assisted networks need {need}")
    _checked(parser, "--f-depol", NoiseParams, args.f_depol)
    noises = [_checked(parser, "--t2", NoiseParams, args.f_depol, t2, 2e-6) for t2 in args.t2]

    print("d_A_km  T2_s    max_N(memory)  max_N(linear)  max_N(no memory)")
    for cfg in cfgs:
        for noise in noises:
            mem = advantage_profile(
                cfg, noise, args.n_max, memories=True, fsp=fsp,
                mc_samples=args.samples, seed=args.seed,
            )
            plain = advantage_profile(
                cfg, noise, args.n_max, memories=False, fsp=fsp,
                mc_samples=args.samples, seed=args.seed,
            )
            print(
                f"{cfg.d_a_km:6.1f}  {noise.t2_s:6.2f}  {str(mem.max_n_advantage):>13}  "
                f"{str(mem.max_n_linear):>13}  {str(plain.max_n_advantage):>16}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
