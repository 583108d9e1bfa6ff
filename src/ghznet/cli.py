"""Command-line surface: scenario evaluation, sweeps, thresholds, player
profiles, figure-style reproduction tables and the verification oracle.

Exit codes: 0 success, 1 oracle/acceptance mismatch, 2 configuration error,
141 (128 + SIGPIPE) when the reader of standard output closes it early.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import (
    TASK_FAMILIES,
    ThresholdQuery,
    advantage_profile,
    find_threshold,
    scenario_qbers,
)
from .config import SCHEMA, ConfigError, Scenario, at_point, check_seed, load_config, resolve_scenario
from .finite import BestFraction, KeyLengthModel, expected_key_length
from .network import ProtocolSpec, formula_party_count
from .oracle import EXACT_RTOL, MAX_ORACLE_PARTIES, ORACLE_TOL, oracle_grid, parity_check_rows, sifting_check_rows
from .rates import asymptotic_rate
from .tables import ResultTable

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_PIPE = 141
# the configuration keys each command reads; any other key it is given is
# an error rather than a setting resolved and then ignored
_SCENARIO_KEYS = frozenset(key for key in SCHEMA if not key.startswith("sweep."))
COMMAND_KEYS = {
    "rate": _SCENARIO_KEYS,
    "sweep": frozenset(SCHEMA),
    # the profile picks p_key and the conference-key strategy itself
    "profile": _SCENARIO_KEYS - {"protocol.p_key", "protocol.basis_strategy"},
    # a memoryless symmetric star, at a distance from network.d_km or d_B_km
    "threshold": frozenset(
        ("network.N", "network.d_km", "network.d_B_km", "noise.f_D", "protocol.family",
         "finite.block_size", "finite.epsilon", "output.path")
    ),
}

RATE_COLUMNS = [
    "family",
    "memories",
    "strategy",
    "n_parties",
    "d_a_km",
    "d_b_km",
    "f_depol",
    "p_key",
    "yield_per_use",
    "q_x",
    "q_z",
    "regime",
    "rate_raw",
    "rate",
    "rounds",
    "m",
    "k",
    "m_floor",
    "k_floor",
    "ell",
    "secret_fraction",
    "status",
    "q_x_eff",
    "q_z_eff",
    "pe_term",
    "ec_term",
    "log_term",
    "preshared_term",
]


def _metadata(items: dict, scenario: Scenario, command: str) -> dict[str, str]:
    meta = {f"config.{key}": items[key][0] for key in sorted(items)}
    meta["ghznet.version"] = __version__
    meta["ghznet.command"] = command
    meta["seed"] = str(scenario.seed)
    return meta


def _spec_columns(points: list[Scenario], specs: tuple[ProtocolSpec, ...], qbers: list) -> list[list]:
    """The columns from p_key on of one spec's rows across the points, the
    finite ones from one expected_key_length pass.  A p_key = opt row is
    evaluated at its own optimum, an indeterminate one at p_key = 1/2."""
    n = len(points)
    p_keys = [spec.p_key for spec in specs]
    inputs = list(zip(points, specs, qbers))
    asymptotic = points[0].finite is None
    if asymptotic:
        rates = [asymptotic_rate(point.network, spec, q) for point, spec, q in inputs]
        yields = [rate.yield_per_use for rate in rates]
        status = ["ok" if rate.raw > 0 else "clamped" for rate in rates]
        tail = [[rate.raw for rate in rates], [rate.rate for rate in rates], *[[None] * n] * 7, status]
        tail += [[None] * n] * 6
    else:
        models = [KeyLengthModel(point.network, spec, point.finite, q) for point, spec, q in inputs]
        optima = BestFraction(models).optima if points[0].optimize_p_key else []
        if optima:
            p_keys = [0.5 if opt.indeterminate else opt.x for opt in optima]
        yields = [model.per_use for model in models]
        r = expected_key_length(models, p_keys)
        status = r.status
        if optima:
            status = ["indeterminate" if opt.indeterminate else text for opt, text in zip(optima, status)]
        tail = [[None] * n, [None] * n, r.rounds, r.m, r.k, [*map(math.floor, r.m)], [*map(math.floor, r.k)]]
        tail += [r.ell, r.secret_fraction, status, r.q_x_eff, r.q_z_eff, r.pe_term, r.ec_term, r.log_term]
        tail.append(r.preshared_term)
    regime = "asymptotic" if asymptotic else "finite"
    return [p_keys, yields, [q.q_x for q in qbers], [q.q_z for q in qbers], [regime] * n, *tail]


def _rate_rows(points: list[Scenario], *lead: list) -> list[tuple]:
    """The rate rows of the points, each led by its cells of the `lead`
    columns, point-major: a point's rows follow its specs.  Each spec's
    rows across the points are built as columns, and a point's error rates
    are taken once per (formula party count, memories), all they depend on."""
    n = len(points)
    head = [[point.network.n_parties for point in points], [point.network.d_a_km for point in points]]
    head += [[point.network.d_b_km for point in points], [point.noise.f_depol for point in points]]
    drawn: dict = {}
    groups = []
    for specs in zip(*(point.specs for point in points)):
        qbers = []
        for index, (point, spec) in enumerate(zip(points, specs)):
            key = (index, formula_party_count(point.network, spec), spec.memories)
            if key not in drawn:
                drawn[key] = scenario_qbers(point.network, spec, point.noise, point.mc_samples, point.seed)
            qbers.append(drawn[key])
        spec = specs[0]
        ids = [[spec.family.value] * n, [spec.memories] * n, [spec.basis_strategy.value] * n]
        groups.append(zip(*lead, *ids, *head, *_spec_columns(points, specs, qbers)))
    return [row for rows in zip(*groups) for row in rows]


def _emit(table: ResultTable, out: str | None, items: dict) -> None:
    """Write the table to --out, else to output.path, else to stdout."""
    path, *source = (out, "--out", None) if out else items.get("output.path", (None,))
    if path is None:
        sys.stdout.write(table.render())
        return
    try:
        table.write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}", *source) from exc


def _load(args: argparse.Namespace) -> dict:
    """The command's configuration items: each one a key the command reads
    and none that its arguments override."""
    items = load_config(args.config, args.set or [])
    for key, (_, source, line) in items.items():
        if key not in COMMAND_KEYS[args.command]:
            raise ConfigError(f"{args.command} takes no {key}", source, line)
    if args.command == "threshold":
        # the scanned quantity's own keys would be resolved, printed and unused
        scanned_keys = ("noise.f_D",) if args.target == "noise" else ("network.d_km", "network.d_B_km")
        for key in scanned_keys:
            if key in items:
                _, source, line = items[key]
                raise ConfigError(f"--target {args.target} overrides {key}", source, line)
    return items


def _table(args: argparse.Namespace) -> tuple[ResultTable, dict]:
    """The one path of the table commands: load the command's items, resolve
    the scenario, build the table with its header; returns it and the items."""
    items = _load(args)
    scenario = resolve_scenario(items)
    columns, rows = args.build(items, scenario, args)
    table = ResultTable(columns, metadata=_metadata(items, scenario, args.command))
    for row in rows:
        table.add_row(*row)
    return table, items


def _run_table(args: argparse.Namespace) -> int:
    table, items = _table(args)
    _emit(table, args.out, items)
    return EXIT_OK


def command_rows(argv: list[str]) -> list[dict]:
    """The rows that the table command `ghznet <argv>` prints, each keyed by
    column, as values rather than text; a bad setting raises ConfigError."""
    table, _ = _table(build_parser().parse_args(argv))
    return [dict(zip(table.columns, row)) for row in table.rows]


def _rate(items: dict, scenario: Scenario, args: argparse.Namespace) -> tuple[list, list]:
    return RATE_COLUMNS, _rate_rows([scenario])


def _sweep(items: dict, scenario: Scenario, args: argparse.Namespace) -> tuple[list, list]:
    if scenario.sweep is None:
        raise ConfigError("sweep needs sweep.parameter/from/to/steps")
    sweep = scenario.sweep
    if sweep.log:
        values = np.logspace(np.log10(sweep.start), np.log10(sweep.stop), sweep.steps)
    else:
        values = np.linspace(sweep.start, sweep.stop, sweep.steps)
    integer = sweep.parameter == "network.N"
    texts = [str(int(round(value))) if integer else repr(float(value)) for value in values]
    if len(set(texts)) < len(texts):
        message = f"sweep.steps = {sweep.steps} repeats {sweep.parameter} values"
        raise ConfigError(f"{message}: {len(set(texts))} distinct", *items["sweep.steps"][1:])
    # each point rebuilds only the object its key sets; a point the model
    # rejects is blamed on the sweep.parameter setting
    _, source, line = items["sweep.parameter"]
    points = [at_point(scenario, items, sweep.parameter, text, source, line) for text in texts]
    rows = _rate_rows(points, texts)
    return [sweep.parameter] + RATE_COLUMNS, rows


# the task of each multipartite family, for the commands that take one task
TASKS = {family: task for task, family in TASK_FAMILIES.items()}


def _task(items: dict, scenario: Scenario, command: str) -> str:
    """The task of the scenario's one family, which must be mQSS or mCKA."""
    spec, *others = scenario.specs
    if others or spec.family not in TASKS:
        text, source, line = items["protocol.family"]
        raise ConfigError(f"{command} takes one family, mQSS or mCKA, got {text!r}", source, line)
    return TASKS[spec.family]


def _profile(items: dict, scenario: Scenario, args: argparse.Namespace) -> tuple[list, list]:
    task = _task(items, scenario, args.command)
    profile = advantage_profile(
        scenario.network,
        scenario.noise,
        scenario.network.n_parties,
        scenario.specs[0].memories,
        scenario.finite,
        task,
        scenario.mc_samples,
        scenario.seed,
    )
    rows = []
    for row in profile.rows:
        n = row.n_parties
        rows.append([
            n,
            row.multi_rate,
            row.bi_rate,
            row.ratio,
            row.status,
            profile.max_n_linear is not None and n <= profile.max_n_linear,
            profile.max_n_advantage is not None and n <= profile.max_n_advantage,
        ])
    columns = ["n_parties", "multi_rate", "bi_rate", "ratio", "status", "within_linear", "within_advantage"]
    return columns, rows


def _threshold(items: dict, scenario: Scenario, args: argparse.Namespace) -> tuple[list, list]:
    noise_target = args.target == "noise"
    task = _task(items, scenario, args.command)
    held = scenario.network.d_b_km if noise_target else scenario.noise.f_depol
    finite = scenario.finite
    query = ThresholdQuery(
        args.target,
        scenario.network.n_parties,
        fixed_noise=None if noise_target else held,
        fixed_distance_km=held if noise_target else None,
        task=task,
        **({} if finite is None else {"block_size": finite.block_size, "epsilon": finite.epsilon}),
    )
    default_bracket = (1e-9, 0.5) if noise_target else (1e-3, 60.0)
    bracket = tuple(args.bracket) if args.bracket else default_bracket
    try:
        result = find_threshold(query, bracket)
    except ValueError as exc:
        # the search and the model at the bracket ends reject a bracket
        raise ConfigError(str(exc), "--bracket") from exc
    columns = ["target", "task", "n_parties", "regime", "fixed_value", "bracket_lo", "bracket_hi", "threshold", "status"]
    row = [
        query.target,
        query.task,
        query.n_parties,
        "asymptotic" if finite is None else f"block={finite.block_size:g}",
        held,
        bracket[0],
        bracket[1],
        result.value,
        result.status,
    ]
    return columns, [row]


def cmd_reproduce(args: argparse.Namespace) -> int:
    # imported here: the other commands do not need the recipes
    from .reproduce import RECIPES, run_reproduce

    if args.figure != "all" and args.figure not in RECIPES:
        raise ConfigError(f"unknown figure {args.figure!r}; choose {', '.join(RECIPES)} or all", "--figure")
    try:
        check_seed(args.seed, "--seed")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    figures = RECIPES if args.figure == "all" else [args.figure]
    try:
        for figure in figures:
            run_reproduce(figure, args.outdir, seed=args.seed)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or args.outdir}: {exc.strerror}", "--outdir") from exc
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    max_n = args.max_n
    if max_n == MAX_ORACLE_PARTIES and not args.widen_guard:
        raise ConfigError(
            f"oracle-check limited to N <= {MAX_ORACLE_PARTIES - 1} by default "
            f"(oracle supports N <= {MAX_ORACLE_PARTIES}; pass --widen-guard for N = "
            f"{MAX_ORACLE_PARTIES})"
        )
    try:
        rows = oracle_grid(max_n=max_n)
    except ValueError as exc:
        raise ConfigError(str(exc), "--max-n") from exc
    print(f"density oracle vs analytic chain (N = 2..{max_n}, tolerance {ORACLE_TOL:g})")
    failures = 0
    for row in rows:
        if not row.passed or args.verbose:
            print(
                f"  N={row.n_parties} f={row.f_depol:<5g} exps={row.exponents} "
                f"max|err|={row.max_abs_error:.3e} residual={row.ghz_residual:.3e} "
                f"{'PASS' if row.passed else 'FAIL'}"
            )
        failures += 0 if row.passed else 1
    print(f"  {len(rows) - failures}/{len(rows)} grid points passed")

    parity_rows, parity_pass = parity_check_rows()
    print(f"parity closed form vs subset enumeration (relative tolerance {EXACT_RTOL:g})")
    for size, worst, passed in parity_rows:
        if not passed or args.verbose:
            print(f"  pairs={size:2d} worst rel err={worst:.3e} {'PASS' if passed else 'FAIL'}")
    print(f"  {sum(1 for r in parity_rows if r[2])}/{len(parity_rows)} sizes passed")

    sift_rows, sift_pass = sifting_check_rows()
    print(f"basis-switching sifting, exact count over the 2^N basis strings (relative tolerance {EXACT_RTOL:g})")
    for n, p_key, exact_key, ref_key, key_ok, exact_check, printed_check, all_bobs_check, verdict in sift_rows:
        print(
            f"  N={n} p_key={p_key:<4g} eta_key exact={exact_key:.6f} ref={ref_key:.6f} "
            f"[{'ok' if key_ok else 'FAIL'}]  eta_check exact={exact_check:.6f} "
            f"printed={printed_check:.6f} all-bobs={all_bobs_check:.6f} matches={verdict}"
        )
    verdicts = {row[-1] for row in sift_rows}
    print(
        "  check-round fractions match the all-bobs counting; the printed "
        "exponent variant agrees only where both coincide"
        if verdicts <= {"all-bobs", "both"}
        else f"  check-round verdicts: {sorted(verdicts)}"
    )

    ok = failures == 0 and parity_pass and sift_pass
    print("oracle-check: PASS" if ok else "oracle-check: FAIL")
    return EXIT_OK if ok else EXIT_MISMATCH


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was."""
    parser = argparse.ArgumentParser(
        prog="ghznet",
        description="Secret-key rates for GHZ-based secret sharing and conference key "
        "agreement over bottleneck networks.",
    )
    parser.add_argument("--version", action="version", version=f"ghznet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table(name: str, build, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a configuration key (repeatable)",
        )
        p.add_argument("--out", help="write the CSV table here instead of stdout")
        p.set_defaults(func=_run_table, build=build)
        return p

    add_table("rate", _rate, "single-point rate evaluation")
    add_table("sweep", _sweep, "sweep one parameter, one row per point")
    add_table("profile", _profile, "multi/bipartite rate ratio for N = 2..network.N")
    p_thr = add_table("threshold", _threshold, "find the multi/bi-partite crossing by ITP search")
    p_thr.add_argument(
        "--target", choices=("noise", "distance"), required=True, help="scan noise.f_D or the link distance"
    )
    p_thr.add_argument("--bracket", type=float, nargs=2, help="search bracket")

    p_rep = sub.add_parser("reproduce", help="emit figure-style CSV tables")
    p_rep.add_argument("--figure", required=True, help="a figure id such as fig5, or all")
    p_rep.add_argument("--outdir", default="reproduce-out")
    p_rep.add_argument("--seed", type=int, default=1)
    p_rep.set_defaults(func=cmd_reproduce)

    p_orc = sub.add_parser("oracle-check", help="run the verification oracles")
    p_orc.add_argument("--max-n", type=int, default=3)
    p_orc.add_argument("--widen-guard", action="store_true", help="allow the N=4 oracle run")
    p_orc.add_argument("--verbose", action="store_true")
    p_orc.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # the reader is gone: the rest, and the interpreter's final flush, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
