"""Command-line entry point.

Subcommands:
  simulate <config.json>   run the full (policy x mode) matrix
  ablate   <config.json>   sweep prompt size or tool count
  policies                 print the built-in policy table
  verify   <run-dir>       recompute a run's summary from its CSV

Exit codes: 0 success, 1 validation problem, 2 I/O problem. This is the
one module that writes to the terminal; the library calls it makes
return their results and print nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter

from .checks import is_seed
from .config import DEFAULT_GRIDS, AblationGrid, load_config, to_json
from .errors import ConfigError
from .policies import builtin_policies
from .runner import format_report_table, run_ablation, run_experiment, verify_run

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachesim",
        description="Prompt-cache cost and latency simulator for agent sessions")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the experiment matrix from a config")
    sim.add_argument("config", help="path to the experiment config JSON")
    _common_flags(sim)

    abl = sub.add_parser("ablate", help="sweep prompt size or tool count")
    abl.add_argument("config", help="path to the experiment config JSON")
    abl.add_argument("--dimension", required=True,
                     choices=list(DEFAULT_GRIDS))
    abl.add_argument("--values", nargs="+", type=int, default=None,
                     help="grid values (ascending); defaults to the standard grid")
    _common_flags(abl)

    pol = sub.add_parser("policies", help="print the built-in provider policies")
    pol.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the policy table as JSON")

    ver = sub.add_parser("verify", help="recompute a run's summary and diff it")
    ver.add_argument("run_dir", help="directory written by the simulate command")
    return parser


def _common_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--seed", type=int, default=None,
                     help="override the config's master seed")
    cmd.add_argument("--out", default=None, help="override the output directory")


def _policy_table() -> str:
    lines = [
        f"{'policy':<20} {'mode':<22} {'min_tok':>8} {'gran':>5} {'ttl_s':>6} "
        f"{'refresh':>7} {'input':>7} {'output':>7} {'cached':>7} {'write':>6} {'storage':>8}",
    ]
    lines.append("-" * len(lines[0]))
    for policy in builtin_policies():
        p = policy.prices
        write = f"{p.cache_write_per_mtok:.2f}" if p.cache_write_per_mtok else "---"
        storage = f"{p.storage_per_mtok_hour:.2f}/h" if p.storage_per_mtok_hour else "---"
        lines.append(
            f"{policy.name:<20} {policy.mode.value:<22} {policy.min_cache_tokens:>8} "
            f"{policy.granularity_tokens:>5} {policy.ttl_seconds:>6.0f} "
            f"{str(policy.refresh_on_read).lower():>7} {p.input_per_mtok:>7.3f} "
            f"{p.output_per_mtok:>7.2f} {p.cached_read_per_mtok:>7.3f} {write:>6} {storage:>8}")
        if p.tier_boundary_tokens is not None:
            lines.append(
                f"{'':<20} {'> ' + str(p.tier_boundary_tokens) + ' tokens':<22} "
                f"{'':>8} {'':>5} {'':>6} {'':>7} {p.tier2_input_per_mtok:>7.3f} "
                f"{p.tier2_output_per_mtok:>7.2f} {p.tier2_cached_read_per_mtok:>7.3f} "
                f"{'---':>6} {'':>8}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "policies":
            if args.as_json:
                print(json.dumps(to_json(builtin_policies()), indent=2, sort_keys=True))
            else:
                print(_policy_table())
            return EXIT_OK

        if args.command == "verify":
            problems = verify_run(args.run_dir)
            if problems:
                for problem in problems:
                    print(problem, file=sys.stderr)
                print(f"verify: {len(problems)} mismatch(es)", file=sys.stderr)
                return EXIT_VALIDATION
            print("verify: ok")
            return EXIT_OK

        if args.seed is not None and not is_seed(args.seed):
            raise ConfigError(f"--seed must be an integer in [0, 2**64), got {args.seed}")
        config = load_config(args.config, master_seed=args.seed)
        if args.command == "simulate":
            print(format_report_table(run_experiment(config, out_dir=args.out).report))
            return EXIT_OK

        if args.command == "ablate":
            grid = AblationGrid(args.dimension,
                                tuple(args.values or DEFAULT_GRIDS[args.dimension]))
            rows = run_ablation(config, grid, out_dir=args.out)
            for value, conditions in Counter(row.value for row in rows).items():
                print(f"{grid.dimension}={value}: {conditions} conditions done")
            return EXIT_OK

        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    code = main()
    # Skip the collection the interpreter makes at shutdown, which walks
    # every object the run left behind: reference counting still frees
    # them, and flushes and atexit handlers still run. main() does not
    # freeze, as tests and tools call it in a process that goes on.
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
