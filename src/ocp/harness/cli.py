"""Command line front end.

Subcommands: solve (one configured run), table (benchmark table of one
protocol), rate (smoothing-error decay study), sparsity (control support
study).  Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 table with failed cells.
"""

import argparse
import sys

from .config import FLAT_KEYS, ConfigError, build_config, load_config_file, parse_flat
from .experiments import rate_study, run_single, run_table, sparsity_study


def _add_config_flags(parser):
    parser.add_argument("--config", help="key=value config file")
    # one flag per flat config key; values go through the config file parser
    for key in FLAT_KEYS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            metavar="RxC" if key == "subdomains" else None)
    parser.add_argument("--out", default="out", help="output directory")


def _float_list(text):
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc
    if not values:
        raise ConfigError(f"empty numeric list {text!r}")
    return values


def _config_from_args(args):
    file_values = load_config_file(args.config) if args.config else {}
    overrides = {}
    for key in FLAT_KEYS:
        value = getattr(args, key)
        if value is not None:
            overrides.update(parse_flat(key, value))
    return build_config(file_values, overrides)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ocp",
        description="Solvers and experiments for L1-regularized semilinear "
                    "elliptic optimal control")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one configured solve")
    _add_config_flags(solve)

    table = sub.add_parser("table", help="run one benchmark table")
    table.add_argument("table_id",
                       choices=("mono", "gmres", "raspen", "scaling", "sweep"))
    _add_config_flags(table)

    rate = sub.add_parser("rate", help="smoothing error decay study")
    rate.add_argument("--n", type=int, default=128)
    rate.add_argument("--eps-list", default="1e-1,1e-2,1e-3,1e-4,1e-5,1e-6")
    rate.add_argument("--eps-ref", type=float, default=1e-12)
    rate.add_argument("--nu", type=float, default=1e-6)
    rate.add_argument("--mu", type=float, default=1.0)
    rate.add_argument("--kappa", type=float, default=0.1)
    rate.add_argument("--tol", type=float, default=1e-10)
    rate.add_argument("--out", default="out")

    sparsity = sub.add_parser("sparsity", help="control support study")
    sparsity.add_argument("--n", type=int, default=64)
    sparsity.add_argument("--mu-list", default="1e-5,1e-4,1e-3")
    sparsity.add_argument("--eps-list", default="1,1e-2,1e-3,1e-11")
    sparsity.add_argument("--nu", type=float, default=1e-6)
    sparsity.add_argument("--kappa", type=float, default=0.1)
    sparsity.add_argument("--tol", type=float, default=1e-10)
    sparsity.add_argument("--no-fields", action="store_true",
                          help="skip per-cell control field dumps")
    sparsity.add_argument("--out", default="out")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            cfg = _config_from_args(args)
            code, data = run_single(cfg, args.out)
            status = "converged" if data["converged"] else f"FAILED ({data['failure']})"
            print(f"{cfg.method} n={cfg.n}: {status} after "
                  f"{data['outer_iters']} outer iterations; artifacts in {args.out}")
            return code

        if args.command == "table":
            cfg = _config_from_args(args)
            code, rows = run_table(args.table_id, cfg, args.out)
            good = sum(row.converged for row in rows)
            print(f"table {args.table_id}: {good}/{len(rows)} cells converged; "
                  f"wrote {args.out}/table_{args.table_id}.csv")
            return code

        if args.command == "rate":
            rows, slope = rate_study(args.n, _float_list(args.eps_list),
                                     args.out, nu=args.nu, mu=args.mu,
                                     kappa=args.kappa, eps_ref=args.eps_ref,
                                     tol=args.tol)
            print(f"rate study n={args.n}: fitted slope {slope:.4f} over "
                  f"{len(rows)} eps values; wrote {args.out}/rate.csv")
            return 0

        rows = sparsity_study(_float_list(args.mu_list),
                              _float_list(args.eps_list), args.n, args.out,
                              nu=args.nu, kappa=args.kappa, tol=args.tol,
                              dump_fields=not args.no_fields)
        print(f"sparsity study n={args.n}: {len(rows)} cells; "
              f"wrote {args.out}/sparsity.csv")
        return 0
    except RuntimeError as exc:
        # first: a NonfiniteFieldError from the numerics is also a ValueError
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # ConfigError and bad study parameters: usage problems, not solver ones
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
