"""Command-line interface.

    papc run --config FILE [--seed-override S] [--out DIR] [--force]
    papc validate --config FILE
    papc zoo --list

Exit codes: 0 success, 1 divergence or run failure, 2 config/hypothesis
rejection.
"""

from __future__ import annotations

import argparse
import sys

from .config import parse_config_file
from .errors import ConfigError, PapcError
from .runner import run_experiment, validate_only
from .zoo import zoo


def _cmd_run(args):
    cfg = parse_config_file(args.config)
    result = run_experiment(cfg, out_dir=args.out, force=args.force,
                            seed_override=args.seed_override)
    status = result.summary.get("status", "unknown")
    print("run %s: %s (artifacts in %s)" % (cfg.problem, status, result.out_dir))
    if status == "rejected":
        for name in result.summary["certificate"]["failed"]:
            print("  failed condition: %s" % name)
    return result.exit_code


def _cmd_validate(args):
    cfg = parse_config_file(args.config)
    cert = validate_only(cfg)
    for check in cert.checks:
        print("[%s] %s%s" % ("ok" if check.ok else "FAIL", check.name,
                             (" - " + check.detail) if check.detail else ""))
    print("certificate: %s (regime %s)" % ("PASS" if cert.ok else "REJECTED", cert.regime))
    return 0 if cert.ok else 2


def _cmd_zoo(args):
    for name, entry in sorted(zoo().items()):
        print("%-8s %s" % (name, entry.description))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="papc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed-override", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--force", action="store_true",
                       help="run even when the hypothesis certificate fails")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check the hypothesis certificates only")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_zoo = sub.add_parser("zoo", help="problem registry")
    p_zoo.add_argument("--list", action="store_true")
    p_zoo.set_defaults(func=_cmd_zoo)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except PapcError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
