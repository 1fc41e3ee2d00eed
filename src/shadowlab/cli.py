"""Command-line surface.

Families travel through stdin/stdout in the shared text format, so the
subcommands compose into pipelines; verification reports are JSON.  Exit
codes: 0 success, 2 counterexample found, 3 budget exceeded, 64 usage
error, 70 a runtime certificate failed, 74 I/O or data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .binomials import BOUND_NAMES, bound_value
from .constructions import CONSTRUCTIONS, build
from .diversity import colex_diversity, diversity, influence, kk_diversity, s_diversity
from .families import Family, InvariantViolation, word_of
from .shifting import compress_to_colex, daykin_shift, shift_ij, shift_to_shifted
from .families import shadow as family_shadow
from .spaces import _parse_params
from .verifier import BudgetExceeded, InstanceSpace, verify

EX_USAGE = 64
EX_SOFTWARE = 70
EX_IOERR = 74
EX_COUNTEREXAMPLE = 2
EX_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EX_USAGE)


def _read_family(path: str | None) -> Family:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        return Family.from_text(text)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"cannot read family: {exc}\n")
        raise SystemExit(EX_IOERR)


# Each diversity metric's function and the one flag it needs, if any.
METRICS = {"gamma": (diversity, None), "s": (s_diversity, "s"),
           "kk": (kk_diversity, "n"), "colex": (colex_diversity, "t")}


def _flags(registry) -> tuple:
    """Every parameter some entry of a (function, parameters) registry takes."""
    return tuple(dict.fromkeys(p for _, wanted in registry.values() for p in wanted))


def _given(parser, args, registry) -> dict:
    """Every flag of the registry that was given.  A flag `args.name` needs
    and was not given is a usage error; `args.name` refuses one it does not take."""
    given = {flag: getattr(args, flag) for flag in _flags(registry)}
    for flag in registry[args.name][1]:
        if given[flag] is None:
            parser.error(f"{args.command} {args.name} needs --{flag}")
    return {flag: val for flag, val in given.items() if val is not None}


def _num(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="shadowlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", parents=[], help="emit a named construction")
    p_con.add_argument("name", choices=sorted(CONSTRUCTIONS))
    for flag in _flags(CONSTRUCTIONS):
        p_con.add_argument(f"--{flag}", type=int)

    p_sh = sub.add_parser("shadow", help="the l-shadow of a family")
    p_sh.add_argument("-l", type=int, required=True)
    p_sh.add_argument("file", nargs="?")

    p_div = sub.add_parser("diversity", help="diversity metrics as JSON")
    p_div.add_argument("--metric", choices=tuple(METRICS), default="gamma")
    p_div.add_argument("--s", type=int, help="avoided-set size for --metric s")
    p_div.add_argument("--n", type=int, help="cover size for --metric kk")
    p_div.add_argument("--t", type=int, help="segment size for --metric colex")
    p_div.add_argument("file", nargs="?")

    p_shift = sub.add_parser("shift", help="apply a shift operator; trace on stderr")
    p_shift.add_argument("--op", choices=("ij", "daykin", "to-shifted", "to-colex"), required=True)
    p_shift.add_argument("--i", type=int)
    p_shift.add_argument("--j", type=int)
    p_shift.add_argument("--U", help="comma-separated elements")
    p_shift.add_argument("--V", help="comma-separated elements")
    p_shift.add_argument("--trace-file", help="write the trace here instead of stderr")
    p_shift.add_argument("file", nargs="?")

    p_comp = sub.add_parser("compress", help="alias of shift --op to-colex")
    p_comp.add_argument("--trace-file")
    p_comp.add_argument("file", nargs="?")

    p_bound = sub.add_parser("bound", help="evaluate a named closed-form bound")
    p_bound.add_argument("--name", choices=sorted(BOUND_NAMES), required=True)
    for flag in _flags(BOUND_NAMES):
        p_bound.add_argument(f"--{flag}", type=_num)

    p_inf = sub.add_parser("influence", help="coordinate influences as JSON")
    p_inf.add_argument("-i", type=int, help="single coordinate; all plus total otherwise")
    p_inf.add_argument("file", nargs="?")

    p_ver = sub.add_parser("verify", help="run a claim over an instance space")
    p_ver.add_argument("--claim", required=True)
    p_ver.add_argument("--space", required=True)
    p_ver.add_argument("--param", action="append", default=[], help="claim parameter k=v")
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_ver.add_argument("--budget", type=int)
    p_ver.add_argument("--output", help="write the report here as well as stdout")

    args = parser.parse_args(argv)

    try:
        if args.command == "construct":
            sys.stdout.write(build(args.name, **_given(parser, args, CONSTRUCTIONS)).to_text())
            return 0

        if args.command == "shadow":
            fam = _read_family(args.file)
            sys.stdout.write(family_shadow(fam, args.l).to_text())
            return 0

        if args.command == "diversity":
            fam = _read_family(args.file)
            metric, wanted = METRICS[args.metric]
            for _, flag in METRICS.values():
                if flag not in (None, wanted) and getattr(args, flag) is not None:
                    parser.error(f"--metric {args.metric} takes no --{flag}")
            if wanted and getattr(args, wanted) is None:
                parser.error(f"--metric {args.metric} needs --{wanted}")
            res = metric(fam) if wanted is None else metric(fam, getattr(args, wanted))
            witness = res.witness if not isinstance(res.witness, tuple) else list(res.witness)
            print(json.dumps({"metric": args.metric, "value": res.value, "witness": witness}))
            return 0

        if args.command in ("shift", "compress"):
            op = "to-colex" if args.command == "compress" else args.op
            fam = _read_family(args.file)
            trace_text = ""
            if op == "ij":
                if args.i is None or args.j is None:
                    parser.error("shift --op ij needs --i and --j")
                out = shift_ij(fam, args.i, args.j)
            elif op == "daykin":
                if not args.U or not args.V:
                    parser.error("shift --op daykin needs --U and --V")
                u = word_of(int(tok) for tok in args.U.split(","))
                v = word_of(int(tok) for tok in args.V.split(","))
                out = daykin_shift(fam, u, v)
            elif op == "to-shifted":
                out, trace_obj = shift_to_shifted(fam)
                trace_text = trace_obj.to_text()
            else:
                out, trace_obj = compress_to_colex(fam)
                trace_text = trace_obj.to_text()
            sys.stdout.write(out.to_text())
            if trace_text:
                if getattr(args, "trace_file", None):
                    with open(args.trace_file, "w", encoding="utf-8") as handle:
                        handle.write(trace_text)
                else:
                    sys.stderr.write(trace_text)
            return 0

        if args.command == "bound":
            print(bound_value(args.name, **_given(parser, args, BOUND_NAMES)))
            return 0

        if args.command == "influence":
            fam = _read_family(args.file)
            if args.i is not None:
                print(json.dumps({"i": args.i, "influence": influence(fam, args.i)}))
            else:
                values = [influence(fam, i) for i in range(1, fam.n + 1)]
                print(json.dumps({"influences": values, "total": sum(values)}))
            return 0

        if args.command == "verify":
            if args.jobs < 1:
                parser.error(f"--jobs must be at least 1, not {args.jobs}")
            if args.budget is not None and args.budget < 0:
                parser.error(f"--budget must be at least 0, not {args.budget}")
            params = _parse_params(args.param, "--param")
            space = InstanceSpace.parse(args.space)
            if args.seed is not None:
                if space.kind != "random-sample":
                    parser.error("--seed applies only to random-sample spaces")
                space = InstanceSpace.make(
                    space.kind, **{**dict(space.params), "seed": args.seed}
                )
            report = verify(
                args.claim, space, params=params or None,
                jobs=args.jobs, budget=args.budget,
            )
            text = report.to_json()
            print(text)
            if args.output:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
            return EX_COUNTEREXAMPLE if report.violations else 0

    except BudgetExceeded as exc:
        sys.stderr.write(f"{exc}\n")
        return EX_BUDGET
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EX_USAGE
    except OSError as exc:
        sys.stderr.write(f"{exc}\n")
        return EX_IOERR
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violated: {exc}\n")
        return EX_SOFTWARE

    parser.error("no command")
    return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
