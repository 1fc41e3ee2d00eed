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
from .families import Family, InvariantViolation, word_of, shadow as family_shadow
from .shifting import compress_to_colex, daykin_shift, shift_ij, shift_to_shifted
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


# Each diversity metric's and shift operator's function and the flags it
# takes; an operator takes them in this order, after the family.  to-colex
# looks compress_to_colex up when it runs, not at import.
METRICS = {"gamma": (diversity, ()), "s": (s_diversity, ("s",)),
           "kk": (kk_diversity, ("n",)), "colex": (colex_diversity, ("t",))}
SHIFT_OPS = {"ij": (shift_ij, ("i", "j")), "daykin": (daykin_shift, ("U", "V")),
             "to-shifted": (shift_to_shifted, ()),
             "to-colex": (lambda fam: compress_to_colex(fam), ())}


def _flags(registry) -> tuple:
    """Every parameter some entry of a (function, parameters) registry takes."""
    return tuple(dict.fromkeys(p for _, wanted in registry.values() for p in wanted))


def _given(parser, args, registry, key) -> dict:
    """The keyword arguments of the registry entry that `key` (an option, or
    a positional argument's name) selects.  A flag the entry needs and was
    not given, or a flag of the registry it does not take, is a usage error."""
    name = getattr(args, key.lstrip("-"))
    target = f"{args.command} {key} {name}" if key.startswith("-") else f"{args.command} {name}"
    wanted = registry[name][1]
    for flag in _flags(registry):
        given = getattr(args, flag, None) is not None
        if given != (flag in wanted):
            parser.error(f"{target} {'takes no' if given else 'needs'} --{flag}")
    return {flag: getattr(args, flag) for flag in wanted}


def elements(text: str) -> int:
    """A set given as comma-separated elements, as a word."""
    return word_of(int(tok) for tok in text.split(","))


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
    p_shift.add_argument("--op", choices=tuple(SHIFT_OPS), required=True)
    p_shift.add_argument("--i", type=int)
    p_shift.add_argument("--j", type=int)
    p_shift.add_argument("--U", type=elements, help="comma-separated elements")
    p_shift.add_argument("--V", type=elements, help="comma-separated elements")
    p_shift.add_argument("--trace-file", help="write the trace here instead of stderr")
    p_shift.add_argument("file", nargs="?")

    p_comp = sub.add_parser("compress", help="alias of shift --op to-colex")
    p_comp.add_argument("--trace-file")
    p_comp.add_argument("file", nargs="?")
    p_comp.set_defaults(op="to-colex")

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
            sys.stdout.write(build(args.name, **_given(parser, args, CONSTRUCTIONS, "name")).to_text())
            return 0

        if args.command == "shadow":
            fam = _read_family(args.file)
            sys.stdout.write(family_shadow(fam, args.l).to_text())
            return 0

        if args.command == "diversity":
            fam = _read_family(args.file)
            res = METRICS[args.metric][0](fam, **_given(parser, args, METRICS, "--metric"))
            witness = res.witness if not isinstance(res.witness, tuple) else list(res.witness)
            print(json.dumps({"metric": args.metric, "value": res.value, "witness": witness}))
            return 0

        if args.command in ("shift", "compress"):
            fam = _read_family(args.file)
            out = SHIFT_OPS[args.op][0](fam, *_given(parser, args, SHIFT_OPS, "--op").values())
            out, trace_text = (out[0], out[1].to_text()) if isinstance(out, tuple) else (out, "")
            sys.stdout.write(out.to_text())
            if trace_text and args.trace_file:
                with open(args.trace_file, "w", encoding="utf-8") as handle:
                    handle.write(trace_text)
            else:
                sys.stderr.write(trace_text)
            return 0

        if args.command == "bound":
            print(bound_value(args.name, **_given(parser, args, BOUND_NAMES, "name")))
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


if __name__ == "__main__":
    sys.exit(main())
