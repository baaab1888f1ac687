"""Command-line front end.

Subcommands:

* ``twistss analyze <model> [--twist EXPR] [--max-page R] [--format F] [--out PATH]``
  runs the full pipeline (validation, twisted cohomology, all pages,
  differential verification, convergence, indeterminacy) and emits a report.
  Exit code 0 when every verdict passes, 1 on a verification failure, 2 on
  input errors.
* ``twistss massey <model> --twist EXPR`` with one of ``--triple L L L``,
  ``--thm41 --class EXPR --t T`` or ``--thm42 --class EXPR --t T --s S``
  prints the defining-system matrix, its related cocycle, the chosen class
  and the comparison against the zig-zag differential.
* ``twistss selftest [--seed N]`` runs the bundled acceptance battery.

The model argument is a path to a JSON model file; names of bundled models
(``torus3``, ``heisenberg``, ...) are also accepted.  ``--t``, ``--s`` and
``--max-page`` must be at least 1, and the page 2t+3 of ``--t`` must exist:
at most n + 2 for a model of top degree n.

The argument parser is built once per process, on the first `main` call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .cdga import CdgaModel, ModelError, load_model
from .massey import (
    MasseyError,
    banded_defining_system,
    diagonal_defining_system,
    specific_element,
    triple_product,
    validate_defining_system,
)
from .models import model_names, model_path
from .report import run_analysis
from .spectral import PageError, SpectralSequence
from .twist import TwistError, parse_twist


class InputError(Exception):
    pass


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load(model_arg: str) -> CdgaModel:
    if os.path.exists(model_arg):
        return load_model(model_arg)
    if model_arg in model_names():
        return load_model(model_path(model_arg))
    raise InputError(f"no such model file or bundled model: {model_arg!r}")


def _cmd_analyze(args) -> int:
    model = _load(args.model)
    H = parse_twist(model, args.twist)
    report = run_analysis(model, H, max_page=args.max_page)
    text = report.to_json() if args.format == "json" else report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.all_pass else 1


def _print_class(model, degree: int, coords) -> str:
    if degree > model.top_degree or not coords:
        return "0"
    return f"[{model.part_form(degree, model.de_rham(degree).lift(coords))}]"


def _cmd_massey(args) -> int:
    model = _load(args.model)
    H = parse_twist(model, args.twist)
    if args.triple:
        x1, x2, x3 = (model.parse_form(e) for e in args.triple)
        tp = triple_product(x1, x2, x3)
        print(f"triple product <{args.triple[0]}, {args.triple[1]}, {args.triple[2]}>")
        print(f"  witnesses: v1 = {tp.v1}, v2 = {tp.v2}")
        print(f"  representative: {tp.omega}")
        print(f"  class: {_print_class(model, tp.degree, tp.coords)} in degree {tp.degree}")
        print(f"  indeterminacy dimension: {tp.indeterminacy.dim}")
        print(f"  verdict: {'nonzero' if not tp.is_zero_class else 'zero'} class")
        return 0

    t = args.t
    r = 2 * t + 3
    if r > model.top_degree + 2:
        raise InputError(f"--t {t} asks for page {r}, past the last page {model.top_degree + 2}")
    ss = SpectralSequence(model, H)
    x = model.parse_form(args.cls)
    if args.thm42:
        s = args.s
        if s is None:
            raise InputError("--thm42 needs --s")
        if (t + 1) % s != 0 or (t + 1) // s < 2:
            print(f"verdict: not applicable (t = {t} is not l*s - 1 with l >= 2 for s = {s})")
            return 0
        system = diagonal_defining_system(ss, x, t, s)
        sign = (-1) ** ((t + 1) // s - 1)
    else:
        system = banded_defining_system(ss, x, t)
        sign = (-1) ** t
    c = validate_defining_system(system)  # c(A), from the one validation
    deg, cls = specific_element(system, c)
    print("defining system:")
    print(system.layout())
    print(f"related cocycle: {c}")
    print(f"specific element: {_print_class(model, deg, cls)} in degree {deg}")
    lhs = ss.differential(r, x)
    agree = lhs.coords == ss.page_coords(r, x.degree + r, sign * c)
    print(f"d_{r} class: {_print_class(model, x.degree + r, _in_h(model, ss, lhs))}")
    print(f"verdict: zig-zag differential {'matches' if agree else 'DIFFERS FROM'} the signed specific element on page {r}")
    return 0 if agree else 1


def _in_h(model, ss, page_class):
    cell = ss.cell(page_class.r, page_class.p)
    if cell.dim == 0 or not page_class.coords:
        return ()
    return model.de_rham(page_class.p).project(cell.lift(page_class.coords))


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest(seed=args.seed) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistss",
        description="Twisted cohomology and its filtration spectral sequence on finite CDGA models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full pipeline with verification report")
    pa.add_argument("model", help="model file path or bundled model name")
    pa.add_argument("--twist", default="", help="twist expression, e.g. 'e1^e2^e3' (default: untwisted)")
    pa.add_argument("--max-page", type=_positive_int, default=None, help="stop the page table at this r")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.add_argument("--out", default=None, help="write the report to a file")
    pa.set_defaults(fn=_cmd_analyze)

    pm = sub.add_parser("massey", help="defining systems and Massey products")
    pm.add_argument("model")
    pm.add_argument("--twist", default="", help="twist expression")
    mode = pm.add_mutually_exclusive_group(required=True)
    mode.add_argument("--triple", nargs=3, metavar="FORM", help="Massey triple product of three closed forms")
    mode.add_argument("--thm41", action="store_true", help="banded defining system for the iterated degree-3 product")
    mode.add_argument("--thm42", action="store_true", help="diagonal defining system for a single twist component")
    pm.add_argument("--class", dest="cls", default=None, help="the page class x_p, as a form expression")
    pm.add_argument("--t", type=_positive_int, default=None, help="page parameter: the differential is d_{2t+3}")
    pm.add_argument("--s", type=_positive_int, default=None, help="the single twist component has degree 2s+1")
    pm.set_defaults(fn=_cmd_massey)

    ps = sub.add_parser("selftest", help="run the bundled acceptance battery")
    ps.add_argument("--seed", type=int, default=0, help="seed for the randomized sweep")
    ps.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "massey" and not args.triple:
        if args.cls is None or args.t is None:
            print("error: --thm41/--thm42 need --class and --t", file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except KeyError as e:
        print(f"error: {e.args[0] if e.args else e}", file=sys.stderr)
        return 2
    except (InputError, ModelError, TwistError, MasseyError, PageError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
