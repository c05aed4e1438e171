"""Command-line front end.

Subcommands: terms, eval, converge, zeros, special.  Data goes to stdout
(or --out FILE), diagnostics to stderr.  JSON emissions are wrapped in an
envelope {schema_version, command, parameters, payload} so a result file
records the invocation that produced it.  CSV uses '.' decimals and 17
significant digits, enough to round-trip a double losslessly.

Exit codes: 0 success, 2 usage or parse error (an unwritable --out, or
output that cannot be written, included), 3 mathematical domain error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from pathlib import Path

from .admissible import MAX_LIMIT, admissible_up_to
from .errors import DomainError, InputError, check_int
from .reference import reference_zeta
from .representations import (
    RepresentationKind,
    euler_even_zeta,
    partial_sum_columns,
    special_value,
    zeta_alt_coth_partial,
    zeta_alt_partial,
    zeta_bernoulli_partial,
    zeta_coth_partial,
    zeta_direct_partial,
)
from .rootfind import PRESETS, SearchRegion, find_zeros, make_target

__all__ = ["main"]

SCHEMA_VERSION = "1"

# converge refuses tables longer than this before it builds any row.
MAX_ROWS = 10**6

# terms formats and writes this many bases at a time.
_TERMS_BLOCK = 2**14

_EVALUATORS = {
    "direct": zeta_direct_partial,
    "coth": zeta_coth_partial,
    "alt": zeta_alt_partial,
    "alt-coth": zeta_alt_coth_partial,
}


def _g(x) -> str:
    """17 significant digits: lossless double round-trip."""
    return format(float(x), ".17g")


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"expected 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise InputError(f"bad complex literal {text!r}") from exc


def _parse_region(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError(
            f"expected 're_min,re_max,im_min,im_max', got {text!r}"
        )
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"bad region literal {text!r}") from exc
    return values


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        numbers = [int(p) for p in parts]
    except ValueError as exc:
        raise InputError(f"bad grid literal {text!r}") from exc
    if len(numbers) == 1:
        return numbers[0], numbers[0]
    if len(numbers) == 2:
        return numbers[0], numbers[1]
    raise InputError(f"expected 'N' or 'N_re,N_im', got {text!r}")


def _envelope(command: str, parameters: dict, payload) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "payload": payload,
    }
    return json.dumps(doc, indent=2)


def _reference_delta(value: complex, z: complex) -> float | None:
    try:
        return abs(value - reference_zeta(z))
    except (DomainError, InputError):
        return None


def _cmd_terms(args):
    """The output in chunks, from the int64 bases: no Python int or str is
    held for every base at once."""
    aset = admissible_up_to(args.n)
    head, sep, tail = "", "\n", f"\nl={aset.term_count}"
    if args.json:
        # The envelope split at a placeholder for the members, which go one
        # to a line at the placeholder's indent.
        payload = {"members": ["\0"], "term_count": aset.term_count}
        head, tail = _envelope("terms", {"n": args.n}, payload).split('"\\u0000"')
        sep = "," + head[head.rindex("\n") :]
    return _joined(aset.bases, head, sep, tail)


def _joined(values, head: str, sep: str, tail: str):
    """head, the values joined by sep, then tail, in chunks of
    _TERMS_BLOCK values."""
    yield head
    for i in range(0, len(values), _TERMS_BLOCK):
        block = sep.join(map(str, values[i : i + _TERMS_BLOCK].tolist()))
        yield block if i == 0 else sep + block
    yield tail


def _evaluate(args):
    if args.rep == "bernoulli":
        return zeta_bernoulli_partial(args.z, args.n, args.order)
    return _EVALUATORS[args.rep](args.z, args.n)


def _cmd_eval(args) -> str:
    result = _evaluate(args)
    delta = _reference_delta(result.value, args.z)
    if args.json:
        return _envelope(
            "eval",
            {
                "rep": args.rep,
                "z": [args.z.real, args.z.imag],
                "n": args.n,
                "order": args.order if args.rep == "bernoulli" else None,
            },
            {
                "value_re": result.value.real,
                "value_im": result.value.imag,
                "term_count": result.term_count,
                "tail_bound": result.tail_bound,
                "reference_delta": delta,
            },
        )
    lines = [
        f"value_re = {_g(result.value.real)}",
        f"value_im = {_g(result.value.imag)}",
        f"l = {result.term_count}",
    ]
    if result.tail_bound is not None:
        lines.append(f"tail_bound = {_g(result.tail_bound)}")
    if delta is not None:
        lines.append(f"reference_delta = {_g(delta)}")
    return "\n".join(lines)


def _cmd_converge(args) -> str:
    step = check_int(args.step, "step", 1)
    n_max = check_int(args.n_max, "n-max", 2, MAX_LIMIT)
    row_count = n_max // step - (step == 1)  # every multiple of step but 1
    if row_count > MAX_ROWS:
        raise InputError(
            f"--n-max {n_max} with --step {step} asks for {row_count} rows,"
            f" more than {MAX_ROWS}; raise --step or lower --n-max"
        )
    ns = [n for n in range(step, n_max + 1, step) if n >= 2]
    if not ns:
        raise InputError("no truncations >= 2 to report; raise n-max or step")
    try:
        reference = reference_zeta(args.z)
    except (DomainError, InputError):
        reference = None
    kind = RepresentationKind(args.rep)
    ns, _, values, tails = partial_sum_columns(kind, args.z, n_max, ns, args.order)
    # Every row has an error and a tail bound, or none does: one format,
    # each float as _g writes it, applied once to the columns interleaved.
    has_error, has_tail = reference is not None, tails[0] is not None
    line = "\n%d,%.17g,%.17g," + "%.17g" * has_error + "," + "%.17g" * has_tail
    columns = [ns, [v.real for v in values], [v.imag for v in values]]
    if has_error:
        columns.append([abs(v - reference) for v in values])
    if has_tail:
        columns.append(tails)
    fields = [None] * (len(columns) * len(ns))
    for i, column in enumerate(columns):
        fields[i :: len(columns)] = column
    return "n,value_re,value_im,abs_error,tail_bound" + line * len(ns) % tuple(fields)


def _zeros_target(args):
    if args.preset is not None:
        if args.rep is not None or args.n is not None:
            raise InputError("give either --preset or --rep/--n, not both")
        try:
            return args.preset, PRESETS[args.preset]
        except KeyError:
            raise InputError(
                f"unknown preset {args.preset!r}; choose from"
                f" {sorted(PRESETS)}"
            ) from None
    if args.rep is None or args.n is None:
        raise InputError("need --preset, or --rep and --n")
    constant = 1.0 if args.constant is None else args.constant
    return None, make_target(RepresentationKind(args.rep), args.n, constant)


def _cmd_zeros(args) -> str:
    preset_name, target = _zeros_target(args)
    grid_re, grid_im = args.grid
    region = SearchRegion(*args.region, grid_re=grid_re, grid_im=grid_im)
    roots = find_zeros(target, region, tol=args.tol, threads=args.threads)
    payload = {
        "roots": [
            {
                "re": r.location.real,
                "im": r.location.imag,
                "residual": r.residual,
                "verified": r.verified,
                "conjugate_of": r.conjugate_of,
                "winding": r.winding,
            }
            for r in roots
        ]
    }
    parameters = {
        "preset": preset_name,
        "rep": target.kind.value,
        "n": target.n,
        "constant": target.constant,
        "region": list(args.region),
        "grid": [grid_re, grid_im],
        "tol": args.tol,
        "threads": args.threads,
    }
    return _envelope("zeros", parameters, payload)


def _cmd_special(args) -> str:
    result = special_value(args.kind, args.m, args.n)
    euler = None
    deviation = None
    if args.kind == "even":
        euler = euler_even_zeta(args.m)
        deviation = abs(result.value - euler)
    if args.json:
        return _envelope(
            "special",
            {"kind": args.kind, "m": args.m, "n": args.n},
            {
                "value_re": result.value.real,
                "value_im": result.value.imag,
                "term_count": result.term_count,
                "euler": euler,
                "deviation": deviation,
            },
        )
    lines = [f"value = {_g(result.value.real)}"]
    if euler is not None:
        lines.append(f"euler = {_g(euler)}")
        lines.append(f"deviation = {_g(deviation)}")
    return "\n".join(lines)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later main()."""
    parser = argparse.ArgumentParser(
        prog="zetasieve",
        description=(
            "Partial sums of zeta over non-perfect-power bases:"
            " evaluation, convergence tables, and zero searches."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_terms = sub.add_parser("terms", help="list the admissible bases up to n")
    p_terms.add_argument("--n", type=int, required=True)
    p_terms.add_argument("--json", action="store_true")
    p_terms.add_argument("--out", type=Path, default=None)
    p_terms.set_defaults(handler=_cmd_terms)

    p_eval = sub.add_parser("eval", help="evaluate one representation at z")
    p_eval.add_argument(
        "--rep",
        choices=[kind.value for kind in RepresentationKind],
        required=True,
    )
    p_eval.add_argument("--z", type=_parse_complex, required=True)
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument(
        "--order", type=int, default=40, help="Bernoulli series order M"
    )
    p_eval.add_argument("--json", action="store_true")
    p_eval.add_argument("--out", type=Path, default=None)
    p_eval.set_defaults(handler=_cmd_eval)

    p_conv = sub.add_parser(
        "converge", help="CSV of values and errors over truncations"
    )
    p_conv.add_argument(
        "--rep",
        choices=[kind.value for kind in RepresentationKind],
        required=True,
    )
    p_conv.add_argument("--z", type=_parse_complex, required=True)
    p_conv.add_argument("--n-max", dest="n_max", type=int, required=True)
    p_conv.add_argument("--step", type=int, required=True)
    p_conv.add_argument("--order", type=int, default=40)
    p_conv.add_argument("--out", type=Path, default=None)
    p_conv.set_defaults(handler=_cmd_converge)

    p_zeros = sub.add_parser(
        "zeros", help="search a region for zeros of a partial-sum target"
    )
    p_zeros.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p_zeros.add_argument("--rep", choices=["direct", "alt"], default=None)
    p_zeros.add_argument("--n", type=int, default=None)
    p_zeros.add_argument("--constant", type=float, default=None)
    p_zeros.add_argument("--region", type=_parse_region, required=True)
    p_zeros.add_argument("--tol", type=float, default=1e-10)
    p_zeros.add_argument("--grid", type=_parse_grid, default=(40, 40))
    p_zeros.add_argument(
        "--threads", type=int, default=1, help="no effect on results or speed"
    )
    p_zeros.add_argument("--out", type=Path, default=None)
    p_zeros.set_defaults(handler=_cmd_zeros)

    p_special = sub.add_parser(
        "special", help="partial sum at integer arguments m, 2m, or 2m+1"
    )
    p_special.add_argument(
        "--kind", choices=["any", "even", "odd"], required=True
    )
    p_special.add_argument("--m", type=int, required=True)
    p_special.add_argument("--n", type=int, required=True)
    p_special.add_argument("--json", action="store_true")
    p_special.add_argument("--out", type=Path, default=None)
    p_special.set_defaults(handler=_cmd_special)

    return parser


# Flags whose values legitimately start with a minus sign ("-2,2,-6,6");
# argparse would misread the value as an option, so fold it into --flag=value.
_NEGATIVE_VALUE_FLAGS = {"--z", "--region", "--constant", "--tol"}


def _fold_negative_values(argv: list[str]) -> list[str]:
    folded = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (
            token in _NEGATIVE_VALUE_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and len(argv[i + 1]) > 1
            and (argv[i + 1][1].isdigit() or argv[i + 1][1] == ".")
        ):
            folded.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            folded.append(token)
            i += 1
    return folded


def _stdout_to_devnull() -> None:
    """Point stdout's descriptor at os.devnull, so the interpreter's last
    flush of what could not be written (to a closed pipe or a full disk)
    does not fail again at exit."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (OSError, ValueError):  # a stream with no descriptor of its own
        pass
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fold_negative_values(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # A handler returns its text, or chunks of it to write as they come.
    chunks = itertools.chain([output] if isinstance(output, str) else output, "\n")
    if args.out is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            _stdout_to_devnull()
            return 2
        return 0
    try:
        with args.out.open("w") as stream:
            stream.writelines(chunks)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
