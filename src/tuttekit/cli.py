"""Command-line interface: compute, verify, tabulate, and dump fixtures.

All output is deterministic: polynomials print in ascending graded-lex
order with explicit separators, and JSON uses the canonical encoding with
sorted keys.  Exit codes: 0 success, 1 computation error (any other package
error, e.g. an inexact division or an inadmissible modulus), 2 verification
mismatch, 3 capacity guard, 4 usage error.

`compute --method` takes the names of `tuttekit.verify.ENGINES` and calls
that entry; `all` runs every entry, skips those that raise `CapacityError`
and compares the rest, reporting the agreement as a skip (`null` in JSON)
when only one ran; `invariants` derives its report from the
`bruteforce` entry.  `verify` prints one line per check of
`tuttekit.verify.verify_system`, including its closing `cross-check` skip
when no second engine reached a verdict; a skip's reason is the message of
the `CapacityError` its engine raised.  Skips keep exit code 0 and any
failed check gives 2.

`COMMANDS` is the parse table: verb -> (handler, {flag: (dest, int or str,
choices, default)}), where a default of None makes the flag required.
`parse_args` reads a command line against it.  A flag is its exact long
name, followed by its value as the next token, which may begin with `-`, or
after `=`; a repeated flag keeps its last value, and an integer is an
optional `-` and ASCII digits.  Anything else raises `StructureError`
(exit 4); `-h` or `--help` prints the synopsis the table gives.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import List, Optional

from .errors import CapacityError, StructureError, TutteKitError
from .genfun import DEFAULT_ORDER, GenFunRequest, expand_genfun, tutte_from_series
from .invariants import derive_all
from .poly import MultiPoly
from .root_systems import FAMILIES, LATTICE_KINDS, RootSystemSpec, parse_system
from .tables import FIXTURES, all_rows, fixture
from .tutte import TuttePolynomial
from .verify import ENGINES, all_passed, attempt, verify_system

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2
EXIT_CAPACITY = 3
EXIT_USAGE = 4

# Each `table --report` name, in the order a text row prints its cells, and
# its JSON key: "tutte" is the row's Tutte polynomial, the others are fields
# of its `derive_all` report.
REPORTS = {"tutte": "tutte", "char": "characteristic", "ehrhart": "ehrhart"}


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _print_rows(output: str, head: dict, lines: List[str]) -> None:
    """Print each row's line, or `head` as JSON with its last key's list holding the
    JSON rows: the bytes `_json_dump` gives for the whole payload, without its tree."""
    if output == "json":
        lines = [_json_dump(head)[: -len("]}")] + ",".join(lines) + "]}"]
    print("\n".join(lines))


def _tutte_payload(spec: RootSystemSpec, method: str, t: TuttePolynomial) -> dict:
    return {
        "system": str(spec),
        "method": method,
        "flavor": t.flavor,
        "rank": t.rank,
        "ambient_rank": t.ambient_rank,
        "polynomial": t.poly.to_json_dict(),
    }


def cmd_compute(args) -> int:
    spec = parse_system(args.system)
    if args.method != "all":
        t = ENGINES[args.method](spec)
        if args.output == "json":
            print(_json_dump(_tutte_payload(spec, args.method, t)))
        else:
            print(f"{spec} [{args.method}]")
            print(f"M(x,y) = {t.poly}")
        return EXIT_OK

    outcomes = {m: attempt(lambda: run(spec)) for m, run in ENGINES.items()}
    computed = {m: t for m, t in outcomes.items() if not isinstance(t, CapacityError)}
    if not computed:
        raise CapacityError("no method could run within its capacity guard")
    first = next(iter(computed.values()))
    if len(computed) == 1:  # nothing to compare with
        agree, verdict = None, f"skip (only {next(iter(computed))} ran)"
    else:
        agree = all(t == first for t in computed.values())  # the whole record
        verdict = "yes" if agree else "NO"
    if args.output == "json":
        payload = _tutte_payload(spec, "all", first)
        payload["methods_run"] = sorted(computed)
        payload["agreement"] = agree
        print(_json_dump(payload))
    else:
        print(f"{spec} [{', '.join(sorted(computed))}]")
        print(f"M(x,y) = {first.poly}")
        print(f"agreement: {verdict}")
    return EXIT_MISMATCH if agree is False else EXIT_OK


def cmd_verify(args) -> int:
    spec = parse_system(args.system)
    results = verify_system(spec)
    if args.output == "json":
        print(_json_dump({"system": str(spec), "checks": [r._asdict() for r in results]}))
    else:
        for r in results:
            line = f"{spec}  {r.name}: {r.status}"
            if r.detail:
                line += f" ({r.detail})"
            print(line)
    return EXIT_OK if all_passed(results) else EXIT_MISMATCH


def cmd_table(args) -> int:
    reports = [r.strip() for r in args.report.split(",")]
    for r in reports:
        if r not in REPORTS:
            raise StructureError(f"unknown report {r!r}")
    if args.max_n < 2:
        raise StructureError(f"--max-n must be at least 2, got {args.max_n}")
    keys = [key for name, key in REPORTS.items() if name in reports]
    lines = []
    for family in FAMILIES:
        # The Z^n coefficients do not depend on the order once it is n or more.
        series = expand_genfun(GenFunRequest(family, args.lattice, args.max_n))
        for n in range(2, args.max_n + 1):
            t = tutte_from_series(series, family, args.lattice, n)
            rep = derive_all(t)
            row = f"{family}{n}"
            cells = [(k, t.poly if k == "tutte" else getattr(rep, k)) for k in keys]
            lines.append(
                _json_dump({"row": row, **{k: p.to_json_dict() for k, p in cells}})
                if args.output == "json"
                else "\t".join([row, *(str(p) for _, p in cells)])
            )
    _print_rows(args.output, {"lattice": args.lattice, "rows": []}, lines)
    return EXIT_OK


def cmd_invariants(args) -> int:
    spec = parse_system(args.system)
    rep = derive_all(ENGINES["bruteforce"](spec))
    fields = list(zip(rep._fields, rep))
    if args.output == "json":
        payload = {"system": str(spec)}
        payload.update(
            (name, v.to_json_dict() if isinstance(v, MultiPoly) else v) for name, v in fields
        )
        print(_json_dump(payload))
    else:
        print(f"{spec}")
        for name, v in fields:
            print(f"{name}: {v}")
    return EXIT_OK


def cmd_fixtures(args) -> int:
    lines = []
    for row in all_rows():
        for kind in FIXTURES:
            fx = fixture(kind, row)
            entry = {
                "row": row,
                "kind": kind,
                "source": "reference-table",
                "printed": fx.printed,
                "partial": fx.partial,
                "note": fx.note,
                "polynomial": fx.poly.to_json_dict(),
            }
            flag = " [partial]" if fx.partial else ""
            text = f"{row} {kind}{flag}: {fx.printed}"
            lines.append(_json_dump(entry) if args.output == "json" else text)
    _print_rows(args.output, {"fixtures": []}, lines)
    return EXIT_OK


_OUTPUT = {"--output": ("output", str, ("text", "json"), "text")}
_SYSTEM = {"--system": ("system", str, None, None)}

COMMANDS = {
    "compute": (cmd_compute, {
        **_SYSTEM,
        "--method": ("method", str, (*ENGINES, "all"), "bruteforce"),
        "--order": ("order", int, None, DEFAULT_ORDER),  # ignored; genfun reads Z^n alone
        **_OUTPUT,
    }),
    "verify": (cmd_verify, {**_SYSTEM, **_OUTPUT}),
    "table": (cmd_table, {
        "--lattice": ("lattice", str, LATTICE_KINDS, "weight"),
        "--max-n": ("max_n", int, None, 4),
        "--report": ("report", str, None, "tutte"),  # comma list of REPORTS names
        **_OUTPUT,
    }),
    "invariants": (cmd_invariants, {**_SYSTEM, **_OUTPUT}),
    "fixtures": (cmd_fixtures, _OUTPUT),
}
HELP = ("-h", "--help")


def print_help(verbs) -> int:
    """Print the synopsis of each verb, read off COMMANDS."""
    print("usage:")
    for verb in verbs:
        flags = []
        for flag, (dest, _, choices, default) in COMMANDS[verb][1].items():
            value = "{" + ",".join(choices) + "}" if choices else dest.upper()
            flags.append(f"{flag} {value}" if default is None else f"[{flag} {value}]")
        print("  tuttekit", verb, *flags)
    return EXIT_OK


def parse_args(argv: List[str]):
    """Read `VERB --flag value ...` against COMMANDS into (handler, args)."""
    verb = argv[0] if argv else ""
    if verb in HELP:
        return print_help, list(COMMANDS)
    if verb not in COMMANDS:
        raise StructureError(f"expected a verb, one of {', '.join(COMMANDS)}")
    handler, flags = COMMANDS[verb]
    values = {dest: default for dest, _, _, default in flags.values()}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in HELP:
            return print_help, [verb]
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise StructureError(f"unrecognized argument {token!r} for {verb}")
        value = value if eq else next(tokens, None)
        if value is None:
            raise StructureError(f"{flag} needs a value")
        dest, kind, choices, _ = flags[flag]
        if choices and value not in choices:
            raise StructureError(f"{flag} must be one of {', '.join(choices)}, got {value!r}")
        if kind is int:
            digits = value[1:] if value.startswith("-") else value
            if not (digits.isascii() and digits.isdigit()):
                raise StructureError(f"{flag} takes decimal digits, got {value!r}")
            value = int(value)
        values[dest] = value
    for flag, (dest, *_) in flags.items():
        if values[dest] is None:
            raise StructureError(f"{verb} needs {flag}")
    return handler, SimpleNamespace(**values)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except StructureError as exc:
        print(f"usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TutteKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
