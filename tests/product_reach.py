"""Which `src/tuttekit` functions the product never enters, measured by trace.

The product is the CLI and the demos.  This script lists every `def` under
`src/tuttekit/` by its AST as `module:qualname`, then runs every command line
of `golden_cli.json` through `tuttekit.cli.main` and each demo through
`runpy`, all in this process, under a `sys.setprofile` hook that records the
code object of each Python call.  A function is entered when its code object
is, matched on `co_qualname` (Python 3.11 and later).

`product_reach.json` maps each function the product never enters to one
reason from `REASONS`.  The script exits 1, naming each function, when a
function is never entered and not listed, or is listed and is entered;
otherwise it prints a one-line count and exits 0.

    python tests/product_reach.py
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tuttekit"
LISTED = Path(__file__).with_name("product_reach.json")

# Why a function may stay unentered; the README's "Tests" section says what each means.
REASONS = (
    "record-contract", "refusal-only", "public-export", "cli-help", "item-3", "bench-names"
)


def _qualnames(body, prefix=""):
    for node in body:
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name
            yield from _qualnames(node.body, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _qualnames(node.body, f"{prefix}{node.name}.")


def defined_functions(package: Path = PACKAGE) -> set:
    """`module:qualname` of every def in the package's modules."""
    return {
        f"{path.stem}:{name}"
        for path in package.glob("*.py")
        for name in _qualnames(ast.parse(path.read_text()).body)
    }


def entered_functions() -> set:
    """`module:qualname` of every package function the golden lines and demos enter."""
    sys.path.insert(0, str(PACKAGE.parent))
    from tuttekit.cli import main as cli_main

    lines = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        sys.setprofile(hook)
        try:
            for line in lines:
                cli_main(line.split())
            for demo in sorted((ROOT / "demos").glob("[0-9][0-9]_*.py")):
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.setprofile(None)
    return {
        f"{Path(code.co_filename).stem}:{code.co_qualname}"
        for code in codes
        if Path(code.co_filename).parent == PACKAGE
    }


def main() -> int:
    listed = json.loads(LISTED.read_text())
    defined = defined_functions()
    never = defined - entered_functions()
    unlisted = sorted(never - set(listed))
    entered = sorted(set(listed) & (defined - never))
    for name in unlisted:
        print(f"never entered, not listed: {name}")
    for name in entered:
        print(f"listed, but entered: {name}")
    print(f"{len(defined)} functions, {len(never)} never entered, {len(listed)} listed")
    return 1 if unlisted or entered else 0


if __name__ == "__main__":
    sys.exit(main())
