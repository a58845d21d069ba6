"""Embedded reference tables and a parser for printed polynomial strings.

The fixture data is stored verbatim as printed in the reference tables,
and parsed into exact polynomials on demand.  Keeping the raw strings lets
the test suite distinguish "matches the published values" from "matches
itself"; known defects in the printed source (a truncated row, a typo) are
recorded on the fixture rather than silently patched.  `fixture(kind, row)`
is the one lookup: a kind is a column of the weight-lattice tables
(`weight-tutte`, `characteristic` or `ehrhart`), a row is e.g. "B3".
"""

from __future__ import annotations

import functools
import re
from typing import Dict, List, NamedTuple, Tuple

from .errors import StructureError
from .poly import MultiPoly

_TERM_RE = re.compile(
    r"^\s*(?P<coeff>-?\d+)?\s*(?P<vars>(?:[A-Za-z](?:\^\{?\d+\}?)?\s*)*)\s*$"
)
_FACTOR_RE = re.compile(r"(?P<var>[A-Za-z])(?:\^\{?(?P<exp>\d+)\}?)?")


def parse_poly_terms(text: str, variables: Tuple[str, ...]) -> MultiPoly:
    """Parse a printed sum of monomials like "15+5 x+3 x^2+20 y^{10}"."""
    cleaned = text.replace("−", "-").replace("$", "").strip()
    # Split into signed terms.
    pieces: List[str] = []
    for chunk in cleaned.replace("-", "+-").split("+"):
        chunk = chunk.strip()
        if chunk:
            pieces.append(chunk)
    if not pieces:
        raise StructureError(f"no terms in {text!r}")
    terms: Dict[Tuple[int, ...], int] = {}
    for piece in pieces:
        sign = 1
        if piece.startswith("-"):
            sign = -1
            piece = piece[1:].strip()
        m = _TERM_RE.match(piece)
        if not m:
            raise StructureError(f"unparseable term {piece!r}")
        coeff = sign * int(m.group("coeff") or 1)
        exps = [0] * len(variables)
        for f in _FACTOR_RE.finditer(m.group("vars") or ""):
            var = f.group("var")
            if var not in variables:
                raise StructureError(f"unknown variable {var!r} in {piece!r}")
            exps[variables.index(var)] += int(f.group("exp") or 1)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return MultiPoly(variables, terms)


class TableFixture(NamedTuple):
    row: str  # e.g. "B3"
    printed: str  # verbatim printed string
    variables: Tuple[str, ...]
    note: str = ""  # why the printed row is only partly checked, if it is

    @property
    def partial(self) -> bool:
        """The printed row is truncated in the source."""
        return bool(self.note)

    @property
    def family(self) -> str:
        return self.row[0]

    @property
    def n(self) -> int:
        """Coordinate count for A, rank for B/C/D."""
        return int(self.row[1:])

    @property
    def poly(self) -> MultiPoly:
        text = self.printed
        if self.partial:
            # Drop a dangling coefficient with no monomial at the end.
            text = re.sub(r"\+\s*\d+\s*$", "", text)
        return parse_poly_terms(text, self.variables)

    def matches(self, candidate: MultiPoly) -> bool:
        """Exact equality, or printed-terms-only agreement when partial."""
        mine = self.poly
        if not self.partial:
            return mine == candidate
        return all(
            candidate.terms.get(exps, 0) == c for exps, c in mine.terms.items()
        )


# Arithmetic Tutte polynomials in the weight lattice.  Type-A rows are
# indexed by coordinate count (row A3 is the rank-2 configuration).
_WEIGHT_TUTTE: Dict[str, str] = {
    "A2": "1+x",
    "A3": "4+x+x^2+3 y",
    "A4": "15+5 x+3 x^2+x^3+20 y+4 x y+12 y^2+4 y^3",
    "A5": "96+6 x+11 x^2+6 x^3+x^4+150 y+20 x y+10 x^2 y+135 y^2+15 x y^2"
    "+95 y^3+5 x y^3+50 y^4+20 y^5+5 y^6",
    "B2": "3+4 x+x^2+4 y+2 y^2",
    "B3": "24+17 x+6 x^2+x^3+38 y+10 x y+33 y^2+3 x y^2+22 y^3+12 y^4+6 y^5+2 y^6",
    "B4": "153+156 x+62 x^2+12 x^3+x^4+348 y+200 x y+28 x^2 y+438 y^2+132 x y^2"
    "+6 x^2 y^2+420 y^3+60 x y^3+344 y^4+24 x y^4+260 y^5+12 x y^5+184 y^6"
    "+4 x y^6+120 y^7+72 y^8+40 y^9+20 y^10+8 y^11+2 y^12",
    "B5": "1680+1409 x+580 x^2+150 x^3+20 x^4+x^5+4604 y+2436 x y+580 x^2 y"
    "+60 x^3 y+6910 y^2+2350 x y^2+330 x^2 y^2+10 x^3 y^2+7830y^3+1780 x y^3"
    "+150 x^2 y^3+7620 y^4+1200 x y^4+60 x^2 y^4+6846 y^5+804 x y^5+30 x^2 y^5"
    "+5844 y^6+506 x y^6+10 x^2 y^6+4780 y^7+300 x y^7+3780 y^8+180x y^8"
    "+2900 y^9+100 x y^9+2154 y^{10}+50 x y^{10}+1540 y^{11}+20 x y^{11}+1055y^{12}"
    "+5 x y^{12}+690 y^{13}+430 y^{14}+254 y^{15}+140 y^{16}+70 y^{17}+30",
    "C2": "3+4 x+x^2+4 y+2 y^2",
    "C3": "15+23 x+9 x^2+x^3+32 y+16 x y+30 y^2+6 x y^2+20 y^3+12 y^4+6 y^5+2 y^6",
    "C4": "105+176 x+86 x^2+16 x^3+x^4+296 y+240 x y+40 x^2 y+396 y^2+168 x y^2"
    "+12 x^2 y^2+376 y^3+88 x y^3+304 y^4+48 x y^4+232 y^5+24 x y^5+168 y^6+8 x y^6"
    "+112 y^7+70 y^8+40 y^9+20 y^{10}+8 y^{11}+2 y^{12}",
    "C5": "945+1689 x+950 x^2+230 x^3+25 x^4+x^5+3264 y+3376 x y+960 x^2 y+80 x^3 y"
    "+5540 y^2+3500 x y^2+540 x^2 y^2+20 x^3 y^2+6640 y^3+2720 x y^3+240 x^2 y^3"
    "+6600 y^4+1920 x y^4+120 x^2 y^4+5956 y^5+1344 x y^5+60 x^2 y^5+5084 y^6"
    "+896 x y^6+20 x^2 y^6+4160 y^7+560 x y^7+3310 y^8+350 x y^8+2580 y^9+200 x y^9"
    "+1952 y^{10}+100 x y^{10}+1420 y^{11}+40 x y^{11}+990 y^{12}+10 x y^{12}"
    "+660 y^{13}+420 y^{14}+252 y^15+140 y^16+70 y^17+30 y^18+10 y^19+2 y^20",
    "D2": "1+2x+x^2",
    "D3": "15+5 x+3 x^2+x^3+20 y+4 x y+12 y^2+4 y^3",
    "D4": "57+88 x+38 x^2+8 x^3+x^4+160 y+112 x y+16 x^2 y+216 y^2+72 x y^2+200 y^3"
    "+24 x y^3+140 y^4+80 y^5+40 y^6+16 y^7+4 y^8",
    "D5": "915+629 x+270 x^2+90 x^3+15 x^4+x^5+2384 y+1096 x y+320 x^2 y+40 x^3 y"
    "+3540 y^2+1080 x y^2+180 x^2 y^2+4060 y^3+840 x y^3+60 x^2 y^3+3930 y^4"
    "+510 x y^4+3376 y^5+264 x y^5+2644 y^6+116 x y^6+1920 y^7+40 x y^7+1310 y^8"
    "+10 x y^8+840 y^9+504 y^{10}+280 y^{11}+140 y^{12}+60 y^{13}+20 y^{14}+4 y^{15}",
}

# Characteristic polynomials derived from the weight-lattice table.
_CHARACTERISTIC: Dict[str, str] = {
    "A2": "-2+q",
    "A3": "6 - 3 q + q^2",
    "A4": "-24 + 14 q - 6 q^2 + q^3",
    "A5": "120 - 50 q + 35 q^2 - 10 q^3 + q^4",
    "B2": "8-6 q+q^2",
    "B3": "-48+32 q-9 q^2+q^3",
    "B4": "384-320 q+104 q^2-16 q^3+q^4",
    "B5": "-3840+3104 q-1160 q^2+240 q^3-25 q^4+q^5",
    "C2": "8-6 q+q^2",
    "C3": "-48+44 q-12 q^2+q^3",
    "C4": "384-400 q+140 q^2-20 q^3+q^4",
    "C5": "-3840+4384 q-1800 q^2+340 q^3-30 q^4+q^5",
    "D2": "4-4 q+q^2",
    "D3": "-24+14 q-6 q^2+q^3",
    "D4": "192-192 q+68 q^2-12 q^3+q^4",
    "D5": "-1920+1504 q-640 q^2+160 q^3-20 q^4+q^5",
}

# Ehrhart polynomials of the weight-lattice zonotopes.
_EHRHART: Dict[str, str] = {
    "A2": "1+2t",
    "A3": "1+3 t+9 t^2",
    "A4": "1+6 t+18 t^2+64 t^3",
    "A5": "1+10 t+45 t^2+110 t^3+625 t^4",
    "B2": "1+6 t+14 t^2",
    "B3": "1+9 t+45 t^2+174 t^3",
    "B4": "1+16 t+138 t^2+820 t^3+3106 t^4",
    "B5": "1+25 t+310 t^2+2530 t^3+15365 t^4+72290 t^5",
    "C2": "1+6 t+14 t^2",
    "C3": "1+12 t+66 t^2+172 t^3",
    "C4": "1+20 t+192 t^2+1080 t^3+3036 t^4",
    "C5": "1+30 t+440 t^2+4040 t^3+23580 t^4+69976 t^5",
    "D2": "1+4 t+4 t^2",
    "D3": "1+6 t+18 t^2+64 t^3",
    "D4": "1+12 t+84 t^2+432 t^3+1272 t^4",
    "D5": "1+20 t+200 t^2+1320 t^3+6700 t^4+31488 t^5",
}

# A rank-2 worked example outside the tables: its printed Ehrhart string
# contains a typo ("6t^2" for "6t"), resolved by the accompanying counts
# (area 14, 21 lattice points, 9 interior).
C2_INTEGER_EHRHART_PRINTED = "14t^2+6t^2+1"
C2_INTEGER_EHRHART_CORRECTED = "14t^2+6t+1"
C2_INTEGER_TUTTE = "x^2+2y^2+4x+4y+3"
C2_ROOT_EHRHART = "7t^2+4t+1"

# Each fixture kind, in the order `fixtures` prints it: its printed rows and
# their variables.
FIXTURES: Dict[str, Tuple[Dict[str, str], Tuple[str, ...]]] = {
    "weight-tutte": (_WEIGHT_TUTTE, ("x", "y")),
    "characteristic": (_CHARACTERISTIC, ("q",)),
    "ehrhart": (_EHRHART, ("t",)),
}

_PARTIAL = {
    ("weight-tutte", "B5"): "printed row breaks off at a dangling '+30'; only "
    "the printed terms are checked"
}


def fixture(kind: str, row: str) -> TableFixture:
    """The printed `kind` polynomial of `row`, e.g. fixture("ehrhart", "B3")."""
    printed, variables = FIXTURES.get(kind, ({}, ()))
    if row not in printed:
        raise StructureError(f"no {kind!r} fixture for row {row!r}")
    return TableFixture(row, printed[row], variables, _PARTIAL.get((kind, row), ""))


# The benchmark's result gate and reference script look fixtures up by kind
# under these names.
weight_tutte_fixture = functools.partial(fixture, "weight-tutte")
characteristic_fixture = functools.partial(fixture, "characteristic")
ehrhart_fixture = functools.partial(fixture, "ehrhart")


def all_rows() -> List[str]:
    return sorted(_WEIGHT_TUTTE, key=lambda r: (r[0], int(r[1:])))
