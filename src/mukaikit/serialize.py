"""Canonical JSON forms: exact rationals, sorted keys, stable bytes.

Rationals are serialized as "p/q" strings (bare "p" when integral) and
never as floats; reparsing and re-serializing a report reproduces it
byte for byte.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import suppress
from fractions import Fraction
from numbers import Real
from typing import TYPE_CHECKING, Any

from .errors import ValidationError

if TYPE_CHECKING:
    from .mukai import MukaiVector

SCHEMA_VERSION = "1"
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational_to_json(x) -> str:
    x = Fraction(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # str() of an int over the interpreter's digit limit
        raise digit_limit_error() from None


def digit_limit_error() -> ValidationError:
    """The error for a result int too long to print (``sys.get_int_max_str_digits``)."""
    return ValidationError(
        f"a result has a number over the {sys.get_int_max_str_digits()}-digit limit "
        "for integer output"
    )


def read_p_q(text: str) -> Fraction | None:
    """``text`` as a Fraction when it is 'p' or 'p/q' with q != 0, the CLI's rule;
    None otherwise. Fraction alone would also take decimals and exponents, and
    "1e10000000" takes seconds to build."""
    if _RATIONAL.fullmatch(text):
        with suppress(ValueError, ZeroDivisionError):  # q = 0, or over the digit limit
            return Fraction(text)
    return None


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        x = read_p_q(value)
        if x is not None:
            return x
        raise ValidationError(f"{where}: {value!r} is not a rational 'p/q' string")
    if isinstance(value, Real):  # json.loads reads every non-integer number as a float
        raise ValidationError(f"{where}: floats are not accepted; use 'p/q' strings")
    raise ValidationError(f"{where}: expected a rational, got {type(value).__name__}")


def parse_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}: expected an integer, got {value!r}")
    return value


def coords_to_json(coords) -> list[str]:
    return [rational_to_json(c) for c in coords]


def mukai_to_json(v: MukaiVector) -> dict[str, Any]:
    return {
        "v0": rational_to_json(v.v0),
        "v1": coords_to_json(v.v1.coords),
        "v2": rational_to_json(v.v2),
    }


def matrix_to_json(m) -> list[list]:
    out = []
    for row in m:
        out.append([rational_to_json(x) if isinstance(x, Fraction) else int(x) for x in row])
    return out


def canonical_dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
