"""Config file parsing with field-precise error messages.

A config is a single JSON object; vectors of rationals accept ints and
"p/q" strings interchangeably. Every consistency requirement (dimensions,
lattice membership) is checked here before any computation runs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import HypothesisViolation, ValidationError
from .exactlin import IntMatrix
from .lattice import Lattice, LatticeVector
from .mukai import MukaiVector
from .records import record
from .surface import H11Class, K3Model
from .serialize import parse_int, parse_rational

if TYPE_CHECKING:
    from .twisted import TwistData


def _expect_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected an object")
    return value


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list")
    return value


def _int_matrix(value, where: str) -> IntMatrix:
    rows = _expect_list(value, where)
    out = []
    for i, row in enumerate(rows):
        row = _expect_list(row, f"{where}[{i}]")
        out.append(tuple(parse_int(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)))
    widths = {len(r) for r in out}
    if len(widths) > 1:
        raise ValidationError(f"{where}: rows have inconsistent lengths")
    return tuple(out)


def _rational_vector(value, where: str) -> tuple[Fraction, ...]:
    items = _expect_list(value, where)
    return tuple(parse_rational(x, f"{where}[{i}]") for i, x in enumerate(items))


def _checked_vector(lattice: Lattice, coords: tuple[Fraction, ...], where: str) -> LatticeVector:
    if len(coords) != lattice.rank:
        raise ValidationError(f"{where}: expected length {lattice.rank}, got {len(coords)}")
    return lattice.vector(coords)


@record
class Config:
    model: K3Model
    mukai: MukaiVector | None
    omega: H11Class | None
    omega_prime: H11Class | None
    twist: TwistData | None
    embedding: IntMatrix | None
    existence: tuple[int, int, int] | None


def _parse_surface(raw: dict) -> K3Model:
    surf = _expect_dict(raw.get("surface"), "surface") if "surface" in raw else None
    if surf is None:
        raise ValidationError("surface: section is required")
    if "ns_gram" not in surf:
        raise ValidationError("surface.ns_gram: field is required")
    ns = Lattice(_int_matrix(surf["ns_gram"], "surface.ns_gram"), "NS")
    if "t11_gram" in surf and surf["t11_gram"] is not None:
        t11 = Lattice(_int_matrix(surf["t11_gram"], "surface.t11_gram"), "T11")
    else:
        t11 = Lattice(())
    curves = []
    listed = surf.get("curve_classes")
    listed = [] if listed is None else _expect_list(listed, "surface.curve_classes")
    for i, c in enumerate(listed):
        where = f"surface.curve_classes[{i}]"
        curves.append(_checked_vector(ns, _rational_vector(c, where), where))
    if "reference_positive" not in surf:
        raise ValidationError("surface.reference_positive: field is required")
    ref = _rational_vector(surf["reference_positive"], "surface.reference_positive")
    if len(ref) != ns.rank + t11.rank:
        raise ValidationError(
            "surface.reference_positive: expected length "
            f"{ns.rank + t11.rank} (NS rank + transcendental rank), got {len(ref)}"
        )
    reference = H11Class(ns.vector(ref[: ns.rank]), t11.vector(ref[ns.rank:]))
    try:
        return K3Model(ns=ns, reference_positive=reference, t11=t11, curve_classes=tuple(curves))
    except ValidationError as exc:
        raise ValidationError(f"surface: {exc}") from exc


def _parse_h11(raw, model: K3Model, where: str) -> H11Class:
    body = _expect_dict(raw, where)
    ns_coords = _rational_vector(body.get("ns", []), f"{where}.ns")
    t_coords = _rational_vector(body.get("t", []), f"{where}.t")
    # Both parses come first, so a parse error in t wins over a length error in ns.
    return H11Class(
        _checked_vector(model.ns, ns_coords, f"{where}.ns"),
        _checked_vector(model.t11, t_coords, f"{where}.t"),
    )


def parse_config(raw: dict) -> Config:
    raw = _expect_dict(raw, "config")
    model = _parse_surface(raw)

    mukai = None
    if "mukai" in raw:
        body = _expect_dict(raw["mukai"], "mukai")
        for key in ("r", "xi", "a"):
            if key not in body:
                raise ValidationError(f"mukai.{key}: field is required")
        r = parse_rational(body["r"], "mukai.r")
        xi = _checked_vector(model.ns, _rational_vector(body["xi"], "mukai.xi"), "mukai.xi")
        a = parse_rational(body["a"], "mukai.a")
        mukai = MukaiVector(r, xi, a)

    omega = _parse_h11(raw["omega"], model, "omega") if "omega" in raw else None
    omega_prime = (
        _parse_h11(raw["omega_prime"], model, "omega_prime") if "omega_prime" in raw else None
    )

    twist = None
    if "twist" in raw:
        from .twisted import TwistData

        body = _expect_dict(raw["twist"], "twist")
        s = parse_int(body.get("s"), "twist.s")
        b = parse_rational(body.get("b", 0), "twist.b")
        b_field = None
        if body.get("b_field") is not None:
            coords = _rational_vector(body["b_field"], "twist.b_field")
            b_field = _checked_vector(model.ns, coords, "twist.b_field")
        try:
            twist = TwistData(s, b, b_field)
        except HypothesisViolation as exc:
            raise ValidationError(f"twist: {exc}") from exc

    embedding = None
    if raw.get("embedding") is not None:
        embedding = _int_matrix(raw["embedding"], "embedding")

    existence = None
    if "existence" in raw:
        body = _expect_dict(raw["existence"], "existence")
        existence = (
            parse_int(body.get("r"), "existence.r"),
            parse_int(body.get("d"), "existence.d"),
            parse_int(body.get("g"), "existence.g"),
        )

    return Config(model, mukai, omega, omega_prime, twist, embedding, existence)


def load_config(path: str | Path) -> Config:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config: {path} is not valid UTF-8: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int literal over the digit limit
        raise ValidationError(f"config: invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"config: JSON in {path} is nested too deeply") from exc
    return parse_config(raw)
