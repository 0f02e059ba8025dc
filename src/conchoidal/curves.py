"""Projective plane curves, the fixed scene, points, and divisors.

The frame is frozen: the line at infinity is z = 0 and the distinguished
point is A = [0:0:1].  Curves live in homogeneous coordinates (x, y, z) and
are stored canonically normalized (graded-lex leading coefficient 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import InvalidSceneError, NotHomogeneousError
from .fields import FIELD_Q, Scalar, to_scalar
from .gcd import is_squarefree
from .grammar import parse_poly, poly_to_text, scalar_to_text, parse_scalar
from .multipoly import MultiPoly, homogeneous_decompose

CURVE_VARS = ("x", "y", "z")


class ProjPoint:
    """A point of P^2; equality is up to a nonzero scalar."""

    __slots__ = ("coords",)

    def __init__(self, x, y, z):
        coords = (x, y, z)
        if not any(bool(c) if not isinstance(c, int) else c != 0 for c in coords):
            raise ValueError("projective point needs a nonzero coordinate")
        self.coords = tuple(to_scalar(c, _field_of_coords(coords)) for c in coords)

    @classmethod
    def affine(cls, a, b) -> "ProjPoint":
        return cls(a, b, 1)

    def canonical(self) -> Tuple[Scalar, Scalar, Scalar]:
        """Scale the last nonzero coordinate to 1."""
        for i in (2, 1, 0):
            if self.coords[i]:
                c = self.coords[i]
                return tuple(v / c for v in self.coords)
        raise AssertionError("unreachable: zero point")

    def is_affine(self) -> bool:
        return bool(self.coords[2])

    def affine_xy(self) -> Tuple[Scalar, Scalar]:
        if not self.is_affine():
            raise ValueError("point lies on the line at infinity")
        c = self.canonical()
        return c[0], c[1]

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        return f"ProjPoint{self.coords!r}"


def _field_of_coords(coords) -> str:
    from .fields import GaussianRational, FIELD_QI

    return FIELD_QI if any(isinstance(c, GaussianRational) for c in coords) else FIELD_Q


ORIGIN = ProjPoint(0, 0, 1)


class PlaneCurve:
    """A homogeneous equation in x, y, z, canonically normalized."""

    __slots__ = ("equation", "degree", "_z_parts")

    def __init__(self, equation: MultiPoly):
        eq = equation.with_vars(CURVE_VARS)
        if eq.is_zero():
            raise ValueError("the zero polynomial does not define a curve")
        if not eq.is_homogeneous():
            raise NotHomogeneousError("curve equation must be homogeneous")
        if eq.total_degree() < 1:
            raise ValueError("a curve needs degree >= 1")
        self.equation = eq.monic()
        self.degree = eq.total_degree()
        self._z_parts: Optional[List[MultiPoly]] = None

    @classmethod
    def from_text(cls, text: str, field: str = FIELD_Q) -> "PlaneCurve":
        return cls(parse_poly(text, field))

    @property
    def z_parts(self) -> List[MultiPoly]:
        """[F_d, ..., F_0] with F = sum F_h(x,y) z^(d-h)."""
        if self._z_parts is None:
            self._z_parts = homogeneous_decompose(self.equation)
        return self._z_parts

    @property
    def field(self) -> str:
        return self.equation.field

    def top_form(self) -> MultiPoly:
        """F_d(x, y), the restriction to the line at infinity."""
        return self.z_parts[0]

    def __eq__(self, other):
        if not isinstance(other, PlaneCurve):
            return NotImplemented
        return self.equation == other.equation

    def __hash__(self):
        return hash(self.equation)

    def __repr__(self):
        return f"PlaneCurve({poly_to_text(self.equation)!r})"

    def __mul__(self, other):
        if isinstance(other, PlaneCurve):
            return PlaneCurve(self.equation * other.equation)
        return NotImplemented

    def evaluate(self, point: ProjPoint) -> Scalar:
        x, y, z = point.coords
        return self.equation.evaluate({"x": x, "y": y, "z": z})

    def contains(self, point: ProjPoint) -> bool:
        return not self.evaluate(point)


def recenter(curve: PlaneCurve, center: Tuple[Scalar, Scalar]) -> PlaneCurve:
    """Move the affine point (a, b) to the origin: substitute
    x -> x + a z, y -> y + b z.  Degree is preserved and recentering by
    (-a, -b) inverts the map."""
    a, b = center
    eq = curve.equation
    x = MultiPoly.variable("x", CURVE_VARS, eq.field)
    y = MultiPoly.variable("y", CURVE_VARS, eq.field)
    z = MultiPoly.variable("z", CURVE_VARS, eq.field)
    return PlaneCurve(eq.substitute({"x": x + z * a, "y": y + z * b}))


@dataclass
class Scene:
    """The fixed frame (A = [0:0:1], L_inf: z = 0) plus the base curve B.

    Construction rejects a base curve with z as a component and records
    warnings for positions that void the generic-geometry guarantees
    (A on B, or B tangent to the line at infinity)."""

    base_curve: PlaneCurve
    warnings: List[str] = dc_field(default_factory=list)

    def __post_init__(self):
        f = self.base_curve.equation
        if self.base_curve.top_form().is_zero():
            raise InvalidSceneError("the line at infinity is a component of the base curve")
        if not f.evaluate({"x": Fraction(0), "y": Fraction(0), "z": Fraction(1)}):
            self.warnings.append("base curve passes through A")
        top = self.base_curve.top_form()
        if top.total_degree() >= 2 and not is_squarefree(top):
            self.warnings.append("base curve is tangent to the line at infinity")


DIVISOR_LABELS = ("base", "linf", "lineblock", "input", "residual")


@dataclass
class DivisorComponent:
    poly: MultiPoly
    mult: int
    label: str

    def __post_init__(self):
        if self.label not in DIVISOR_LABELS:
            raise ValueError(f"unknown divisor label {self.label!r}")
        if self.mult < 1:
            raise ValueError("component multiplicity must be positive")


@dataclass
class Divisor:
    """A factored cycle: unit * prod(poly_i ** mult_i) equals the represented
    equation exactly."""

    components: List[DivisorComponent]
    unit: Scalar

    def reconstruct(self) -> MultiPoly:
        acc = MultiPoly.constant(self.unit, CURVE_VARS,
                                 _field_of_coords((self.unit,)))
        for comp in self.components:
            acc = acc * comp.poly ** comp.mult
        return acc

    def multiplicity(self, label: str) -> int:
        return sum(c.mult for c in self.components if c.label == label)

    def component_with_label(self, label: str) -> Optional[DivisorComponent]:
        for c in self.components:
            if c.label == label:
                return c
        return None

    def residual(self) -> Optional[MultiPoly]:
        c = self.component_with_label("residual")
        return c.poly if c is not None else None

    def total_degree(self) -> int:
        return sum(c.poly.total_degree() * c.mult for c in self.components)

    def to_json_dict(self) -> dict:
        return {
            "unit": scalar_to_text(self.unit),
            "components": [
                {"poly": poly_to_text(c.poly), "mult": c.mult, "label": c.label}
                for c in self.components
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str, field: str = FIELD_Q) -> "Divisor":
        data = json.loads(text)
        comps = [
            DivisorComponent(parse_poly(c["poly"], field), int(c["mult"]), c["label"])
            for c in data["components"]
        ]
        return cls(comps, parse_scalar(data["unit"], field))
