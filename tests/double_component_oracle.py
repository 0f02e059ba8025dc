"""The double-component search that ``gcd.derivative_gcd`` replaced, kept
as the tests' independent oracle for ``recognize._double_component``: the
gcd of the polynomial with one partial derivative, retried against the
other partial's gcd when a factor free of the first variable spoils the
double exact division."""

from __future__ import annotations

from typing import Optional

from conchoidal.gcd import poly_gcd
from conchoidal.multipoly import MultiPoly, poly_exact_div


def double_component_oracle(resid: MultiPoly) -> Optional[MultiPoly]:
    """A non-exceptional component of multiplicity exactly >= 2, detected by
    gcd with a partial derivative and confirmed by double exact division."""
    for var in ("x", "y"):
        deriv = resid.derivative(var)
        if deriv.is_zero():
            continue
        g = poly_gcd(resid, deriv)
        if g.is_constant():
            continue
        if poly_exact_div(poly_exact_div(resid, g), g) is not None:
            return g.monic()
        # g may carry extra repeated-factor content; retry against the
        # other derivative's gcd
        for var2 in ("x", "y"):
            if var2 == var:
                continue
            d2 = resid.derivative(var2)
            if d2.is_zero():
                continue
            g2 = poly_gcd(g, poly_gcd(resid, d2))
            if g2.is_constant():
                continue
            if poly_exact_div(poly_exact_div(resid, g2), g2) is not None:
                return g2.monic()
    return None
