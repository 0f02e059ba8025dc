"""The quartic splitter that ``solve_zero_dim`` replaced, kept as the
tests' independent oracle for ``roots._quartic_quadratic_split``: the
product (t^2 + a t + b)(t^2 + c t + e) is eliminated by hand down to one
polynomial in a, whose roots in the field are tried in order, and the
symmetric case a = c is solved last through a square root of the
discriminant of T^2 - (b + e) T + r0."""

from __future__ import annotations

from typing import Optional, Tuple

from conchoidal.fields import sqrt_in_field, to_scalar
from conchoidal.multipoly import MultiPoly
from conchoidal.roots import rational_roots


def quartic_split_oracle(p: MultiPoly) -> Optional[Tuple[MultiPoly, MultiPoly]]:
    """Split a monic quartic in one variable with no roots in the field into
    two monic quadratics over the field, if possible."""
    r0, r1, r2, r3, _ = [c.constant_value() for c in p.coefficients_in(p.vars[0])]
    field = p.field
    # (t^2 + a t + b)(t^2 + c t + e); eliminate down to a univariate in a.
    a_var = MultiPoly.variable("w", ("w",), field)
    one = MultiPoly.constant(1, ("w",), field)
    c_of_a = one * r3 - a_var
    s_of_a = one * r2 - a_var * c_of_a                      # b + e
    num_b = one * r1 - a_var * s_of_a                        # b*(c-a) = r1 - a*S
    den = c_of_a - a_var                                     # c - a
    # b = num_b/den, e = S - b; condition b*e = r0:
    # num_b*(S*den - num_b) = r0*den^2
    cond = num_b * (s_of_a * den - num_b) - one * r0 * den * den
    candidates = []
    if not cond.is_zero():
        candidates = [r for r, _ in rational_roots(cond, field)]
    # the symmetric case c == a needs separate handling
    half_r3 = to_scalar(r3, field) / 2
    candidates.append(half_r3)
    t = MultiPoly.variable(p.vars[0], p.vars, field)
    for a0 in candidates:
        c0 = r3 - a0
        if c0 != a0:
            S = r2 - a0 * c0
            b0 = (r1 - a0 * S) / (c0 - a0)
            e0 = S - b0
            if b0 * e0 == r0:
                return t * t + t * a0 + b0, t * t + t * c0 + e0
        else:
            # b + e = r2 - a0**2, a0*(b + e) = r1 must hold, b*e = r0
            S = r2 - a0 * a0
            if a0 * S != r1:
                continue
            # b, e roots of T^2 - S T + r0
            disc = S * S - 4 * r0
            root = sqrt_in_field(disc, field)
            if root is None:
                continue
            b0 = (S + root) / 2
            e0 = S - b0
            return t * t + t * a0 + b0, t * t + t * c0 + e0
    return None
