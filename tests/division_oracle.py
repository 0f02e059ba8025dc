"""The single-divisor graded-lex reduction, kept as the tests' independent
oracle for ``poly_exact_div``.

Each step subtracts a monomial multiple of the divisor from the whole
remainder, so a division costs |q|*|f| and a miss runs until its first
non-divisible leading term; the library settles misses by a modular line
image and keeps its remainder in a heap instead.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from conchoidal.fields import Scalar, to_scalar
from conchoidal.multipoly import MultiPoly, _aligned


def grlex_exact_div(f: MultiPoly, g: MultiPoly) -> Optional[MultiPoly]:
    """Quotient q with f = q*g exactly, or None when g does not divide f.

    Single-divisor graded-lex reduction; for one divisor the remainder is
    zero iff the division is exact, so the first non-divisible leading
    term settles the question.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f, g = _aligned(f, g)
    if f.is_zero():
        return f
    g_exp, g_c = g.leading()
    q_terms: Dict[Tuple[int, ...], Scalar] = {}
    rem = f
    while rem.terms:
        r_exp, r_c = rem.leading()
        diff = tuple(a - b for a, b in zip(r_exp, g_exp))
        if any(d < 0 for d in diff):
            return None
        c = r_c / g_c
        q_terms[diff] = c
        rem = rem - MultiPoly(f.vars, f.field, {diff: c}) * g
    return MultiPoly(f.vars, f.field, {e: to_scalar(c, f.field) for e, c in q_terms.items()})
