"""The dict-keyed lower-set interpolation that the table interpolation of
``resultant`` replaced, kept as the tests' differential oracle: the values
are a {point tuple: value} dict over the lower set ``_simplex(D, caps)``,
and ``_interp_simplex`` returns {exponent: c}.  It shares with the library
only the one-variable steps, which the round-trip test checks on their
own against monomial coefficients."""

from __future__ import annotations

from typing import Sequence

from conchoidal.resultant import _falling_coefficients, _falling_to_monomial


def _simplex(D: int, caps: Sequence[int]):
    """Every point p of N^k, k = len(caps), with p_1 + ... + p_k <= D and
    each p_i <= caps[i], in lexicographic order: a lower set, and the whole
    simplex of degree D when no cap is below D."""
    if not caps:
        yield ()
        return
    for t in range(min(D, caps[0]) + 1):
        for rest in _simplex(D - t, caps[1:]):
            yield (t,) + rest


def _interp_simplex(values: dict, D: int, caps: Sequence[int]) -> dict:
    """{exponent: c} of the integer polynomial P in k = len(caps) variables
    whose monomials all lie in the lower set _simplex(D, caps), through
    values[p] = P(p) for every p of that set.

    Differences along the first variable at each point q of the rest give
    the Newton coefficients c_i(q), i <= min(D - |q|, caps[0]); c_i depends
    only on the values at t = 0..i.  Each c_i has its monomials in the
    lower set of degree D - i under the remaining caps, and is known on
    exactly that set of points, so it is interpolated the same way; a
    lower set of integer nodes is unisolvent for its own monomials.  The
    Newton form in the first variable is then converted to monomials."""
    if not caps:
        return {(): values[()]} if values[()] else {}
    cap, rest = caps[0], caps[1:]
    newton = {q: _falling_coefficients([values[(t,) + q]
                                        for t in range(min(D - sum(q), cap) + 1)])
              for q in _simplex(D, rest)}
    in_rest = {}           # monomial m of the rest -> Newton coefficients in the first variable
    for i in range(min(D, cap) + 1):
        order_i = {q: c[i] for q, c in newton.items() if len(c) > i}
        for m, c in _interp_simplex(order_i, D - i, rest).items():
            in_rest.setdefault(m, [0] * (min(D - sum(m), cap) + 1))[i] = c
    terms = {}
    for m, coeffs in in_rest.items():
        for a, c in enumerate(_falling_to_monomial(coeffs)):
            if c:
                terms[(a,) + m] = c
    return terms
