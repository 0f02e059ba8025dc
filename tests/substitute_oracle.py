"""The per-term substitution that ``MultiPoly.substitute`` replaced, kept
as the tests' independent oracle: each term is built as a full polynomial
product and added to the running result with ``+``."""

from typing import Dict, List

from conchoidal.fields import FIELD_Q, FIELD_QI, GaussianRational, join_fields
from conchoidal.multipoly import MultiPoly, merge_vars


def substitute_per_term(f: MultiPoly, mapping) -> MultiPoly:
    field = f.field
    images: Dict[str, MultiPoly] = {}
    vars_out = ()
    for v in f.vars:
        img = mapping.get(v)
        if img is None:
            img = MultiPoly.variable(v, (v,), f.field)
        elif not isinstance(img, MultiPoly):
            img = MultiPoly.constant(img, (), FIELD_QI if isinstance(img, GaussianRational) else FIELD_Q)
        images[v] = img
        field = join_fields(field, img.field)
        vars_out = merge_vars(vars_out, img.vars)
    result = MultiPoly.zero(vars_out, field)
    one = MultiPoly.constant(1, vars_out, field)
    powers: Dict[str, List[MultiPoly]] = {v: [one] for v in f.vars}
    for exp, c in f.terms.items():
        term = one * c
        for v, e in zip(f.vars, exp):
            if not e:
                continue
            cache = powers[v]
            while len(cache) <= e:
                cache.append(cache[-1] * images[v].with_vars(vars_out).promote(field)
                             if len(cache) == 1 else cache[-1] * cache[1])
            term = term * cache[e]
        result = result + term
    return result
