"""Modular images: the mod-p helpers and Brown's dense modular gcd.

The root finder (``roots``) and the multivariate gcd (``gcd``) share the
helpers here: reduction of integer coefficient lists modulo p, Horner
evaluation, the monic univariate Euclidean gcd mod p (the only Euclid in
the package), the prime search and the square root of -1 modulo a prime
p = 1 (mod 4).

``modular_gcd`` is Brown's dense modular algorithm (Brown 1971, "On
Euclid's algorithm and the computation of polynomial greatest common
divisors", JACM 18).  The inputs are scaled to Z or Z[i] once; when both
are homogeneous, the last used variable z is set to 1 and the gcd gets
back the smaller of the two z-valuations.  Images are taken at a fixed
sequence of primes p = 1 (mod 4).  Over Q(i) each prime gives two images,
one for each embedding i -> +s and i -> -s with s^2 = -1 (mod p), whose
half-sum and half-difference over s are the real and imaginary parts.
Modulo p the gcd is computed recursively: the last variable is evaluated
at a fixed sequence of points, each image is scaled to gamma(point) with
gamma the gcd of the two leading coefficients, and the images are
interpolated densely (Newton) up to the degree bound.  Primes are combined
by CRT and rational reconstruction of the lex-monic gcd.  Unlucky primes
and points show up as images of larger lex-leading monomial and are
dropped.  See ``gcd`` for the two certificates that make the answer exact.
``line_multiplicity`` bounds the multiplicity of one polynomial in another
by their images on one line: ``multipoly.poly_exact_div`` reads a bound
of 0 as a certified miss, and ``gcd.multiplicity_of_factor`` divides at
most that many times.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd as int_gcd, isqrt, lcm
from typing import Dict, List, Optional, Tuple

from .errors import InternalError
from .fields import FIELD_Q, GaussianRational, _parts, join_fields
from .multipoly import MultiPoly, merge_vars, poly_exact_div

Exp = Tuple[int, ...]


# -- shared helpers ---------------------------------------------------------------


def int_poly_mod(coeffs: List[int], p: int) -> List[int]:
    out = [c % p for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def poly_gcd_mod_p(a: List[int], b: List[int], p: int) -> List[int]:
    """The monic gcd of two dense coefficient lists modulo p; [] when both
    are zero."""
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        db = len(b) - 1
        while len(a) - 1 >= db and a:
            c = (a[-1] * inv) % p
            k = len(a) - 1 - db
            for i in range(db + 1):
                a[k + i] = (a[k + i] - c * b[i]) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def horner_mod(coeffs: List[int], x: int, m: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = (total * x + c) % m
    return total


def rat_reconstruct(a: int, m: int, num_bound: int, den_bound: int
                    ) -> Optional[Fraction]:
    """p/q with p = a*q mod m, |p| <= num_bound, 0 < q <= den_bound."""
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > num_bound:
        qt = r0 // r1
        r0, r1 = r1, r0 - qt * r1
        s0, s1 = s1, s0 - qt * s1
    if r1 == 0 or abs(s1) > den_bound:
        return None
    if s1 < 0:
        r1, s1 = -r1, -s1
    if int_gcd(abs(r1), s1) != 1:
        return None
    return Fraction(r1, s1)


def next_prime(n: int) -> int:
    """The smallest prime greater than n."""
    if n < 2:
        return 2
    candidate = n + 1 if n % 2 == 0 else n + 2
    while not all(candidate % q for q in range(3, isqrt(candidate) + 1, 2)):
        candidate += 2
    return candidate


def sqrt_minus_one(p: int) -> int:
    """A square root of -1 modulo a prime p = 1 (mod 4): c^((p-1)/4) for the
    first quadratic nonresidue c."""
    c = next(c for c in count(2) if pow(c, (p - 1) // 2, p) == p - 1)
    return pow(c, (p - 1) // 4, p)


# -- fixed primes and points --------------------------------------------------------

_PRIME_START = 10 ** 9
_POINT_STEP = 123456791   # a prime below every gcd prime, so k -> k*step is injective mod p
_PRIMES: List[Tuple[int, int]] = []   # (p, s) with p = 1 (mod 4) and s^2 = -1 (mod p)
_MAX_SKIPPED = 32   # bad or unlucky primes, or points in one prime: finitely many


def _skip(skipped: int, what: str) -> int:
    if skipped >= _MAX_SKIPPED:
        raise InternalError(f"modular gcd skipped more than {_MAX_SKIPPED} {what}")
    return skipped + 1


def _gcd_prime(k: int) -> Tuple[int, int]:
    """The k-th gcd prime (from 0) and its square root of -1; computed once."""
    while len(_PRIMES) <= k:
        p = _PRIMES[-1][0] if _PRIMES else _PRIME_START
        while True:
            p = next_prime(p)
            if p % 4 == 1:
                break
        _PRIMES.append((p, sqrt_minus_one(p)))
    return _PRIMES[k]


# -- dense univariate arithmetic mod p -------------------------------------------------


def _umul(a: List[int], b: List[int], p: int) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _uquo(a: List[int], b: List[int], p: int) -> List[int]:
    """Quotient of a by b (the remainder is known to be zero)."""
    if len(b) == 1 and b[0] == 1:
        return a
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = a[k + db] * inv % p
        q[k] = c
        if c:
            for i in range(db):
                a[k + i] = (a[k + i] - c * b[i]) % p
    return q


def _ucontent(coeffs: Dict[Exp, List[int]], p: int) -> List[int]:
    acc: List[int] = []
    for v in coeffs.values():
        acc = poly_gcd_mod_p(acc, v, p)
        if len(acc) == 1:
            break
    return acc


# -- Brown's dense gcd modulo p ----------------------------------------------------


def _split_last(a: Dict[Exp, int]) -> Dict[Exp, List[int]]:
    """View a polynomial in x_1..x_n as one in x_1..x_{n-1} over Z_p[x_n]."""
    out: Dict[Exp, List[int]] = {}
    for e, c in a.items():
        row = out.setdefault(e[:-1], [])
        if len(row) <= e[-1]:
            row.extend([0] * (e[-1] + 1 - len(row)))
        row[e[-1]] = c
    return out


def _eval_last(a: Dict[Exp, List[int]], alpha: int, p: int) -> Dict[Exp, int]:
    out = {}
    for k, v in a.items():
        c = horner_mod(v, alpha, p)
        if c:
            out[k] = c
    return out


def _join_last(a: Dict[Exp, List[int]], c: List[int], p: int) -> Dict[Exp, int]:
    """Inverse of ``_split_last``, times the univariate c in x_n, lex-monic."""
    out = {}
    for k, v in a.items():
        for j, x in enumerate(_umul(v, c, p)):
            if x:
                out[k + (j,)] = x
    inv = pow(out[max(out)], p - 2, p)
    return {e: x * inv % p for e, x in out.items()}


def _pgcd(a: Dict[Exp, int], b: Dict[Exp, int], n: int, p: int) -> Dict[Exp, int]:
    """Lex-monic gcd of nonzero a, b in Z_p[x_1..x_n], or a multiple of it
    with a strictly larger lex-leading monomial when every point used was
    unlucky.  With n = 1 the gcd is that of the contents."""
    A, B = _split_last(a), _split_last(b)
    ca, cb = _ucontent(A, p), _ucontent(B, p)
    c = poly_gcd_mod_p(ca, cb, p)
    zero = (0,) * (n - 1)
    cont = {zero: [1]}
    lead_a, lead_b = max(A), max(B)
    if lead_a == zero or lead_b == zero:
        return _join_last(cont, c, p)
    A = {k: _uquo(v, ca, p) for k, v in A.items()}
    B = {k: _uquo(v, cb, p) for k, v in B.items()}
    gamma = poly_gcd_mod_p(A[lead_a], B[lead_b], p)
    # gamma * G / lc(G) has degree at most this in x_n
    bound = len(gamma) - 2 + min(max(map(len, A.values())), max(map(len, B.values())))
    H: Dict[Exp, List[int]] = {}
    q, lead, points, skipped = [1], None, 0, 0
    for k in range(1, p):
        alpha = _POINT_STEP * k % p
        g_alpha = horner_mod(gamma, alpha, p)
        if not g_alpha:
            skipped = _skip(skipped, "points")
            continue
        image = _pgcd(_eval_last(A, alpha, p), _eval_last(B, alpha, p), n - 1, p)
        m = max(image)
        if m == zero:
            # a degree-0 image at a point that keeps gamma: gcd(pp a, pp b) = 1
            return _join_last(cont, c, p)
        if lead is None or m < lead:
            H, q, lead, points = {}, [1], m, 0
        elif m > lead:
            skipped = _skip(skipped, "points")
            continue
        inv = pow(horner_mod(q, alpha, p), p - 2, p)
        for key in set(H) | set(image):
            h = H.get(key, [])
            d = (g_alpha * image.get(key, 0) - horner_mod(h, alpha, p)) * inv % p
            if d:
                h = h + [0] * (len(q) - len(h))
                H[key] = [(x + d * y) % p for x, y in zip(h, q)]
        q = _umul(q, [p - alpha, 1], p)
        points += 1
        if points > bound:
            break
    ch = _ucontent(H, p)
    return _join_last({key: _uquo(v, ch, p) for key, v in H.items()}, c, p)


# -- the gcd over Q and Q(i) --------------------------------------------------------


def _scaled(f: MultiPoly, keep: List[int]) -> Dict[Exp, Tuple[int, int]]:
    """The coefficients of f times the lcm of their denominators, as
    (real, imaginary) integer pairs, on the exponents projected to keep."""
    parts = [_parts(c) for c in f.terms.values()]
    den = lcm(*(d for _, _, d in parts))
    return {tuple(e[i] for i in keep): (a * (den // d), b * (den // d))
            for e, (a, b, d) in zip(f.terms, parts)}


def _embed(a: Dict[Exp, Tuple[int, int]], p: int, s: int) -> Dict[Exp, int]:
    out = {}
    for e, (re, im) in a.items():
        c = (re + im * s) % p
        if c:
            out[e] = c
    return out


def _image(a, b, n: int, p: int, s: int, gaussian: bool
           ) -> Optional[Dict[Exp, Tuple[int, int]]]:
    """The lex-monic gcd modulo p as residues of (real, imaginary) parts,
    or None when p kills a leading coefficient or the two embeddings of
    Q(i) disagree on the leading monomial."""
    images = []
    for t in ((s, p - s) if gaussian else (0,)):
        fa, fb = _embed(a, p, t), _embed(b, p, t)
        if not fa or not fb or max(fa) != max(a) or max(fb) != max(b):
            return None
        images.append(_pgcd(fa, fb, n, p))
    if not gaussian:
        return {e: (c, 0) for e, c in images[0].items()}
    u, w = images
    if max(u) != max(w):
        return None
    half, half_s = pow(2, p - 2, p), pow(2 * s, p - 2, p)
    return {e: ((u.get(e, 0) + w.get(e, 0)) * half % p,
                (u.get(e, 0) - w.get(e, 0)) * half_s % p)
            for e in set(u) | set(w)}


def _reconstruct(residues: Dict[Exp, Tuple[int, int]], m: int
                 ) -> Optional[Dict[Exp, Tuple[Fraction, Fraction]]]:
    bound = isqrt(m // 2)
    out = {}
    for e, pair in residues.items():
        parts = []
        for r in pair:
            x = Fraction(0) if r % m == 0 else rat_reconstruct(r, m, bound, bound)
            if x is None:
                return None
            parts.append(x)
        if any(parts):
            out[e] = tuple(parts)
    return out


def modular_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """A gcd of two nonzero polynomials over Q or Q(i), up to a scalar,
    over their joint variables and field."""
    vars = f.vars if f.vars == g.vars else merge_vars(f.vars, g.vars)
    field = join_fields(f.field, g.field)
    f, g = f.with_vars(vars).promote(field), g.with_vars(vars).promote(field)
    if f.is_constant() or g.is_constant():
        return MultiPoly.constant(1, vars, field)
    used = [i for i, v in enumerate(vars) if f.uses_var(v) or g.uses_var(v)]
    z, z_power = None, 0
    if f.is_homogeneous() and g.is_homogeneous():
        z = used.pop()
        z_power = min(min(e[z] for e in f.terms), min(e[z] for e in g.terms))

    def lift(h: Dict[Exp, Tuple[Fraction, Fraction]]) -> MultiPoly:
        """Back to the input variables, with z re-homogenized."""
        degree = max(map(sum, h))
        terms = {}
        for e, (re, im) in h.items():
            exp = [0] * len(vars)
            for i, x in zip(used, e):
                exp[i] = x
            if z is not None:
                exp[z] = degree - sum(e) + z_power
            terms[tuple(exp)] = re if field == FIELD_Q else GaussianRational(re, im)
        return MultiPoly(vars, field, terms)

    one = lift({(0,) * len(used): (Fraction(1), Fraction(0))})
    a, b = _scaled(f, used), _scaled(g, used)
    if not any(max(a)) or not any(max(b)):
        return one
    gaussian = field != FIELD_Q
    residues, modulus, lead, last, skipped = {}, 1, None, None, 0
    for k in count():
        p, s = _gcd_prime(k)
        image = _image(a, b, len(used), p, s, gaussian)
        m = None if image is None else max(image)
        if m is None or (lead is not None and m > lead):
            skipped = _skip(skipped, "primes")
            continue
        if not any(m):
            # a degree-0 image certifies a constant gcd (see gcd.py)
            return one
        if lead is None or m < lead:
            residues, modulus, lead = image, p, m
        else:
            inv = pow(modulus, p - 2, p)
            combined = {}
            for e in set(residues) | set(image):
                old, new = residues.get(e, (0, 0)), image.get(e, (0, 0))
                combined[e] = tuple(x + modulus * ((y - x) * inv % p)
                                    for x, y in zip(old, new))
            residues, modulus = combined, modulus * p
        candidate = _reconstruct(residues, modulus)
        if candidate is not None and candidate == last:
            h = lift(candidate)
            if poly_exact_div(f, h) is not None and poly_exact_div(g, h) is not None:
                return h
            candidate = None
        last = candidate


# -- the line image of an exact division ----------------------------------------------


def line_multiplicity(f: MultiPoly, g: MultiPoly) -> Optional[int]:
    """The multiplicity of g_L in f_L, the images of f and g (same
    variables and field) on one line modulo the first gcd prime p; None
    when p divides a denominator, g_L is constant or f_L is zero.

    The line keeps the variable in which g has the largest degree and sets
    each other variable number k to (k+1)*step; i -> s over Q(i).  The
    result bounds the multiplicity of g in f (proof in
    ``gcd.multiplicity_of_factor``), so 0 certifies that g does not divide f.
    """
    p, s = _gcd_prime(0)
    degrees = [max(e[k] for e in g.terms) for k in range(len(g.vars))]
    if not any(degrees):
        return None
    keep = degrees.index(max(degrees))
    b = _line_image(g, keep, p, s)
    a = _line_image(f, keep, p, s) if b is not None and len(b) > 1 else None
    if not a:
        return None
    k = 0
    # g_L divides a iff their gcd has the degree of g_L
    while len(poly_gcd_mod_p(a, b, p)) == len(b):
        a = _uquo(a, b, p)
        k += 1
    return k


def _line_image(h: MultiPoly, keep: int, p: int, s: int) -> Optional[List[int]]:
    """h modulo p (i -> s) where each variable number k but the kept one is
    (k+1)*step, dense in the kept one; None if p divides a denominator."""
    powers = [[1 if k == keep else pow(_POINT_STEP * (k + 1), j, p)
               for j in range(max(e[k] for e in h.terms) + 1)] for k in range(len(h.vars))]
    out = [0] * len(powers[keep])
    inverses: Dict[int, int] = {}
    for e, c in h.terms.items():
        a, b, d = _parts(c)
        if d not in inverses:
            if d % p == 0:
                return None
            inverses[d] = pow(d, -1, p)
        r = (a + b * s) * inverses[d]
        for row, x in zip(powers, e):
            r = r * row[x] % p
        out[e[keep]] += r
    return int_poly_mod(out, p)
