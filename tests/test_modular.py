"""The modular layer: each F_p[t] operation, the primes p = 1 (mod 4)
and the two images of Q(i) against naive oracles written here, and
Brown's gcd against the subresultant PRS oracle."""

import random
import time
from itertools import count, islice, product

import pytest
from hypothesis import assume, given, settings, strategies as st

import conchoidal.modular as modular
from conchoidal import MultiPoly, parse_poly, poly_exact_div, poly_gcd
from conchoidal.errors import InternalError
from conchoidal.fields import FIELD_Q, FIELD_QI, GaussianRational
from conchoidal.modular import (
    _POINT_STEP, _gcd_prime, _umul, _uquo_rem, embed, gaussian_primes, horner_mod,
    int_poly_mod, lift_root, next_prime, poly_gcd_mod_p, recombine, squarefree_mod_p,
    symmetric_mod,
)

from gcd_oracle import prs_gcd
from helpers import random_form, random_poly

NAMES = ("x", "y", "z", "w")


def _is_prime(n):
    return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def test_next_prime_matches_trial_division():
    for n in list(range(-3, 2001)) + [999_998, 1_000_000, 1_000_002, 1_000_030]:
        p = next_prime(n)
        assert p > n and _is_prime(p), n
        assert not any(_is_prime(m) for m in range(n + 1, p)), n
    assert next_prime(2) == 3 and next_prime(8) == 11 and next_prime(1_000_002) == 1_000_003


def test_gcd_primes_have_a_square_root_of_minus_one():
    for k in range(4):
        p, s = _gcd_prime(k)
        assert _is_prime(p) and p % 4 == 1 and s * s % p == p - 1
    # the gcd primes and their s are fixed: every image depends on them
    assert [_gcd_prime(k) for k in range(4)] == [
        (1000000009, 569522298), (1000000021, 515436210),
        (1000000033, 675656022), (1000000093, 545422843)]


def test_gcd_mod_p_is_monic():
    # (t+1)(t+2) and 3(t+1)(t+5) modulo 13
    assert poly_gcd_mod_p([2, 3, 1], [2, 5, 3], 13) == [1, 1]
    assert poly_gcd_mod_p([], [4, 2], 13) == [2, 1]
    assert poly_gcd_mod_p([], [], 13) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(-3, 3000), st.integers(1, 6))
def test_gaussian_primes_match_trial_division(n, k):
    got = list(islice(gaussian_primes(n), k))
    want = list(islice((q for q in count(max(n + 1, 2)) if q % 4 == 1 and _is_prime(q)), k))
    assert [p for p, _ in got] == want
    for p, s in got:
        c = next(c for c in range(2, p) if all(x * x % p != c for x in range(p)))
        assert s == pow(c, (p - 1) // 4, p) and s * s % p == p - 1
    assert [p for p, _ in islice(gaussian_primes(1), 4)] == [5, 13, 17, 29]


PRIMES = (2, 3, 5, 7, 13, 10 ** 9 + 7)
coeff_lists = st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=8)


def _trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _product(a, b):
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)]


def _add(a, b):
    n = max(len(a), len(b))
    return [x + y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]


def _long_division(a, b, p):
    """Quotient and remainder modulo p, one leading term at a time."""
    q, inv = [0] * max(len(a) - len(b) + 1, 0), pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c, shift = a[-1] * inv % p, len(a) - len(b)
        q[shift] = c
        a = _trim((x - c * ([0] * shift + b)[i]) % p if i >= shift else x
                  for i, x in enumerate(a))
    return q, a


def _monic_factors(a, p):
    """The monic irreducible factors of a nonzero a over F_p, with their
    multiplicities, by trial division by every monic polynomial of degree
    1, 2, ... in turn: a divisor found at the smallest degree is irreducible."""
    a = [x * pow(a[-1], p - 2, p) % p for x in a]
    out, d = {}, 1
    while len(a) - 1 >= 2 * d:
        for low in product(range(p), repeat=d):
            g = list(low) + [1]
            q, r = _long_division(a, g, p)
            while not r:
                out[tuple(g)] = out.get(tuple(g), 0) + 1
                a = q
                q, r = _long_division(a, g, p)
        d += 1
    if len(a) > 1:
        out[tuple(a)] = out.get(tuple(a), 0) + 1
    return out


@settings(max_examples=100, deadline=None)
@given(coeff_lists, coeff_lists, st.sampled_from(PRIMES))
def test_product_and_division_mod_p_match_schoolbook(a, b, p):
    a, b = int_poly_mod(a, p), int_poly_mod(b, p)
    assert int_poly_mod(_umul(a, b, p), p) == int_poly_mod(_product(a, b), p)
    if b:
        q, r = _uquo_rem(a, b, p)
        assert (q, r) == _long_division(a, b, p)
        assert len(r) < len(b)
        assert int_poly_mod(_add(_product(q, b), r), p) == a


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((5, 7)), *[st.lists(st.integers(0, 6), max_size=4)] * 3)
def test_gcd_and_squarefree_mod_p_match_a_factor_search(p, a, b, c):
    # a planted common factor c, degrees up to 6
    A, B = int_poly_mod(_product(a, c), p), int_poly_mod(_product(b, c), p)
    if not A or not B:
        nonzero = A or B
        want = [x * pow(nonzero[-1], p - 2, p) % p for x in nonzero] if nonzero else []
    else:
        fa, fb = _monic_factors(A, p), _monic_factors(B, p)
        want = [1]
        for g in set(fa) & set(fb):
            for _ in range(min(fa[g], fb[g])):
                want = int_poly_mod(_product(want, list(g)), p)
    assert poly_gcd_mod_p(A, B, p) == want
    for f in (A, B):
        if f:
            assert squarefree_mod_p(f, p) == all(k == 1 for k in _monic_factors(f, p).values())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=8), st.integers(-10 ** 30, 10 ** 30),
       st.integers(1, 10 ** 40))
def test_horner_mod_matches_the_power_sum(coeffs, x, m):
    assert horner_mod(coeffs, x, m) == sum(c * x ** k for k, c in enumerate(coeffs)) % m


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 5, 13, 10 ** 9 + 7)), st.integers(0, 10 ** 12),
       st.lists(st.integers(-50, 50), min_size=1, max_size=5),
       st.lists(st.integers(-50, 50), max_size=7), st.integers(0, 4))
def test_newton_lift_is_a_root_above_the_root_mod_p(p, r0, g, h, j):
    # f = (t - r0) g + p h has the root r0 mod p, simple when g(r0) is a unit
    r0 %= p
    assume(horner_mod(g, r0, p))
    f = _add(_product([-r0, 1], g), [p * y for y in h])
    m = p ** (2 ** j)
    r = lift_root(f, r0, p, m)
    assert 0 <= r < m and horner_mod(f, r, m) == 0 and r % p == r0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 4), st.integers(0, 3), st.data())
def test_embed_and_recombine_round_trip(n, j, data):
    p, s = next(gaussian_primes(n))
    m = p ** (2 ** j)
    s = lift_root([1, 0, 1], s, p, m)
    assert s * s % m == m - 1
    part = st.integers(-(m // 2), m // 2)
    z, w = (data.draw(st.tuples(part, part)) for _ in range(2))
    u, v = embed([z], s, m)[0], embed([z], -s, m)[0]
    assert tuple(symmetric_mod(x, m) for x in recombine(u, v, s, m)) == z
    # i -> s is a ring map: the image of z w is the product of the images
    zw = (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])
    assert embed([zw], s, m) == [u * embed([w], s, m)[0] % m]


def _draw(rng, vars, degree, homogeneous, field):
    f = random_form(rng, degree, vars) if homogeneous else random_poly(rng, vars, degree)
    if field == FIELD_QI:
        twist = GaussianRational(rng.randint(-2, 2), rng.choice((-2, -1, 1, 2)))
        f = f * twist
    return f


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.sampled_from((FIELD_Q, FIELD_QI)),
       st.booleans(), st.sampled_from(("planted", "power", "content", "coprime")))
def test_modular_gcd_matches_the_prs_oracle(seed, nvars, field, homogeneous, shape):
    rng = random.Random(seed)
    vars = NAMES[:nvars]
    f = _draw(rng, vars, rng.randint(1, 2), homogeneous, field)
    g = _draw(rng, vars, rng.randint(1, 2), homogeneous, field)
    if shape == "planted":
        h = _draw(rng, vars, rng.randint(1, 2), homogeneous, field)
    elif shape == "power":
        # a gcd that is a pure power of the variable set to 1 when homogeneous
        h = MultiPoly.variable(vars[-1], vars, field) ** rng.randint(1, 3)
    elif shape == "content" and nvars > 1:
        # free of the first variable: content in the main variable
        rest = vars[1:]
        part = _draw(rng, rest, rng.randint(1, 2), homogeneous, field)
        h = part.with_vars(vars)
    else:
        h = MultiPoly.constant(1, vars, field)
    F, G = f * h, g * h
    got = poly_gcd(F, G)
    assert got == prs_gcd(F, G)
    assert poly_exact_div(got, h) is not None


def test_gcd_survives_unlucky_primes_and_points():
    p0, p1 = _gcd_prime(0)[0], _gcd_prime(1)[0]
    h = parse_poly("x^2+3*y-5")
    # the leading coefficients vanish modulo p0, and the cofactors agree
    # modulo p1, so the first two primes give no image or a too large one
    f = h * parse_poly(f"{p0}*x*y+{p1}*y+x+1")
    g = h * parse_poly(f"{p0}*x*y+x+1")
    assert poly_gcd(f, g) == h == prs_gcd(f, g)
    # at the first evaluation point y = a the cofactors share the factor x
    a = _POINT_STEP
    f = h * parse_poly(f"x+y-{a}")
    g = h * parse_poly(f"x+2*y-{2 * a}")
    assert poly_gcd(f, g) == h == prs_gcd(f, g)
    # the first point is a root of the gcd's leading coefficient in x,
    # where its image loses degree; the point must be skipped
    h2 = parse_poly(f"(y-{a})*x^2+x+3*y-5")
    f, g = h2 * parse_poly("x+1"), h2 * parse_poly("x+2")
    assert poly_gcd(f, g) == h2.monic() == prs_gcd(f, g)
    # a content whose leading coefficient vanishes modulo p0
    c = parse_poly(f"{p0}*y+1")
    f = h * parse_poly(f"x+y-{a}")
    assert poly_gcd(c * f, c * h) == (c * h).monic()
    # over Q(i), the same cofactors
    hi = parse_poly("x^2+i*y-5", FIELD_QI)
    f = hi * parse_poly(f"{p0}*x*y+{p1}*i*y+x+1", FIELD_QI)
    g = hi * parse_poly(f"{p0}*x*y+x+1", FIELD_QI)
    assert poly_gcd(f, g) == hi == prs_gcd(f, g)


def test_gcd_gives_up_after_too_many_bad_primes(monkeypatch):
    monkeypatch.setattr(modular, "_image", lambda *args: None)
    start = time.perf_counter()
    with pytest.raises(InternalError):
        poly_gcd(parse_poly("x^2+y^2-1"), parse_poly("x+2*y"))
    assert time.perf_counter() - start < 1


def test_gcd_gives_up_after_too_many_bad_points(monkeypatch):
    # every point a root of gamma: no image in the last variable
    monkeypatch.setattr(modular, "horner_mod", lambda *args: 0)
    with pytest.raises(InternalError):
        poly_gcd(parse_poly("(x+y+1)*(x-y)"), parse_poly("(x+y+1)*(x+2*y+3)"))
