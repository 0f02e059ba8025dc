"""The modular layer: the prime search, and Brown's gcd against the
subresultant PRS oracle."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import conchoidal.modular as modular
from conchoidal import MultiPoly, parse_poly, poly_exact_div, poly_gcd
from conchoidal.errors import InternalError
from conchoidal.fields import FIELD_Q, FIELD_QI, GaussianRational
from conchoidal.modular import _POINT_STEP, _gcd_prime, next_prime, poly_gcd_mod_p

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


def test_gcd_mod_p_is_monic():
    # (t+1)(t+2) and 3(t+1)(t+5) modulo 13
    assert poly_gcd_mod_p([2, 3, 1], [2, 5, 3], 13) == [1, 1]
    assert poly_gcd_mod_p([], [4, 2], 13) == [2, 1]
    assert poly_gcd_mod_p([], [], 13) == []


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
