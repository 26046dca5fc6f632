import cmath
import itertools
import json
import random
from fractions import Fraction

import pytest

from monopole_corners import ratmaps as R
from monopole_corners.ratmaps import GaussianRational as G
from monopole_corners.ratmaps import Phase, RationalMapPair as M


def rand_gaussian(rng, span=4):
    return G(
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
    )


# Pairwise coprime denominators far beyond a machine word.
_BIG_DENOMINATORS = (10**9 + 7, 998244353, 2**61 - 1, 10**12 + 39, 3**40)


def big_gaussian(rng):
    return G(
        Fraction(rng.randint(-10**6, 10**6), rng.choice(_BIG_DENOMINATORS)),
        Fraction(rng.randint(-10**6, 10**6), rng.choice(_BIG_DENOMINATORS)),
    )


# --- independent oracles -----------------------------------------------------


def poly_degree(coeffs):
    for i in range(len(coeffs) - 1, -1, -1):
        if not coeffs[i].is_zero():
            return i
    return -1


def poly_divmod(num, den):
    num = list(num)
    dn = poly_degree(den)
    assert dn >= 0
    out = [G(0)] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        q = num[i] / den[dn]
        out[i - dn] = q
        for j in range(dn + 1):
            num[i - dn + j] = num[i - dn + j] - q * den[j]
    return out, num[:dn] if dn > 0 else []


def poly_gcd_degree(a, b):
    """Degree of gcd(a, b) by the Euclidean algorithm (independent oracle)."""
    a, b = list(a), list(b)
    while poly_degree(b) >= 0:
        _, r = poly_divmod(a, b)
        a, b = b, r
        b = b[: poly_degree(b) + 1]
    return poly_degree(a)


def poly_from_roots(roots):
    coeffs = [G(1)]
    for r in roots:
        nxt = [G(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * r
        coeffs = nxt
    return coeffs


def poly_eval(coeffs, z):
    out = G(0)
    for c in reversed(coeffs):
        out = out * z + c
    return out


# --- Gaussian rational arithmetic --------------------------------------------


def test_gaussian_field_axioms_random():
    rng = random.Random(12)
    for _ in range(100):
        a, b, c = (rand_gaussian(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        if not c.is_zero():
            assert (a * c) / c == a
        assert a * a.conj() == G(a.abs2())


def test_gaussian_strings():
    assert str(G(Fraction(1, 2))) == "1/2"
    assert str(G(0, 1)) == "1i"
    assert str(G(1, -2)) == "1-2i"
    assert str(G(1)) == "1"


# --- resultant ----------------------------------------------------------------


def test_resultant_k1_evaluates_at_root():
    # psi = z + 3 has root -3; constant phi is returned as-is
    assert R.resultant(M([G(7)], [G(3)])) == G(7)
    rng = random.Random(0)
    for _ in range(20):
        a0, b0 = rand_gaussian(rng), rand_gaussian(rng)
        assert R.resultant(M([a0], [b0])) == a0
        a0, b0 = big_gaussian(rng), big_gaussian(rng)
        assert R.resultant(M([a0], [b0])) == a0


def test_resultant_vanishes_on_common_factor():
    # psi = (z-1)(z-2), phi = z-1
    m = M([G(-1), G(1)], [G(2), G(-3)])
    assert R.resultant(m) == G(0)
    assert not R.is_based(m)


def test_resultant_homogeneity_random():
    rng = random.Random(3)
    for k in range(1, 6):
        for _ in range(25):
            phi = [rand_gaussian(rng) for _ in range(k)]
            psi = [rand_gaussian(rng) for _ in range(k)]
            lam = rand_gaussian(rng)
            if lam.is_zero():
                lam = G(3, 1)
            scaled = M([c * lam for c in phi], psi)
            assert R.resultant(scaled) == R.resultant(M(phi, psi)) * lam ** k


def test_resultant_matches_root_product():
    rng = random.Random(6)
    for _ in range(60):
        k = rng.randint(1, 4)
        roots = [rand_gaussian(rng, span=3) for _ in range(k)]
        psi = poly_from_roots(roots)
        phi = [rand_gaussian(rng) for _ in range(k)]
        prod = G(1)
        for r0 in roots:
            prod = prod * poly_eval(phi, r0)
        assert R.resultant(M(phi, psi[:-1])) == prod


def test_resultant_zero_iff_gcd_nontrivial_exhaustive():
    values = [G(-1), G(0), G(1)]
    for k in (1, 2, 3):
        for phi in itertools.product(values, repeat=k):
            for psi in itertools.product(values, repeat=k):
                m = M(phi, psi)
                psi_full = list(psi) + [G(1)]
                if all(c.is_zero() for c in phi):
                    gcd_nontrivial = True  # gcd(psi, 0) = psi, degree k >= 1
                else:
                    gcd_nontrivial = poly_gcd_degree(psi_full, list(phi)) > 0
                assert (R.resultant(m) == G(0)) == gcd_nontrivial, (phi, psi)


# --- the integer elimination kernel -------------------------------------------

def root_product(phi, roots):
    """The planted-root oracle: the product of phi over the roots."""
    out = G(1)
    for r in roots:
        out = out * poly_eval(phi, r)
    return out


def leibniz_det(re, im):
    """Determinant of re + i*im by the permutation expansion."""
    n = len(re)
    total = G(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = G(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term = term * G(re[row][col], im[row][col])
        total = total + term
    return total


def test_resultant_with_large_coprime_denominators_matches_root_product():
    rng = random.Random(31)
    for k in range(1, 6):
        for _ in range(6):
            roots = [big_gaussian(rng) for _ in range(k)]
            phi = [big_gaussian(rng) for _ in range(k)]
            assert R.resultant(M(phi, poly_from_roots(roots)[:-1])) == root_product(phi, roots)


def test_resultant_after_a_zero_pivot():
    # psi = z^2 + z + b0, phi = z + 1: after the first elimination step the
    # pivot a0 - a1*b1 is zero, so the next row must be swapped in.
    # Res = (r1 + 1)(r2 + 1) = psi(-1) = b0.
    for b0 in (G(3), G(Fraction(-7, 10**9 + 7), Fraction(2, 3))):
        assert R.resultant(M([G(1), G(1)], [b0, G(1)])) == b0


def test_resultant_vanishes_on_a_shared_root_with_large_denominators():
    rng = random.Random(33)
    for k in range(2, 6):
        roots = [big_gaussian(rng) for _ in range(k)]
        quotient = [big_gaussian(rng) for _ in range(k - 1)]
        phi = [G(0)] * k                         # phi = (z - roots[0]) * quotient
        for i, c in enumerate(quotient):
            phi[i] = phi[i] - c * roots[0]
            phi[i + 1] = phi[i + 1] + c
        m = M(phi, poly_from_roots(roots)[:-1])
        assert R.resultant(m) == G(0) and not R.is_based(m)


def test_resultant_of_zero_phi_vanishes():
    rng = random.Random(34)
    for k in range(1, 7):
        psi = [big_gaussian(rng) for _ in range(k)]
        for phi in ([], [G(0)] * k):
            m = M(phi, psi)
            assert R.resultant(m) == G(0) and not R.is_based(m)


def test_det_bareiss_matches_leibniz_on_sparse_gaussian_integer_matrices():
    rng = random.Random(35)
    swaps = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        re = [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        im = [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        want = leibniz_det(re, im)
        swaps += not (re[0][0] or im[0][0])
        assert G(*R._det_bareiss(re, im)) == want
    assert swaps > 50


def test_map_construction_validation():
    with pytest.raises(ValueError):
        M([G(1)], [])
    with pytest.raises(ValueError):
        M([G(1), G(2), G(3)], [G(0), G(0)])
    # short phi is padded
    assert M([G(1)], [G(0), G(0)]).phi == (G(1), G(0))


# --- predicates ----------------------------------------------------------------


def test_predicates_examples():
    m1 = M([G(1)], [G(0)])  # phi=1, psi=z
    assert R.is_based(m1) and R.is_centred(m1) and R.is_strongly_centred(m1)
    m2 = M([G(1)], [G(0), G(0)])  # phi=1, psi=z^2
    assert R.resultant(m2) == G(1)
    assert R.is_strongly_centred(m2)
    # common factor: not based
    m3 = M([G(-1), G(1)], [G(2), G(-3)])
    assert not R.is_based(m3) and not R.is_centred(m3)
    # |R| = 1 but R != 1: centred without strong centring
    m4 = M([G(0, 1)], [G(0), G(0)])  # R = (i)^2 = -1
    assert R.resultant(m4) == G(-1)
    assert R.is_centred(m4) and not R.is_strongly_centred(m4)
    # b_{k-1} != 0 breaks centring even with unit resultant
    m5 = M([G(1)], [G(0), G(1)])
    assert R.is_based(m5) and not R.is_centred(m5)


# --- torus and deck actions ------------------------------------------------


def test_torus_act_units():
    m = M([G(1), G(2)], [G(0), G(0)])
    for unit in (G(1), G(-1), G(0, 1), G(0, -1)):
        out = R.torus_act(unit, m)
        assert out.phi == (G(1) * unit, G(2) * unit)
        assert out.phi_phase == 0
    with pytest.raises(ValueError):
        R.torus_act(G(2), m)
    with pytest.raises(ValueError):
        R.torus_act(G(Fraction(3, 5), Fraction(3, 5)), m)


def test_torus_act_phase_is_exact_and_canonical():
    m = M([G(1)], [G(0), G(0)])
    out = R.torus_act(Phase(Fraction(1, 3)), m)
    # 1/3 of a turn = quarter turn times 1/12 of a turn
    assert out.phi == (G(0, 1), G(0))
    assert out.phi_phase == Fraction(1, 12)
    value = complex(out.phi[0]) * cmath.exp(2j * cmath.pi * float(out.phi_phase))
    assert abs(value - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_resultant_raises_outside_gaussian_range():
    m = M([G(1)], [G(0), G(0), G(0)])
    tagged = R.torus_act(Phase(Fraction(1, 5)), m)
    with pytest.raises(ValueError):
        R.resultant(tagged)


def test_unit_modulus_phases_accepted_by_centred_predicates():
    m = M([G(1)], [G(0), G(0), G(0)])  # strongly centred, k=3
    tagged = R.torus_act(Phase(Fraction(1, 5)), m)
    # R = e^{2 pi i 3/5}, not 1, but |R| = 1
    assert R.is_centred(tagged)
    assert not R.is_strongly_centred(tagged)


def test_deck_transform_identity_and_k2():
    m = M([G(1)], [G(0), G(0)])
    assert R.deck_transform(m, 0) == m
    img = R.deck_transform(m, 1)
    assert img.phi == (G(-1), G(0))
    assert R.is_strongly_centred(img)


def test_deck_orbit_strongly_centred_all_k():
    for k in range(1, 6):
        m = M([G(1)], [G(0)] * k)  # phi = 1, psi = z^k, R = 1
        assert R.is_strongly_centred(m)
        orbit = R.deck_orbit(m)
        assert all(R.is_strongly_centred(x) for x in orbit)
        assert all(R.resultant(x) == G(1) for x in orbit)
        assert k % len(orbit) == 0


def test_deck_action_has_order_dividing_k():
    rng = random.Random(21)
    for k in (2, 3, 4, 5):
        phi = [rand_gaussian(rng) for _ in range(k)]
        psi = [rand_gaussian(rng) for _ in range(k)]
        m = M(phi, psi)
        out = m
        for _ in range(k):
            out = R.deck_transform(out, 1)
        assert out == m


def test_deck_transform_float_snapping():
    m = M([G(1)], [G(0)] * 3)
    z = cmath.exp(2j * cmath.pi / 3)
    assert R.deck_transform(m, z) == R.deck_transform(m, 1)
    assert R.deck_transform(m, complex(1, 0)) == m
    with pytest.raises(ValueError):
        R.deck_transform(m, 0.5 + 0.5j)
    with pytest.raises(ValueError):
        R.deck_transform(m, 1.1 + 0j)
    with pytest.raises(ValueError):
        R.deck_transform(m, Phase(Fraction(1, 2)))


def test_json_round_trip():
    rng = random.Random(30)
    for _ in range(20):
        k = rng.randint(1, 4)
        m = M([rand_gaussian(rng) for _ in range(k)], [rand_gaussian(rng) for _ in range(k)])
        assert M.from_json_dict(json.loads(json.dumps(m.to_json_dict()))) == m
    tagged = R.torus_act(Phase(Fraction(1, 3)), M([G(1)], [G(0), G(0)]))
    assert M.from_json_dict(json.loads(json.dumps(tagged.to_json_dict()))) == tagged


def test_stored_resultant_is_invisible():
    m = M([G(1), G(2, 1)], [G(3), G(0)])
    fresh = M([G(1), G(2, 1)], [G(3), G(0)])
    r = R.resultant(m)
    assert R.resultant(m) == r == R.resultant(fresh)
    assert m == fresh and hash(m) == hash(fresh)
    assert m.to_json_dict() == fresh.to_json_dict()
    with pytest.raises(AttributeError):
        m.k = 3
