"""Rational-map coordinates: exact resultants, centring predicates, and the
torus and deck actions.

A degree-k map is a pair of polynomials (phi, psi) with psi monic of degree
k and deg phi <= k-1, held with exact Gaussian-rational coefficients.  The
resultant is the Sylvester determinant of (psi, phi), normalized so that
for monic psi it equals the product of phi over the roots of psi.  Each
polynomial is cleared of denominators once, and the determinant is taken
by fraction-free (Bareiss) elimination on Gaussian integers, so every
predicate (|R| = 1, R = 1) is decided exactly.

Unit scalars that are not Gaussian (general roots of unity, as needed for
the deck action at k not dividing 4) are carried as an exact phase tag on
phi, a rational number of turns; quarter turns are folded into the
coefficients at construction.  A root of unity is a Gaussian rational only
if it is a fourth root, which is what makes the strong-centring test on a
phase-tagged map exactly decidable.

`torus_act` is the one action of a unit on phi.  The deck group Z_k of
Sen's conjecture acts through it: `deck_transform(m, j)` is the action of
exp(2*pi*i*j/k), for an int j only.  An image takes its resultant from
the original, Res(psi, u*phi) = u^k * Res(psi, phi), with no new
determinant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import Record
from .inputs import as_list, as_object, as_rational


def _exact(x) -> Fraction:
    """An exact number as a Fraction; a bool or a float is refused."""
    if isinstance(x, (bool, float)):
        why = "a bool is not a number" if isinstance(x, bool) else "a float is not exact"
        raise TypeError(f"cannot read {x!r} as an exact rational: {why}")
    return Fraction(x)


class GaussianRational(Record):
    """An exact complex number with rational real and imaginary parts; a
    bool or a float part raises TypeError."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        Record.__init__(self, _exact(re), _exact(im))

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction, str)):
            return cls(value)
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return cls(*value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational._canonical(self.re + o.re, self.im + o.im)

    def __sub__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational._canonical(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussianRational._canonical(-self.re, -self.im)

    def __mul__(self, other):
        o = GaussianRational.coerce(other)
        return GaussianRational._canonical(self.re * o.re - self.im * o.im,
                                           self.re * o.im + self.im * o.re)

    def __truediv__(self, other):
        o = GaussianRational.coerce(other)
        n = o.abs2()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational._canonical((self.re * o.re + self.im * o.im) / n,
                                           (o.re * self.im - o.im * self.re) / n)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __pow__(self, n: int):
        out = GaussianRational(1)
        base = self
        e = int(n)
        if e < 0:
            base = GaussianRational(1) / base
            e = -e
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conj(self) -> "GaussianRational":
        return GaussianRational._canonical(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # A real value hashes like the int or Fraction it equals, as complex does.
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def to_json_pair(self) -> list[str]:
        return [str(self.re), str(self.im)]


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)

_QUARTER_UNITS = {
    Fraction(0): ONE,
    Fraction(1, 4): I_UNIT,
    Fraction(1, 2): -ONE,
    Fraction(3, 4): -I_UNIT,
}


class Phase(Record):
    """The unit complex number exp(2*pi*i*turns) with rational turns."""

    __slots__ = ("turns",)

    def __init__(self, turns):
        Record.__init__(self, _exact(turns) % 1)

    def as_gaussian(self) -> GaussianRational | None:
        """The exact value, when it happens to be a Gaussian rational."""
        return _QUARTER_UNITS.get(self.turns)

    def __complex__(self) -> complex:
        import cmath

        return cmath.exp(2j * cmath.pi * float(self.turns))

    def __repr__(self) -> str:
        return f"Phase({self.turns})"


class RationalMapPair(Record):
    """A based rational map of degree k: phi over monic psi.

    `phi_phase` is an exact extra unit factor on phi (in turns); direct
    constructions have phase 0, and quarter turns are always folded into
    the coefficients.  The resultant without the phase tag, the Sylvester
    determinant of (psi, phi), is computed at construction as the last field.
    """

    __slots__ = ("phi", "psi", "phi_phase", "_gauss")

    def __init__(self, phi: Iterable, psi: Iterable, phi_phase=0):
        phi_t = tuple(GaussianRational.coerce(c) for c in phi)
        psi_t = tuple(GaussianRational.coerce(c) for c in psi)
        k = len(psi_t)
        if k < 1:
            raise ValueError("degree must be at least 1")
        if len(phi_t) > k:
            raise ValueError(f"deg phi must be < deg psi = {k}")
        phi_t, turns, _ = _fold(phi_t + (ZERO,) * (k - len(phi_t)), phi_phase)
        Record.__init__(self, phi_t, psi_t, turns, _gauss_resultant(psi_t, phi_t))

    @property
    def k(self) -> int:
        return len(self.psi)

    def __reduce__(self):
        return type(self), (self.phi, self.psi, self.phi_phase)

    def __repr__(self) -> str:
        return f"RationalMapPair(k={self.k}, phi={[str(c) for c in self.phi]}, psi={[str(c) for c in self.psi]}, phase={self.phi_phase})"

    def to_json_dict(self) -> dict:
        out = {
            "k": self.k,
            "phi": [c.to_json_pair() for c in self.phi],
            "psi": [c.to_json_pair() for c in self.psi],
        }
        if self.phi_phase:
            out["phi_phase"] = str(self.phi_phase)
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "RationalMapPair":
        """Parse the JSON form, naming the offending field on bad input."""
        d = as_object(d, "rational-map input")
        return cls(
            _json_coefficients(d, "phi"),
            _json_coefficients(d, "psi"),
            phi_phase=as_rational(d.get("phi_phase", 0), "phi_phase"),
        )


def _fold(phi: tuple, turns, unit: GaussianRational = ONE):
    """Multiply phi by the Gaussian unit `unit` and by the quarter turns of
    `turns`: the new coefficients, the phase tag left in [0, 1/4) (0 for a
    zero phi), and the whole Gaussian unit that phi was multiplied by."""
    turns = _exact(turns) % 1
    quarter = Fraction(int(turns * 4), 4)
    if quarter:
        unit *= _QUARTER_UNITS[quarter]
        turns -= quarter
    if unit != ONE:
        phi = tuple(c * unit for c in phi)
    if all(c.is_zero() for c in phi):
        turns = Fraction(0)
    return phi, turns, unit


def _json_coefficients(d: dict, name: str) -> list[GaussianRational]:
    out = []
    for i, p in enumerate(as_list(d, name, "a list of [re, im] pairs")):
        where = f"{name}[{i}]"
        if not (isinstance(p, list) and len(p) == 2):
            raise ValueError(f"{where} must be an [re, im] pair, got {p!r}")
        out.append(GaussianRational(as_rational(p[0], where), as_rational(p[1], where)))
    return out


def _scaled(coeffs: Sequence[GaussianRational]) -> tuple[list[int], list[int], int]:
    """The coefficients times L, the lcm of their denominators: real parts,
    imaginary parts (as ints), and L."""
    scale = math.lcm(*(x.denominator for c in coeffs for x in (c.re, c.im)))
    return (
        [c.re.numerator * (scale // c.re.denominator) for c in coeffs],
        [c.im.numerator * (scale // c.im.denominator) for c in coeffs],
        scale,
    )


def _sylvester(
    psi: Sequence[GaussianRational], phi: Sequence[GaussianRational]
) -> tuple[list[list[int]], list[list[int]], int]:
    """Sylvester matrix of monic psi (degree k) and phi at formal degree k-1,
    cleared of denominators: real parts, imaginary parts, and the factor
    L_psi^(k-1) * L_phi^k by which its determinant exceeds the resultant."""
    k = len(psi)
    size = 2 * k - 1
    psi_re, psi_im, l_psi = _scaled([ONE] + list(reversed(psi)))   # z^k + b_{k-1} z^{k-1} + ...
    phi_re, phi_im, l_phi = _scaled(list(reversed(phi)))           # a_{k-1} z^{k-1} + ...
    re, im = [], []
    for shift in range(k - 1):
        pad = [0] * (size - shift - k - 1)
        re.append([0] * shift + psi_re + pad)
        im.append([0] * shift + psi_im + pad)
    for shift in range(k):
        pad = [0] * (size - shift - k)
        re.append([0] * shift + phi_re + pad)
        im.append([0] * shift + phi_im + pad)
    return re, im, l_psi ** (k - 1) * l_phi ** k


def _det_bareiss(re: list[list[int]], im: list[list[int]]) -> tuple[int, int]:
    """Determinant of the Gaussian-integer matrix re + i*im, by one-step
    fraction-free elimination; both matrices are overwritten."""
    n = len(re)
    sign = 1
    pr, pi = 1, 0   # the previous pivot, which divides every update exactly
    for t in range(n - 1):
        if not (re[t][t] or im[t][t]):
            swap = next((r for r in range(t + 1, n) if re[r][t] or im[r][t]), None)
            if swap is None:
                return 0, 0
            re[t], re[swap] = re[swap], re[t]
            im[t], im[swap] = im[swap], im[t]
            sign = -sign
        tr, ti = re[t], im[t]
        ar, ai = tr[t], ti[t]
        # Each entry x becomes (x*a - b*y) / prev, where a is the pivot, b the
        # entry below it and y the pivot row's entry; dividing exactly by prev
        # is multiplying by conj(prev), folded into a and b, then by 1/|prev|^2.
        norm = pr * pr + pi * pi
        acr, aci = ar * pr + ai * pi, ai * pr - ar * pi
        for r in range(t + 1, n):
            rr, ri = re[r], im[r]
            br, bi = rr[t], ri[t]
            bcr, bci = br * pr + bi * pi, bi * pr - br * pi
            for c in range(t + 1, n):
                xr, xi, yr, yi = rr[c], ri[c], tr[c], ti[c]
                rr[c] = (xr * acr - xi * aci - bcr * yr + bci * yi) // norm
                ri[c] = (xr * aci + xi * acr - bcr * yi - bci * yr) // norm
        pr, pi = ar, ai
    return sign * re[-1][-1], sign * im[-1][-1]


def _gauss_resultant(psi: Sequence[GaussianRational],
                     phi: Sequence[GaussianRational]) -> GaussianRational:
    """The resultant of (psi, phi) without the phase tag."""
    re, im, scale = _sylvester(psi, phi)
    det_re, det_im = _det_bareiss(re, im)
    return GaussianRational._canonical(Fraction(det_re, scale), Fraction(det_im, scale))


def _resultant_phase(m: RationalMapPair) -> Phase:
    """exp(2*pi*i*k*phi_phase): the factor the phase tag puts on the resultant."""
    return Phase(m.phi_phase * m.k)


def resultant(m: RationalMapPair) -> GaussianRational:
    """The resultant of (psi, phi): the product of phi over psi's roots.

    Homogeneous of degree k in phi.  For a phase-tagged map the phase
    enters through its k-th power; if that is not a Gaussian unit the value
    leaves the Gaussian rationals and an error explains how to retrieve the
    two exact factors.
    """
    base = m._gauss
    phase = _resultant_phase(m)
    unit = phase.as_gaussian()
    if unit is None:
        raise ValueError(
            f"resultant is exp(2*pi*i*{phase.turns}) times {base}; not a Gaussian rational"
        )
    return base * unit


def is_based(m: RationalMapPair) -> bool:
    """No common factor: the resultant does not vanish."""
    return not m._gauss.is_zero()


def is_centred(m: RationalMapPair) -> bool:
    """Based, traceless denominator, and unit-modulus resultant."""
    return m.psi[m.k - 1].is_zero() and m._gauss.abs2() == 1


def is_strongly_centred(m: RationalMapPair) -> bool:
    """Based, traceless denominator, and resultant exactly 1."""
    if not m.psi[m.k - 1].is_zero():
        return False
    # A phase outside the Gaussian units is a root of unity outside the
    # Gaussian rationals, so its product with the base cannot equal 1.
    unit = _resultant_phase(m).as_gaussian()
    return unit is not None and m._gauss * unit == ONE


def torus_act(lam, m: RationalMapPair) -> RationalMapPair:
    """Scale phi by a unit scalar: a Gaussian unit or an exact Phase.  The
    image's resultant is m's times u^k, u the Gaussian unit folded into phi:
    no determinant is taken."""
    if isinstance(lam, Phase):
        g, turns = ONE, m.phi_phase + lam.turns
    else:
        g, turns = GaussianRational.coerce(lam), m.phi_phase
        if g.abs2() != 1:
            raise ValueError(f"torus action needs a unit scalar, got |lam|^2 = {g.abs2()}")
    phi, turns, unit = _fold(m.phi, turns, g)
    return RationalMapPair._canonical(phi, m.psi, turns, m._gauss * unit ** m.k)


def deck_transform(m: RationalMapPair, j: int) -> RationalMapPair:
    """Act on phi by the k-th root of unity exp(2*pi*i*j/k).  `j` must be an
    int; anything else, a bool included, raises TypeError."""
    if isinstance(j, bool) or not isinstance(j, int):
        raise TypeError(f"deck_transform takes an int exponent j, got {j!r}")
    return torus_act(Phase(Fraction(j, m.k)), m)


def deck_orbit(m: RationalMapPair) -> list[RationalMapPair]:
    """The orbit of m under the k-th roots of unity, in order of first appearance."""
    return list(dict.fromkeys(deck_transform(m, j) for j in range(m.k)))
