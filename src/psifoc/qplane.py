"""Quantum-plane polynomials and the identity verifiers built on them.

The quantum plane is the algebra generated by x and y with the rewriting
rule y x = t * x y for a deformation scalar t.  Polynomials are stored in
normal form (all x powers left of all y powers), so multiplication is a
bilinear rewrite: y^l x^k becomes t^(k*l) x^k y^l, a shift of the
coefficient tuples at the symbolic q.  At t = 1 the variables
commute, which is where the family convolution expansions live: the n-th
convolution power sums the family binomials (n, k) times x^k y^(n-k), and
the multiplicativity check reports every monomial where those powers fail
to multiply like true binomials.

Verifiers in this module reduce operator claims to exhaustively checkable
scalar claims through diagonal functional calculus: a diagonal-operator
identity holds iff it holds at every eigenvalue, so the operator verifiers
evaluate each claim once per distinct mutator eigenvalue
(:func:`psifoc.qhat.per_eigenvalue`) and report mismatches per degree.
Each verifier pairs the code path under test with an independent oracle,
and all but the two scalar predicates (:func:`verify_cauchy_scalar` and
:func:`realization_check`) return a :class:`Report`, one row per mismatch:

* the deformed binomial theorem: quantum-plane powers of x + y against
  the recurrence-computed Gaussian binomials.  The powers are made once
  per parameter, in one of the bottom-up tables of :mod:`psifoc.psi`,
  and each stored coefficient is the row entry it was found equal to, so
  a right power matches its row in one comparison of identities;
* the twisted Cauchy convolution, both for a scalar parameter and for a
  family's mutator operator: the sum always reads the recurrence, and the
  closed side (r+s, j) is the recurrence entry for a scalar parameter,
  total at every t, and the factorial quotient at each eigenvalue;
* the twisted convolution factorization of the Fermat matrix at every
  mutator eigenvalue of a family (factorial-quotient entries against the
  recurrence, whose twisted sums :mod:`psifoc.matrices` keeps per
  eigenvalue);
* the multiplication-operator realization of the defining relation,
  B A = t A B: A and B send each basis monomial to a multiple of at most
  one monomial (:class:`MonomialMap`), so B A and A B are composed as
  maps and compared column by column, and no matrix is built;
* multiplicativity of the convolution powers: the product of the r-th and
  s-th powers against the (r+s)-th power, monomial by monomial;
* the ordered expansion of (A + B)^n for a general weight family, which
  reports coefficient mismatches rather than asserting them away, since
  for non-constant eigenvalue families the two sides genuinely differ.

:mod:`psifoc.matrices` is imported where a matrix is built, in
:func:`verify_fermat_operator` and :meth:`MonomialMap.to_matrix`, and
:mod:`json` where a report is rendered, so a caller that expands a power
or checks a Cauchy identity loads neither.
"""

from __future__ import annotations

from collections.abc import Mapping

from . import qhat
from ._record import Frozen, Record
from .errors import DeformationMismatch, DimensionMismatch
from .psi import (PsiFamily, _check_index, _entry, _q_kernels, _ratfunc,
                  _row_step, family_one, gauss_binomial, psi_binomial,
                  twisted_sum)
from .qhat import (binomial_eigenvalue, eval_on_monomial, op_binomial,
                   qhat_operator)
from .scalars import Scalar, check, normalize, one_like, render


class QPlanePoly:
    """Normal-form polynomial over the quantum plane y x = t * x y.

    Immutable by convention; all operations return fresh values.
    """

    __slots__ = ("t", "coeffs")

    def __init__(self, t: Scalar, coeffs: Mapping[tuple[int, int], Scalar]):
        pruned = {}
        for key, value in coeffs.items():
            value = normalize(check(value))
            if value != 0:
                pruned[key] = value
        self.t = check(t)
        self.coeffs = pruned

    @classmethod
    def one(cls, t: Scalar) -> "QPlanePoly":
        return cls(t, {(0, 0): one_like(t)})

    @classmethod
    def x(cls, t: Scalar) -> "QPlanePoly":
        return cls(t, {(1, 0): one_like(t)})

    @classmethod
    def y(cls, t: Scalar) -> "QPlanePoly":
        return cls(t, {(0, 1): one_like(t)})

    @classmethod
    def x_plus_y(cls, t: Scalar) -> "QPlanePoly":
        one = one_like(t)
        return cls(t, {(1, 0): one, (0, 1): one})

    def coefficient(self, xdeg: int, ydeg: int) -> Scalar:
        return self.coeffs.get((xdeg, ydeg), 0)

    def terms(self):
        for key in sorted(self.coeffs):
            yield key[0], key[1], self.coeffs[key]

    def _check_t(self, other: "QPlanePoly") -> None:
        if self.t != other.t:
            raise DeformationMismatch(
                f"deformations {render(self.t)} and "
                f"{render(other.t)} differ")

    def __add__(self, other: "QPlanePoly") -> "QPlanePoly":
        if not isinstance(other, QPlanePoly):
            return NotImplemented
        self._check_t(other)
        acc = dict(self.coeffs)
        for key, value in other.coeffs.items():
            acc[key] = acc.get(key, 0) + value
        return QPlanePoly(self.t, acc)

    def __mul__(self, other: "QPlanePoly") -> "QPlanePoly":
        if not isinstance(other, QPlanePoly):
            return NotImplemented
        self._check_t(other)
        kernels = _q_kernels(self.t)
        if kernels is not None:
            # at q the twist q^(l1 k2) is a shift, and the terms of each
            # monomial add as coefficient tuples
            sums = kernels.shifted_product_sums(
                ((k1 + k2, l1 + l2), l1 * k2, c1, c2)
                for (k1, l1), c1 in self.coeffs.items()
                for (k2, l2), c2 in other.coeffs.items())
            if sums is not None:
                return QPlanePoly(self.t, sums)
        acc: dict[tuple[int, int], Scalar] = {}
        for (k1, l1), c1 in self.coeffs.items():
            for (k2, l2), c2 in other.coeffs.items():
                key = (k1 + k2, l1 + l2)
                # commute y^l1 past x^k2: one factor of t per swap
                term = c1 * c2 * self.t ** (l1 * k2)
                acc[key] = acc[key] + term if key in acc else term
        return QPlanePoly(self.t, acc)

    def __pow__(self, n: int) -> "QPlanePoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("quantum-plane powers take nonnegative "
                             "exponents")
        result = QPlanePoly.one(self.t)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, QPlanePoly):
            return NotImplemented
        return self.t == other.t and self.coeffs == other.coeffs

    def to_json_terms(self) -> list[dict]:
        """Serializable form: list of {xdeg, ydeg, coeff} in lex order."""
        return [{"xdeg": k, "ydeg": l, "coeff": render(c)}
                for k, l, c in self.terms()]

    def __repr__(self):
        body = " + ".join(f"({render(c)})*x^{k}*y^{l}"
                          for k, l, c in self.terms())
        return body or "0"


def psi_plus_power(fam: PsiFamily, n: int) -> QPlanePoly:
    """The n-th convolution power: sum over k of the family binomial
    (n, k) times x^k y^(n-k), in commuting variables (t = 1)."""
    if n < 0:
        raise ValueError("psi_plus_power requires n >= 0")
    _check_index(n)
    return QPlanePoly(1, {(k, n - k): psi_binomial(fam, n, k)
                          for k in range(n + 1)})


class Report(Record):
    """Outcome of a verifier: parameters, verdict, mismatch table."""

    __slots__ = ("params", "mismatches")

    def __init__(self, params: dict, mismatches: list | None = None):
        self.params = params
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def passed(self) -> bool:
        return not self.mismatches

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def compare(self, lhs: Scalar, rhs: Scalar, **where) -> None:
        """Record a mismatch row, the keys of ``where`` first, unless the
        two sides are equal."""
        if lhs != rhs:
            self.mismatches.append({**where, "lhs": render(lhs),
                                    "rhs": render(rhs)})

    def to_json(self, pretty: bool = False) -> str:
        import json
        payload = {"params": self.params, "verdict": self.verdict,
                   "mismatches": self.mismatches}
        return json.dumps(payload, indent=2 if pretty else None)


def check_psi_multiplicativity(fam: PsiFamily, r: int, s: int) -> Report:
    """Multiply the r-th and s-th convolution powers as ordinary
    polynomials and compare with the (r+s)-th power, one row per
    differing monomial.

    For the classical family the two agree (the binomial theorem); for
    genuinely deformed families such as Fibonacci they differ, which is
    why the quantum-plane machinery exists at all.
    """
    if r < 0 or s < 0:
        raise ValueError("exponents must be nonnegative")
    product = psi_plus_power(fam, r) * psi_plus_power(fam, s)
    direct = psi_plus_power(fam, r + s)
    report = Report({"check": "multiplicativity", "family": fam.label,
                     "r": r, "s": s})
    for a, b in sorted(set(product.coeffs) | set(direct.coeffs)):
        report.compare(product.coefficient(a, b), direct.coefficient(a, b),
                       monomial=f"x^{a}*y^{b}")
    return report


def verify_gauss_binomial_theorem(n_max: int) -> Report:
    """Expand (x + y)^n on the symbolic quantum plane for every n up to
    n_max and compare each coefficient of x^k y^(n-k) with the
    independently computed Gaussian binomial.  Each power is multiplied
    once, from the one before, and kept; every call compares them all,
    each power against its row in one comparison, and coefficient by
    coefficient only where that fails."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    Q = _ratfunc().Q
    report = Report({"check": "binomial-theorem", "n_max": n_max})
    for n in range(n_max + 1):
        # the row first, by its own route: the power step only reads it
        row = _entry(_row_step, Q, n)
        power = _entry(_power_step, Q, n)
        # a stored coefficient equal to its row entry is that entry, so a
        # right power compares by identity alone
        stored = tuple(power.coeffs.get((k, n - k)) for k in range(n + 1))
        if len(power.coeffs) == n + 1 and stored == row:
            continue
        expected_keys = {(k, n - k) for k in range(n + 1)}
        for k in range(n + 1):
            report.compare(power.coefficient(k, n - k), row[k],
                           n=n, monomial=f"x^{k}*y^{n - k}")
        for key in set(power.coeffs) - expected_keys:
            report.compare(power.coefficient(*key), 0,
                           n=n, monomial=f"x^{key[0]}*y^{key[1]}")
    return report


def _power_step(seq: list, t: Scalar) -> QPlanePoly:
    """(x + y)^n at t for n = len(seq), one product from the power before.

    A coefficient equal to its Gaussian-row entry is stored as that entry,
    so the table holds no second copy of the rows; the values are equal,
    so later products do not change."""
    n = len(seq)
    row = _entry(_row_step, t, n)
    power = seq[-1] * QPlanePoly.x_plus_y(t) if seq else QPlanePoly.one(t)
    # the product is fresh and not yet shared, so its coefficients are
    # swapped in place
    coeffs = power.coeffs
    for k in range(n + 1):
        c = coeffs.get((k, n - k))
        if c is not None and c == row[k]:
            coeffs[k, n - k] = row[k]
    return power


def verify_cauchy_scalar(r: int, s: int, j: int, t: Scalar) -> bool:
    """Twisted convolution identity at a scalar parameter: the sum over k
    of t^((r-k)(j-k)) (r, k) (s, j-k) equals (r+s, j), exactly.  Both
    sides read the recurrence, so the check is total, t = -1 included."""
    check(t)
    if r < 0 or s < 0:
        raise ValueError("r and s must be nonnegative")
    return twisted_sum(r, s, j, t) == gauss_binomial(r + s, j, t)


def verify_cauchy_operator(fam: PsiFamily, r: int, s: int, j: int,
                           maxdeg: int) -> Report:
    """Twisted convolution identity for a family's mutator operator.

    Both sides are diagonal operators (powers of the mutator and operator
    binomial symbols), so the identity is checked as a scalar identity
    once per distinct mutator eigenvalue, and reported for every monomial
    degree up to maxdeg.  The two sides take independent routes: the
    twisted sum reads its factors from the recurrence, the closed side
    (r+s, j) is the factorial quotient, so a quotient or a recurrence
    that is wrong shows as a mismatch.  The recurrence is total, so a
    degenerate eigenvalue is refused by the closed side alone, with
    NonInvertibleDenominator naming the symbol (r+s j) and the offending
    degree; no side of a factor (r, k) or (s, j-k) is longer than the
    longer side of (r+s, j), so no input that a factor's quotient would
    refuse passes.
    """
    if r < 0 or s < 0:
        raise ValueError("r and s must be nonnegative")

    def sides(lam: Scalar) -> tuple[Scalar, Scalar]:
        return (twisted_sum(r, s, j, lam),
                binomial_eigenvalue(r + s, j, lam))

    report = Report({"check": "cauchy-operator", "family": fam.label,
                     "r": r, "s": s, "j": j, "maxdeg": maxdeg})
    pairs = qhat.per_eigenvalue(qhat_operator(fam, maxdeg), sides)
    for m, (left, right) in enumerate(pairs):
        report.compare(left, right, degree=m)
    return report


def verify_fermat_operator(fam: PsiFamily, size: int, maxdeg: int) -> Report:
    """Fermat factorization at the mutator eigenvalue of every monomial
    degree up to maxdeg, run once per distinct eigenvalue.

    Mismatching entries are reported per degree, in degree order; a
    negative maxdeg is refused with ValueError.
    """
    from . import matrices
    report = Report({"check": "fermat-factorization", "family": fam.label,
                     "size": size, "maxdeg": maxdeg})
    per_degree = qhat.per_eigenvalue(
        qhat_operator(fam, maxdeg),
        lambda t: matrices.fermat_factorization_mismatches(
            size, matrices.ScalarMode(t)))
    for m, bad in enumerate(per_degree):
        for (i, j, lhs, rhs) in bad:
            report.compare(lhs, rhs, degree=m, entry=[i, j])
    return report


class MonomialMap(Frozen):
    """Linear map sending each basis monomial to a multiple of at most
    one basis monomial: ``images[j]`` is ``(i, w)`` when monomial j goes
    to w times monomial i, or ``None`` when it goes to zero.

    ``f @ g`` is f after g, the map of the matrix product; a composed
    weight that is zero is no image, as an entry that no product term
    reaches is int 0 there.
    """

    __slots__ = ("images",)

    def __init__(self, images: tuple[tuple[int, Scalar] | None, ...]):
        for image in images:
            if image is not None:
                check(image[1])
        self._assign(images)

    def __matmul__(self, other: "MonomialMap") -> "MonomialMap":
        if not isinstance(other, MonomialMap):
            return NotImplemented
        if len(self.images) != len(other.images):
            raise DimensionMismatch(
                f"maps on {len(self.images)} and {len(other.images)} "
                f"monomials")
        out = []
        for image in other.images:
            outer = None if image is None else self.images[image[0]]
            weight = outer and normalize(outer[1] * image[1])
            out.append((outer[0], weight) if weight else None)
        return MonomialMap(tuple(out))

    def to_matrix(self) -> matrices.ScalarMatrix:
        """The map as a matrix: w in row i of column j for each image, and
        int 0 everywhere else."""
        from . import matrices
        size = len(self.images)
        rows = [[0] * size for _ in range(size)]
        for j, image in enumerate(self.images):
            if image is not None:
                i, w = image
                rows[i][j] = w
        return matrices.ScalarMatrix._raw(tuple(map(tuple, rows)))


class OpRealization(Frozen):
    """Multiplication-by-x and weighted y-shift operators on the basis of
    monomials x^a y^b with a + b <= n, as monomial maps.

    Both operators raise total degree by one, so they annihilate the top
    layer: its monomials have no image.
    """

    __slots__ = ("n", "basis", "a", "b")

    def __init__(self, n: int, basis: tuple[tuple[int, int], ...],
                 a: MonomialMap, b: MonomialMap):
        self._assign(n, basis, a, b)

    def index(self, xdeg: int, ydeg: int) -> int:
        if xdeg < 0 or ydeg < 0 or xdeg + ydeg > self.n:
            raise ValueError(f"x^{xdeg}*y^{ydeg} is not in the basis")
        return _graded_index(xdeg, ydeg)


def _graded_basis(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((a, total - a)
                 for total in range(n + 1) for a in range(total + 1))


def _graded_index(xdeg: int, ydeg: int) -> int:
    """Position of x^xdeg y^ydeg in the graded basis: the layers of lower
    total degree come first, then the x-degree within the layer."""
    total = xdeg + ydeg
    return total * (total + 1) // 2 + xdeg


def _weighted_realization(weights: list[Scalar], n: int) -> OpRealization:
    """A = multiplication by x; B sends x^a y^b to weights[a] x^a y^(b+1).

    With weights[a] equal to the product of the first a mutator
    eigenvalues this is the unique diagonal-weight pair satisfying
    B A = (mutator by x-degree) A B.
    """
    basis = _graded_basis(n)
    a, b = [], []
    for xd, yd in basis:
        top = xd + yd == n
        a.append(None if top else (_graded_index(xd + 1, yd), 1))
        b.append(None if top else (_graded_index(xd, yd + 1), weights[xd]))
    return OpRealization(n, basis, MonomialMap(tuple(a)),
                         MonomialMap(tuple(b)))


def realization(q0: Scalar, n: int) -> OpRealization:
    """The dilation realization: B is y times the substitution x -> q0*x,
    so its weight at x-degree a is the dilation eigenvalue q0^a."""
    if n < 1:
        raise ValueError("truncation must be at least 1")
    weights = qhat.dilation_operator(q0, n).eigenvalues
    return _weighted_realization(list(weights), n)


def realization_check(q0: Scalar, n: int) -> bool:
    """Whether B A - q0 A B vanishes on all basis monomials of total
    degree below n, for the dilation realization at parameter q0."""
    check(q0)
    if n < 2:
        raise ValueError("need n >= 2 to see a commutation")
    real = realization(q0, n)
    # column j of B A - q0 A B holds w at row i and -q0 v at row k; a
    # missing image has weight 0, and a zero weight is a zero entry
    for left, right in zip((real.b @ real.a).images,
                           (real.a @ real.b).images):
        i, w = left or (None, 0)
        k, v = right or (None, 0)
        v = q0 * v
        if (w != v) if i == k else (w or v):
            return False
    return True


def explore_observation1_general(fam: PsiFamily, n: int) -> Report:
    """Ordered expansion of (A + B)^n for a general weight family,
    compared against the operator binomial coefficients.

    A is multiplication by x and B the weighted y-shift whose weights make
    B A = (mutator by x-degree) A B hold exactly.  The left side applies
    (A + B)^n to the constant monomial; the right side evaluates each
    operator binomial at the x-degree of its monomial.  For families with
    constant mutator eigenvalues (classical, Gauss) the two agree; for
    non-constant families they need not, and the report carries the
    mismatch table instead of asserting.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    mutator = qhat_operator(fam, max(n, 1))
    one = family_one(fam)
    weights: list[Scalar] = [one]
    for a in range(1, n + 1):
        weights.append(normalize(
            weights[-1] * eval_on_monomial(mutator, a)))
    real = _weighted_realization(weights, n)
    combined = real.a.to_matrix() + real.b.to_matrix()
    vector: list[Scalar] = [0] * len(real.basis)
    vector[real.index(0, 0)] = one
    state = tuple(vector)
    for _ in range(n):
        state = combined.apply(state)
    report = Report({"check": "ordered-expansion", "family": fam.label,
                     "n": n, "trunc": n})
    binom_cache = {k: op_binomial(n, k, mutator) for k in range(n + 1)}
    for k in range(n + 1):
        report.compare(state[real.index(k, n - k)],
                       eval_on_monomial(binom_cache[k], k),
                       monomial=f"x^{k}*y^{n - k}")
    return report
