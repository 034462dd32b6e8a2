"""The character ring R(T): integer Laurent combinations of torus characters.

An element is a finite map weight -> nonzero integer coefficient, stored as a
dict with tuple keys. Coefficients are Python ints, so all arithmetic is
exact at arbitrary size. Zero coefficients are never stored; equality is
plain dict equality; the canonical human-readable form lists terms in
lexicographically descending weight order (leading term first), while JSON
serialization lists them ascending. That container, _TermMap, is shared
with repring.IrredDecomp, an element of R(G) keyed by highest weights.

Sums keep "zero coefficients are never stored" in one place, _add_scaled,
which adds into one dict in place: construction, + and -, and every sum
over many term maps in repring, covers and hecke. Three hot
loops keep their own inline updates, since a call per term slows them
measurably: the packed product (CharElt.__mul__), the chamber fold
(_dominant_fold) and the string kernel (_string_quotient).

Products and the alpha-string kernel of the divided differences
(_string_quotient) run on packed weights: a _Packing of radius
B holds every weight whose coordinates lie in [-B, B], and with R = 2B + 1
it maps mu to the int sum of mu_i * R^i, whose balanced base-R digits in
[-B, B] are the coordinates. Packing is linear, so the key of mu + nu is
the sum of the keys of mu and nu, and the string through mu steps its key
by the packed root; the key of a weight in the box unpacks back to it, and
the pairing <mu, alpha-check> is read from its digits. Python ints do not
overflow, so any B works, and each caller takes a B that holds every weight
it meets, with no size check or fallback:

- A product of two elements with at least two terms each takes B as the
  largest |mu_i| + |nu_i| over the two factors, which bounds every
  coordinate of every product weight.
- The kernel takes B at least the sum of |beta-check_i| * M_i for every
  positive root beta, with M_i the largest |mu_i| over the support of u
  (demazure takes sum c_i M_i, with c_i the largest such coefficient, which
  for an irreducible datum the highest coroot attains). A point nu of the
  convex hull of the W-orbit of the support has nu_i = <nu, alpha_i-check>,
  which at a vertex w mu is +-<mu, gamma-check> for a positive coroot
  gamma-check, so |nu_i| <= B. Every output of delta_j and delta'_j lies in
  that hull (on a segment [mu, s_j mu]), and so does every string
  representative (on [mu, s_j mu]) and every quotient (between two terms
  of its numerator's string). One packing therefore serves a whole word of
  operators.
- demazure.alternating_quotient takes the same bound over the highest
  weights of its quotient, whose support lies in the hull of their
  W-orbits, plus the largest |coordinate| of rho - w(rho) over W, so that
  each coefficient it reads at mu + rho - w(rho) lies in the box too.

>>> x = monomial((1,))
>>> (x + x**-1) * (x - x**-1) == x**2 - x**-2
True
"""

from __future__ import annotations

from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NotDivisible
from .rootdata import Root, RootDatum, Weight, _walk_to_dominant

__all__ = [
    "CharElt",
    "monomial",
    "weyl_act_simple",
    "is_weyl_invariant",
]


def _add_scaled(acc: dict[Weight, int], pairs: Iterable[tuple[Weight, int]], scale: int = 1) -> None:
    """acc += scale * pairs, in place: each (key, c) adds scale * c at key,
    and a key whose coefficient reaches 0 is removed, so acc stores no zero.
    The accumulator of every sum of term maps outside the three hot loops
    (module docstring):

    >>> acc = {(1,): 2, (0,): 1}
    >>> _add_scaled(acc, [((1,), 1), ((-1,), 3)], -2)
    >>> acc
    {(0,): 1, (-1,): -6}
    """
    get = acc.get
    for key, c in pairs:
        v = get(key, 0) + scale * c
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)


class _TermMap:
    """A finite map from integer weights to nonzero integers, summed on
    construction; the container of CharElt and repring.IrredDecomp.

    Text lists the terms as _PREFIX[weight], and JSON lists them ascending
    under _JSON_KEY. Maps of different classes never compare equal.
    """

    __slots__ = ("_terms",)
    _PREFIX = "e"
    _JSON_KEY = "terms"

    def __init__(self, terms: Mapping[Sequence[int], int] | Iterable[tuple[Sequence[int], int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Weight, int] = {}
        _add_scaled(clean, ((tuple(map(int, weight)), int(coeff)) for weight, coeff in items))
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict[Weight, int]):
        # trusted constructor: tuple keys, no zero values
        elt = cls.__new__(cls)
        elt._terms = terms
        return elt

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._terms == other._terms
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[tuple[Weight, int]]:
        return iter(self._terms.items())

    def coefficient(self, weight: Sequence[int]) -> int:
        return self._terms.get(tuple(weight), 0)

    def __str__(self) -> str:
        """Terms in descending weight order, as e.g. "2*e[1,0] - e[0,-1]";
        "0" when there are none."""
        parts: list[str] = []
        for mu in sorted(self._terms, reverse=True):
            c = self._terms[mu]
            mono = self._PREFIX + "[" + ",".join(str(x) for x in mu) + "]"
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def to_json(self) -> dict:
        return {
            self._JSON_KEY: [
                {"w": list(mu), "c": self._terms[mu]} for mu in sorted(self._terms)
            ]
        }


class CharElt(_TermMap):
    """A virtual character of the maximal torus, as a sparse Laurent element."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "CharElt":
        return cls._raw({})

    @classmethod
    def one(cls, rank: int) -> "CharElt":
        return cls._raw({(0,) * rank: 1})

    def support(self) -> tuple[Weight, ...]:
        return tuple(sorted(self._terms))

    def __add__(self, other: "CharElt") -> "CharElt":
        if not isinstance(other, CharElt):
            return NotImplemented
        out = dict(self._terms)
        _add_scaled(out, other._terms.items())
        return CharElt._raw(out)

    def __sub__(self, other: "CharElt") -> "CharElt":
        if not isinstance(other, CharElt):
            return NotImplemented
        out = dict(self._terms)
        _add_scaled(out, other._terms.items(), -1)
        return CharElt._raw(out)

    def __neg__(self) -> "CharElt":
        return CharElt._raw({k: -c for k, c in self._terms.items()})

    def __mul__(self, other: "CharElt | int") -> "CharElt":
        """The ring product, or scaling by an int.

        When one factor is zero or a monomial the product is a shift of the
        other. Otherwise every weight is packed into one int (module
        docstring), so a pair of terms costs one int addition and one dict
        update, and only the nonzero sums are unpacked. Here every factor
        coordinate is at most 1 in absolute value, so the radius is 2, R = 5
        and e[a,b] packs to a + 5b; the two terms at 1 + 5 = 6 cancel:

        >>> x, y = monomial((1, 0)), monomial((0, 1))
        >>> print((x + y) * (x - y))
        e[2,0] - e[0,2]
        """
        if isinstance(other, int):
            if not other:
                return CharElt.zero()
            return CharElt._raw({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, CharElt):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) < 2:
            # zero or a monomial: a shift, whose terms stay distinct and nonzero
            if not a:
                return CharElt.zero()
            ((mu, c),) = a.items()
            return CharElt._raw({tuple(map(add, mu, nu)): c * d for nu, d in b.items()})
        bounds = [max(map(abs, xs)) + max(map(abs, ys)) for xs, ys in zip(zip(*a), zip(*b))]
        packing = _Packing(len(bounds), max(bounds))
        packed_b = packing.pack(b).items()
        sums: dict[int, int] = {}
        get = sums.get
        for k, c in packing.pack(a).items():
            for kb, d in packed_b:
                key = k + kb
                sums[key] = get(key, 0) + c * d
        for key in [key for key, v in sums.items() if not v]:
            del sums[key]
        return CharElt._raw(packing.unpack(sums))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CharElt":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if len(self._terms) == 1:
                ((mu, c),) = self._terms.items()
                if c in (1, -1):
                    key = tuple(n * x for x in mu)
                    return CharElt._raw({key: c if n % 2 else 1} if c == -1 else {key: 1})
            raise NotDivisible("negative powers exist only for unit monomials")
        if n == 0:
            if not self._terms:
                raise ValueError("the zeroth power of zero has no known rank")
            return CharElt.one(len(next(iter(self._terms))))
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result  # type: ignore[return-value]


def monomial(weight: Sequence[int], coeff: int = 1) -> CharElt:
    """The element coeff * e^weight."""
    if coeff == 0:
        return CharElt.zero()
    return CharElt._raw({tuple(int(c) for c in weight): int(coeff)})


def weyl_act_simple(datum: RootDatum, j: int, u: CharElt) -> CharElt:
    """Action of the simple reflection s_j: e^mu -> e^{mu - mu_j alpha_j}.

    The index is checked once, also when u is zero.
    """
    alpha = datum.simple_root(j).weight_coords
    i = j - 1
    out: dict[Weight, int] = {}
    for mu, c in u._terms.items():
        t = mu[i]
        out[tuple([m - t * a for m, a in zip(mu, alpha)]) if t else mu] = c
    return CharElt._raw(out)


def is_weyl_invariant(
    datum: RootDatum, u: CharElt
) -> tuple[bool, tuple[int, CharElt] | None]:
    """Whether u is fixed by W, checked on the simple reflections by
    lookups into u alone (_fixed_by_simple). On failure returns the witness
    (j, s_j(u)), the only element it builds."""
    for j, column in enumerate(datum._simple_columns, 1):
        if not _fixed_by_simple(u._terms, j - 1, column):
            return False, (j, weyl_act_simple(datum, j, u))
    return True, None


def _fixed_by_simple(
    terms: Mapping[Weight, int], i: int, column: Sequence[tuple[int, int]]
) -> bool:
    """Whether s_j fixes the element with these terms, for j = i + 1 and
    column the nonzero coordinates of alpha_j (RootDatum._simple_columns).

    s_j negates the j-th coordinate, so it fixes the weights with mu_j = 0
    and pairs those with mu_j > 0 and those with mu_j < 0. The element is
    fixed exactly when every term mu with mu_j > 0 finds its coefficient at
    s_j(mu), and the two sides hold equally many terms: the lookups make
    s_j one-to-one from the first side into the second, and the counts make
    it onto, so every term with mu_j < 0 is matched too.
    """
    get = terms.get
    balance = 0
    for mu, c in terms.items():
        t = mu[i]
        if t > 0:
            balance += 1
            image = list(mu)
            for k, a in column:
                image[k] -= t * a
            if get(tuple(image)) != c:
                return False
        elif t < 0:
            balance -= 1
    return not balance


class _Packing:
    """Weights with every coordinate in [-radius, radius], packed into ints.

    With R = 2 * radius + 1, a weight mu packs to the int sum of mu_i * R^i,
    whose balanced base-R digits in [-radius, radius] are the coordinates
    (module docstring). A weight with a negative coordinate round-trips, and
    the keys of two weights add up to the key of their sum:

    >>> packing = _Packing(2, 3)  # R = 7
    >>> packing.key((-2, 3))  # -2 + 3 * 7
    19
    >>> packing.unpack({19: 1})
    {(-2, 3): 1}
    >>> packing.key((-2, 3)) + packing.key((1, -1)) == packing.key((-1, 2))
    True
    """

    __slots__ = ("radius", "radix", "places", "offset")

    def __init__(self, rank: int, radius: int):
        self.radius = radius
        self.radix = 2 * radius + 1
        self.places = [self.radix**i for i in range(rank)]
        # shifts every digit into [0, R), where // and % read it back
        self.offset = radius * sum(self.places)

    @classmethod
    def around(cls, terms: Mapping[Weight, int], coefficients: Sequence[int]) -> "_Packing":
        """The packing of radius sum c_i M_i over the given c_i >= 0, with M_i
        the largest |mu_i| over the weights of terms."""
        bounds = [max(map(abs, xs)) for xs in zip(*terms)]
        return cls(len(bounds), sum(map(mul, coefficients, bounds)))

    def key(self, weight: Sequence[int]) -> int:
        return sum(map(mul, weight, self.places))

    def pack(self, terms: Mapping[Weight, int]) -> dict[int, int]:
        places = self.places
        return {sum(map(mul, mu, places)): c for mu, c in terms.items()}

    def unpack(self, packed: Mapping[int, int]) -> dict[Weight, int]:
        off, r, b = self.offset, self.radix, self.radius
        # one coordinate at a time; rank 0 has no columns and one weight, ()
        columns = [[(key + off) // p % r - b for key in packed] for p in self.places]
        weights = zip(*columns) if columns else [()] * len(packed)
        return dict(zip(weights, packed.values()))


def _pairings(keys: Iterable[int], packing: _Packing, coroot: Sequence[int]) -> list[int]:
    """<mu, alpha-check> = sum of g_i mu_i for each packed weight mu, read
    from its digits one coordinate at a time."""
    off, r = packing.offset, packing.radix
    base = packing.radius * sum(coroot)
    total: list[int] = []
    for p, g in zip(packing.places, coroot):
        if not g:
            continue
        if not total:
            total = [g * ((key + off) // p % r) - base for key in keys]
        else:
            total = list(map(add, total, [g * ((key + off) // p % r) for key in keys]))
    return total


def _string_quotient(terms: Mapping[int, int], packing: _Packing, root: Root, shift: int) -> dict[int, int]:
    """One pass over the alpha-strings of packed terms: the divided
    difference delta (shift 1) or delta' (shift 0), its numerator divided by
    (1 - e^{-alpha}). Every weight met must lie in the packing's box (module
    docstring).

    A term e^mu sits on the string through rep = mu - k alpha at position
    k = <mu, alpha-check> // 2, so t0 = <rep, alpha-check> is 0 or 1 and s_alpha
    sends position p to -p - t0. With q_p the coefficients of u on one string,
    shift 1 gives the numerator of delta, u - e^{-alpha} s_alpha(u), and shift 0
    that of delta', u - s_alpha(u): v_p = q_p - q_{-p-t0-shift}.
    (1 - e^{-alpha}) acts on a string by (v_p) -> (v_p - v_{p+1}), so the
    quotient is the top-down cumulative sum, and the string divides exactly
    iff its numerator sums to zero. It always does: p -> -p - m maps the
    range [lo, hi] onto itself, so its two sums cancel, and there is no
    residue to check.
    """
    step = packing.key(root.weight_coords)
    strings: dict[int, dict[int, int]] = {}
    parities: list[int] = []  # t0 of each string, in the order of strings
    for (key, c), n in zip(terms.items(), _pairings(terms, packing, root.coroot)):
        k = n >> 1
        rep = key - k * step
        line = strings.get(rep)
        if line is None:
            strings[rep] = {k: c}
            parities.append(n & 1)
        else:
            line[k] = c
    out: dict[int, int] = {}
    for (rep, line), t0 in zip(strings.items(), parities):
        get = line.get
        m = t0 + shift
        hi = max(max(line), -min(line) - m)
        lo = -hi - m
        running = 0
        for p in range(hi, lo, -1):
            running += get(p, 0) - get(-p - m, 0)
            if running:
                out[rep + p * step] = running
    return out


def _dominant_fold(datum: RootDatum, u: CharElt) -> dict[Weight, int]:
    """The terms of e^rho u folded into the dominant chamber.

    Each mu + rho walks in place to its dominant representative lambda
    (rootdata._walk_to_dominant, the walk of RootDatum.reflect_to_dominant),
    and c is added at lambda with the sign (-1)^(number of reflections); a
    singular lambda (some coordinate 0) is dropped. The result holds the
    regular dominant weights whose coefficients do not cancel.
    """
    rho = datum.weyl_vector
    columns = datum._simple_columns
    bound = datum.num_positive_roots
    folded: dict[Weight, int] = {}
    for mu, c in u._terms.items():
        lam = list(map(add, mu, rho))
        if _walk_to_dominant(lam, columns, bound) & 1:
            c = -c
        if all(lam):
            key = tuple(lam)
            v = folded.get(key, 0) + c
            if v:
                folded[key] = v
            else:
                del folded[key]
    return folded

