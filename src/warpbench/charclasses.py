"""Mod-2 cohomology rings with dual classes, total Stiefel-Whitney classes
and Stiefel-Whitney numbers of products.

Rings are finite graded tables: complex projective spaces Z/2[b]/(b^{n+1}),
and the twisted double-disc-bundle manifolds whose ring carries even powers
a^k together with odd-degree dual classes (a^k)* pairing to the fundamental
class.  Everything is exact bit arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from ._util import rank_gf2

__all__ = ["Mod2Ring", "Mod2Class", "ring_cpn", "ring_wi", "product_ring",
           "sw_number", "omega9_generator_table"]


@dataclass(frozen=True)
class Mod2Ring:
    name: str
    degree: dict                       # basis element -> degree
    mul: dict                          # (x, y) sorted pair -> basis or None
    top_degree: int
    fundamental: str
    sw: frozenset = frozenset()        # total SW class as a basis subset
    unit: str = "1"

    def basis(self, degree: int | None = None):
        if degree is None:
            return sorted(self.degree)
        return sorted(x for x, d in self.degree.items() if d == degree)

    def one(self) -> "Mod2Class":
        return Mod2Class(self, frozenset([self.unit]))

    def zero(self) -> "Mod2Class":
        return Mod2Class(self, frozenset())

    def cls(self, *names) -> "Mod2Class":
        for nm in names:
            if nm not in self.degree:
                raise KeyError(f"{nm!r} not in the basis of {self.name}")
        out = frozenset()
        for nm in names:
            out = out ^ frozenset([nm])
        return Mod2Class(self, out)

    def total_sw(self) -> "Mod2Class":
        return Mod2Class(self, self.sw)

    def multiply_basis(self, x: str, y: str) -> str | None:
        key = (x, y) if (x, y) in self.mul else (y, x)
        return self.mul.get(key)


@dataclass(frozen=True)
class Mod2Class:
    ring: Mod2Ring
    bits: frozenset

    def __add__(self, other: "Mod2Class") -> "Mod2Class":
        self._check(other)
        return Mod2Class(self.ring, self.bits ^ other.bits)

    def __mul__(self, other: "Mod2Class") -> "Mod2Class":
        self._check(other)
        acc: set = set()
        for x in self.bits:
            for y in other.bits:
                z = self.ring.multiply_basis(x, y)
                if z is not None:
                    acc ^= {z}
        return Mod2Class(self.ring, frozenset(acc))

    def __pow__(self, n: int) -> "Mod2Class":
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, Mod2Class) and other.ring is self.ring
                and other.bits == self.bits)

    def __hash__(self):
        return hash((id(self.ring), self.bits))

    def component(self, degree: int) -> "Mod2Class":
        return Mod2Class(self.ring,
                         frozenset(x for x in self.bits
                                   if self.ring.degree[x] == degree))

    def degrees(self):
        return sorted({self.ring.degree[x] for x in self.bits})

    def pair_fundamental(self) -> int:
        """Evaluate the top-degree component on the fundamental class."""
        return 1 if self.ring.fundamental in self.bits else 0

    def _check(self, other):
        if other.ring is not self.ring:
            raise ValueError("classes live in different rings")

    def __repr__(self):
        if not self.bits:
            return "0"
        return " + ".join(sorted(self.bits,
                                 key=lambda x: (self.ring.degree[x], x)))


def _sw_from_components(comps: dict) -> frozenset:
    bits: set = set()
    for cls_names in comps.values():
        bits ^= set(cls_names)
    return frozenset(bits)


def ring_cpn(n: int) -> Mod2Ring:
    """Z/2[b]/(b^{n+1}) with |b| = 2 and total class (1 + b)^{n+1}."""
    if n < 1:
        raise ValueError("need n >= 1")
    names = ["1"] + [f"b^{k}" if k > 1 else "b" for k in range(1, n + 1)]
    degree = {nm: 2 * k for k, nm in enumerate(names)}
    mul = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            mul[(names[i], names[j])] = names[i + j] if i + j <= n else None
    sw_bits: set = set()
    for j in range(0, n + 1):
        if comb(n + 1, j) % 2 == 1:
            sw_bits ^= {names[j]}
    return Mod2Ring(name=f"CP{n}", degree=degree, mul=mul,
                    top_degree=2 * n, fundamental=names[n],
                    sw=frozenset(sw_bits))


def _wi_even(k: int) -> str:
    return "1" if k == 0 else ("a" if k == 1 else f"a^{k}")


def _wi_odd(k: int) -> str:
    return f"(a^{k})*"


def ring_wi(i: int) -> Mod2Ring:
    """Mod-2 cohomology of the (4i+1)-dimensional twisted double disc
    bundle: even classes a^k (k <= 2i-1, |a| = 2), odd duals (a^k)* in
    degree 2(2i-k)+1, fundamental class (a^0)*.

    Products: a^m a^k = a^{m+k} (zero past k = 2i-1),
    a^m (a^k)* = (a^{k-m})* for k >= m (duality pairing), odd*odd = 0.
    Total class: w_{2j} = C(2i+1, j) a^j and
    w_{2j+1} = j C(2i+1, j) (a^{2i-j})*, coefficients mod 2, restricted to
    degrees with nonzero cohomology.
    """
    if i < 1:
        raise ValueError("need i >= 1")
    evens = [_wi_even(k) for k in range(2 * i)]
    odds = [_wi_odd(k) for k in range(2 * i)]
    degree = {}
    for k, nm in enumerate(evens):
        degree[nm] = 2 * k
    for k, nm in enumerate(odds):
        degree[nm] = 2 * (2 * i - k) + 1
    mul = {}
    for m in range(2 * i):
        for k in range(m, 2 * i):
            mul[(evens[m], evens[k])] = (evens[m + k] if m + k <= 2 * i - 1
                                         else None)
    for m in range(2 * i):
        for k in range(2 * i):
            key = tuple(sorted((evens[m], odds[k])))
            mul[key] = odds[k - m] if k >= m else None
    for m in range(2 * i):
        for k in range(m, 2 * i):
            mul[(odds[m], odds[k])] = None
    comps = {}
    for j in range(0, 2 * i):
        if comb(2 * i + 1, j) % 2 == 1 and j <= 2 * i - 1:
            comps[2 * j] = comps.get(2 * j, []) + [evens[j]]
    for j in range(1, 2 * i + 1):
        if (j * comb(2 * i + 1, j)) % 2 == 1 and 0 <= 2 * i - j <= 2 * i - 1:
            comps[2 * j + 1] = comps.get(2 * j + 1, []) + [odds[2 * i - j]]
    return Mod2Ring(name=f"W{i}", degree=degree, mul=dict(mul),
                    top_degree=4 * i + 1, fundamental=odds[0],
                    sw=_sw_from_components(comps))


def product_ring(r1: Mod2Ring, r2: Mod2Ring) -> Mod2Ring:
    """Tensor-product ring on pair basis x|y; no signs mod 2."""
    def nm(x, y):
        return f"{x}|{y}"

    degree = {nm(x, y): r1.degree[x] + r2.degree[y]
              for x in r1.degree for y in r2.degree}
    mul = {}
    names = sorted(degree)
    for p in names:
        x1, y1 = p.split("|")
        for q in names:
            if (p, q) in mul or (q, p) in mul:
                continue
            x2, y2 = q.split("|")
            zx = r1.multiply_basis(x1, x2)
            zy = r2.multiply_basis(y1, y2)
            mul[(p, q)] = nm(zx, zy) if zx is not None and zy is not None \
                else None
    sw_bits: set = set()
    for x in r1.sw:
        for y in r2.sw:
            sw_bits ^= {nm(x, y)}
    return Mod2Ring(name=f"{r1.name}x{r2.name}", degree=degree, mul=mul,
                    top_degree=r1.top_degree + r2.top_degree,
                    fundamental=nm(r1.fundamental, r2.fundamental),
                    sw=frozenset(sw_bits), unit=nm(r1.unit, r2.unit))


def sw_number(factors, monomial) -> int:
    """Stiefel-Whitney number of a product of rings.

    factors: list of Mod2Ring (each carrying its total class); monomial:
    list of {"index": k, "exponent": e} meaning the product of w_k^e.  The
    total degree must equal the dimension of the product.
    """
    ring = factors[0]
    for other in factors[1:]:
        ring = product_ring(ring, other)
    total = ring.total_sw()
    degree_sum = sum(int(m["index"]) * int(m["exponent"]) for m in monomial)
    if degree_sum != ring.top_degree:
        raise ValueError(
            f"monomial degree {degree_sum} != dimension {ring.top_degree}")
    out = ring.one()
    for m in monomial:
        comp = total.component(int(m["index"]))
        for _ in range(int(m["exponent"])):
            out = out * comp
    return out.pair_fundamental()


def omega9_generator_table() -> dict:
    """The two nine-dimensional generators against the two detecting
    numbers (w3 w2^3 and w7 w2); the matrix must have full mod-2 rank."""
    w2_ring = ring_wi(2)
    w1xcp2 = [ring_wi(1), ring_cpn(2)]
    mono_a = [{"index": 3, "exponent": 1}, {"index": 2, "exponent": 3}]
    mono_b = [{"index": 7, "exponent": 1}, {"index": 2, "exponent": 1}]
    matrix = [
        [sw_number([w2_ring], mono_a), sw_number([w2_ring], mono_b)],
        [sw_number(w1xcp2, mono_a), sw_number(w1xcp2, mono_b)],
    ]
    rank = rank_gf2([(row[0] << 1) | row[1] for row in matrix])
    return {"rows": ["W2", "W1 x CP2"],
            "columns": ["w3*w2^3", "w7*w2"],
            "matrix": matrix,
            "rank": rank}
