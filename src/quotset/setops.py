"""Subset arithmetic over a finite group, with subsets stored as int bitmasks.

Bit ``x`` of a mask marks membership of the element with id ``x``.  The
public entry points work with :class:`ElemSet` values; the ``*_mask``
functions are the raw kernels used by the enumeration loops, where wrapping
every intermediate in a dataclass would dominate the runtime.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .groups import _INT_RE, GroupTable
from .reports import CheckReport, law_item

__all__ = [
    "ElemSet",
    "parse_set_literal",
    "quotient_set",
    "check_counting_bounds",
]


@dataclass(frozen=True, slots=True)
class ElemSet:
    """A subset of a group of order ``n``, stored as a bitmask."""

    n: int
    bits: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"group order must be positive, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bitmask {self.bits:#x} out of range for order {self.n}")

    @classmethod
    def from_elements(cls, n: int, elements) -> "ElemSet":
        bits = 0
        for x in elements:
            if not 0 <= x < n:
                raise ValueError(f"element id {x} out of range for order {n}")
            bits |= 1 << x
        return cls(n, bits)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> tuple[int, ...]:
        return tuple(self)

    def literal(self) -> str:
        return "{" + ", ".join(str(x) for x in self) + "}"

    def __contains__(self, x) -> bool:
        return 0 <= x < self.n and self.bits >> x & 1 == 1

    def __iter__(self):
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __bool__(self) -> bool:
        return self.bits != 0

    def __len__(self) -> int:
        return self.bits.bit_count()


_SET_RE = re.compile(r"\s*\{(.*)\}\s*$", re.DOTALL)


def parse_set_literal(text: str, n: int) -> ElemSet:
    """Parse ``"{0, 4, 8}"`` into an :class:`ElemSet` over a group of order ``n``."""
    m = _SET_RE.match(text)
    if not m:
        raise ValueError(f"expected a set literal like {{0, 1, 2}}, got {text!r}")
    body = m.group(1).strip()
    if not body:
        return ElemSet(n)
    bits = 0
    for token in body.split(","):
        token = token.strip()
        if not _INT_RE.fullmatch(token):
            raise ValueError(f"bad element {token!r} in set literal {text!r}")
        x = int(token)
        if not 0 <= x < n:
            raise ValueError(f"element {x} out of range 0..{n - 1} in {text!r}")
        bits |= 1 << x
    return ElemSet(n, bits)


# ---------------------------------------------------------------------------
# mask kernels


def invert_mask(G: GroupTable, mask: int) -> int:
    t = G.action_tables()
    w, cm, out = t.width, t.chunk_mask, 0
    for i0, i1, i2 in t.invert:
        out |= i0[mask & cm] | i1[mask >> w & cm] | i2[mask >> 2 * w & cm]
        mask >>= 3 * w
    return out


def product_mask(G: GroupTable, amask: int, bmask: int) -> int:
    """Bitmask of all products a*b with a in A and b in B."""
    return _quotient(G.action_tables(), invert_mask(G, amask), bmask)  # A*B = inv(inv(A))*B


def quotient_mask(G: GroupTable, mask: int) -> int:
    """Bitmask of all quotients inv(a)*b with a, b in the set."""
    return _quotient(G.action_tables(), mask, mask)


def _quotient(t, amask: int, bmask: int) -> int:
    """inv(A)*B, read from B's rows: the one row lookup of every set operation."""
    w, cm, elems = t.width, t.chunk_mask, t.elems
    out = bmask if amask & 1 else 0
    for t0, t1, t2 in t.rows:
        r0, r1, r2 = t0[bmask & cm], t1[bmask >> w & cm], t2[bmask >> 2 * w & cm]
        bmask >>= 3 * w
        a = amask
        for e0, e1, e2 in elems:
            for x in e0[a & cm] + e1[a >> w & cm] + e2[a >> 2 * w & cm]:
                out |= r0[x] | r1[x] | r2[x]
            a >>= 3 * w
    return out


def rep_counts_quotient_mask(G: GroupTable, amask: int, bmask: int) -> list[int]:
    """counts[g] = number of pairs (a, b) in A x B with inv(a)*b = g.

    Equivalently the size of ``Ag`` meet ``B``, so counts[g] > 0 exactly on
    the quotient-style product of the two sets.
    """
    # |Ag meet B| = |inv(g)*inv(A) meet inv(B)|
    t = G.action_tables()
    ainv, binv = invert_mask(G, amask), invert_mask(G, bmask)
    return [(_quotient(t, 1 << g, ainv) & binv).bit_count() for g in range(G.order)]


def subgroup_closure_mask(G: GroupTable, mask: int) -> int:
    """Bitmask of the subgroup generated by the elements of ``mask``."""
    # A set S holding the identity lies inside inv(S)*S, which stays inside
    # the subgroup S generates, and equals S only when S is a subgroup.
    # Once S holds more than half of G, Lagrange leaves only G itself.
    t, cur, nxt, n = G.action_tables(), 0, mask | 1, G.order
    while nxt != cur:
        if 2 * nxt.bit_count() > n:
            return (1 << n) - 1
        cur, nxt = nxt, _quotient(t, nxt, nxt)
    return cur


def is_subgroup_mask(G: GroupTable, mask: int) -> bool:
    return bool(mask & 1) and _quotient(G.action_tables(), mask, mask) == mask


# ---------------------------------------------------------------------------
# public wrappers


def _bits_nonempty(G: GroupTable, s: ElemSet, what: str) -> int:
    if s.n != G.order:
        raise ValueError(f"{what} is over order {s.n}, group has order {G.order}")
    if not s.bits:
        raise ValueError(f"{what} must be nonempty")
    return s.bits


def quotient_set(G: GroupTable, A: ElemSet) -> ElemSet:
    """The quotient set of A: all elements inv(a)*b with a, b in A."""
    return ElemSet(G.order, quotient_mask(G, _bits_nonempty(G, A, "A")))


def check_counting_bounds(G: GroupTable, A: ElemSet, B: ElemSet) -> CheckReport:
    """Exhaustively verify two counting laws on the pair (A, B).

    * pigeonhole_quotient: whenever two elements of the quotient set of A
      have representation counts summing beyond |A|, their own quotient
      lands back in the quotient set of A.
    * kemperman_wehn: every g in AB satisfies
      |AB| >= |A| + |B| - (number of factorizations of g over A x B).
    """
    amask = _bits_nonempty(G, A, "A")
    bmask = _bits_nonempty(G, B, "B")
    asize = amask.bit_count()
    mul, inv, name_of = G.mul, G.inv, G.name_of
    qmask = quotient_mask(G, amask)
    rc = rep_counts_quotient_mask(G, amask, amask)
    q_elems = list(ElemSet(G.order, qmask))
    pmask = product_mask(G, amask, bmask)
    need = asize + bmask.bit_count() - pmask.bit_count()
    pc = rep_counts_quotient_mask(G, invert_mask(G, amask), bmask)  # a*b = inv(a^-1)*b
    return CheckReport("counting bounds", (
        law_item("pigeonhole_quotient", next(
            ((g1, g2) for i, g1 in enumerate(q_elems) for g2 in q_elems[i:]
             if rc[g1] + rc[g2] > asize and not qmask >> mul[inv[g1]][g2] & 1), None),
            name_of),
        law_item("kemperman_wehn", next(
            (g for g in ElemSet(G.order, pmask) if pc[g] < need), None), name_of),
    ))
