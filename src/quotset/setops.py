"""Subset arithmetic over a finite group, with subsets stored as int bitmasks.

Bit ``x`` of a mask marks membership of the element with id ``x``.  The
public entry points work with :class:`ElemSet` values; the ``*_mask``
functions are the raw kernels used by the enumeration loops, where wrapping
every intermediate in a dataclass would dominate the runtime.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .groups import GroupTable
from .reports import CheckItem, CheckReport

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
        if not token.lstrip("-").isdigit():
            raise ValueError(f"bad element {token!r} in set literal {text!r}")
        x = int(token)
        if not 0 <= x < n:
            raise ValueError(f"element {x} out of range 0..{n - 1} in {text!r}")
        bits |= 1 << x
    return ElemSet(n, bits)


# ---------------------------------------------------------------------------
# mask kernels


def left_translate_mask(G: GroupTable, a: int, mask: int) -> int:
    t = G.action_tables()
    w, cm, (t0, t1, t2) = t.width, t.chunk_mask, t.rows
    a = G.inv[a]
    return t0[mask & cm][a] | t1[mask >> w & cm][a] | t2[mask >> 2 * w & cm][a]


def invert_mask(G: GroupTable, mask: int) -> int:
    t = G.action_tables()
    w, cm, (i0, i1, i2) = t.width, t.chunk_mask, t.invert
    return i0[mask & cm] | i1[mask >> w & cm] | i2[mask >> 2 * w & cm]


def product_mask(G: GroupTable, amask: int, bmask: int) -> int:
    """Bitmask of all products a*b with a in A and b in B."""
    # a*B = inv(x)*B for x = inv(a), entry x of B's rows
    t = G.action_tables()
    w, cm, (t0, t1, t2), (e0, e1, e2) = t.width, t.chunk_mask, t.rows, t.elems
    r0, r1, r2 = t0[bmask & cm], t1[bmask >> w & cm], t2[bmask >> 2 * w & cm]
    inv = G.inv
    out = bmask if amask & 1 else 0
    for a in e0[amask & cm] + e1[amask >> w & cm] + e2[amask >> 2 * w & cm]:
        x = inv[a]
        out |= r0[x] | r1[x] | r2[x]
    return out


def quotient_mask(G: GroupTable, mask: int) -> int:
    """Bitmask of all quotients inv(a)*b with a, b in the set."""
    return _quotient(G.action_tables(), mask)


def _quotient(t, mask: int) -> int:
    # for callers that hold the tables already, such as the closure loop
    w, cm, (t0, t1, t2), (e0, e1, e2) = t.width, t.chunk_mask, t.rows, t.elems
    c0, c1, c2 = mask & cm, mask >> w & cm, mask >> 2 * w & cm
    r0, r1, r2 = t0[c0], t1[c1], t2[c2]
    out = mask if mask & 1 else 0
    for a in e0[c0] + e1[c1] + e2[c2]:
        out |= r0[a] | r1[a] | r2[a]
    return out


def rep_counts_quotient_mask(G: GroupTable, amask: int, bmask: int) -> list[int]:
    """counts[g] = number of pairs (a, b) in A x B with inv(a)*b = g.

    Equivalently the size of ``Ag`` meet ``B``, so counts[g] > 0 exactly on
    the quotient-style product of the two sets.
    """
    # |Ag meet B| = |inv(g)*inv(A) meet inv(B)|, entry g of inv(A)'s rows
    t = G.action_tables()
    w, cm, (t0, t1, t2) = t.width, t.chunk_mask, t.rows
    ainv, binv = invert_mask(G, amask), invert_mask(G, bmask)
    return [((x | y | z) & binv).bit_count() for x, y, z in
            zip(t0[ainv & cm], t1[ainv >> w & cm], t2[ainv >> 2 * w & cm])]


def subgroup_closure_mask(G: GroupTable, mask: int) -> int:
    """Bitmask of the subgroup generated by the elements of ``mask``."""
    # A set S holding the identity lies inside inv(S)*S, which stays inside
    # the subgroup S generates, and equals S only when S is a subgroup.
    t = G.action_tables()
    cur = mask | 1
    while True:
        nxt = _quotient(t, cur)
        if nxt == cur:
            return cur
        cur = nxt


def is_subgroup_mask(G: GroupTable, mask: int) -> bool:
    return bool(mask & 1) and _quotient(G.action_tables(), mask) == mask


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
    mul, inv = G.mul, G.inv
    items = []

    qmask = quotient_mask(G, amask)
    rc = rep_counts_quotient_mask(G, amask, amask)
    q_elems = list(ElemSet(G.order, qmask))
    witness = None
    for i, g1 in enumerate(q_elems):
        r1 = rc[g1]
        for g2 in q_elems[i:]:
            if r1 + rc[g2] > asize and not qmask >> mul[inv[g1]][g2] & 1:
                witness = (g1, g2)
                break
        if witness:
            break
    items.append(CheckItem(
        "pigeonhole_quotient", witness is None,
        "" if witness is None else
        "fails at ({}, {})".format(*(G.name_of(w) for w in witness))))

    pmask = product_mask(G, amask, bmask)
    psize = pmask.bit_count()
    need = asize + bmask.bit_count() - psize
    pc = rep_counts_quotient_mask(G, invert_mask(G, amask), bmask)  # a*b = inv(a^-1)*b
    bad = next((g for g in ElemSet(G.order, pmask) if pc[g] < need), None)
    items.append(CheckItem(
        "kemperman_wehn", bad is None,
        "" if bad is None else f"fails at {G.name_of(bad)}"))

    return CheckReport("counting bounds", tuple(items))
