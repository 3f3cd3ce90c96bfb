"""Subgroup enumeration, normalizers, left cosets, and the coset laws."""

from __future__ import annotations

from dataclasses import dataclass

from .groups import GroupTable
from .reports import CheckReport, law_item
from .setops import (
    ElemSet,
    _quotient,
    invert_mask,
    is_subgroup_mask,
    product_mask,
    subgroup_closure_mask,
)

__all__ = [
    "DEFAULT_SUBGROUP_CAP",
    "Subgroup",
    "ensure_subgroup",
    "all_subgroups",
    "normalizer",
    "left_cosets",
    "check_coset_laws",
]

#: ``all_subgroups`` refuses groups beyond this order.
DEFAULT_SUBGROUP_CAP = 64


@dataclass(frozen=True, slots=True)
class Subgroup:
    elements: ElemSet
    order: int

    def __post_init__(self):
        if self.order != self.elements.size:
            raise ValueError("subgroup order does not match its element count")

    @property
    def bits(self) -> int:
        return self.elements.bits

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __iter__(self):
        return iter(self.elements)


def ensure_subgroup(G: GroupTable, s: ElemSet) -> Subgroup:
    """Wrap ``s`` as a :class:`Subgroup` after verifying it really is one."""
    if s.n != G.order:
        raise ValueError(f"set is over order {s.n}, group has order {G.order}")
    if not is_subgroup_mask(G, s.bits):
        raise ValueError(f"{s.literal()} is not a subgroup of {G.spec}")
    return Subgroup(s, s.size)


def all_subgroups(G: GroupTable) -> tuple[Subgroup, ...]:
    """Every subgroup of G, sorted by (order, bitmask).

    The seed is every cyclic subgroup, each with one generator.  Each
    subgroup H found is then extended to <H, g> for one such generator g in
    each left coset gH outside H, and the rest of gH is skipped, since
    <H, gh> = <H, g>.  Nothing is lost: a non-cyclic K is <M, g> for a
    maximal M < K and the generator g of any cyclic subgroup of K outside
    M.  Results are cached on the group table.
    """
    if G._subgroups is not None:
        return G._subgroups
    if G.order > DEFAULT_SUBGROUP_CAP:
        raise ValueError(f"subgroup enumeration over order {G.order} "
                         f"exceeds the cap {DEFAULT_SUBGROUP_CAP}")
    t, inv, n = G.action_tables(), G.inv, G.order
    full = (1 << n) - 1
    cyclic = {}  # each cyclic subgroup -> its first generator
    for x in range(n):
        cyclic.setdefault(subgroup_closure_mask(G, 1 << x), x)
    masks = {*cyclic, full}
    work = list(masks)
    while work:
        h = work.pop()
        covered = h
        for g in cyclic.values():
            if covered >> g & 1:
                continue
            covered |= _quotient(t, 1 << inv[g], h)  # gH
            # closed as by subgroup_closure_mask, but every step k lies
            # between H | {g} and <H, g>, so a k found before is <H, g>
            k = h | 1 << g
            while k not in masks:
                nxt = _quotient(t, k, k)
                if nxt == k:
                    masks.add(k)
                    work.append(k)
                elif 2 * nxt.bit_count() > n:
                    nxt = full
                k = nxt
    subs = tuple(Subgroup(ElemSet(n, m), m.bit_count())
                 for m in sorted(masks, key=lambda m: (m.bit_count(), m)))
    G._subgroups = subs
    return subs


def normalizer(G: GroupTable, H: Subgroup) -> ElemSet:
    """The set of g with gH = Hg, cached per subgroup on the group table.

    N(H) is a union of left cosets of H, so one element per coset is
    tested, reading the right coset Hg as inv(inv(g)*H).
    """
    cached = G._normalizers.get(H.bits)
    if cached is None:
        cosets = left_cosets(G, H)
        cached = 0
        for c in set(cosets):
            g = (c & -c).bit_length() - 1
            if c == invert_mask(G, cosets[G.inv[g]]):
                cached |= c
        G._normalizers[H.bits] = cached
    return ElemSet(G.order, cached)


def left_cosets(G: GroupTable, H: Subgroup) -> tuple[int, ...]:
    """``cosets[x]`` is the left coset xH as a bitmask, for every element x.

    The one source of cosets: right cosets are read as Hg = inv(inv(g)*H)
    and double cosets as H*(gH).  Built on first use, one coset at a time:
    xH = inv(inv(x))*H by ``setops._quotient`` for the first x outside the
    cosets found so far, written to every element of xH.  Cached per
    subgroup on the group table.
    """
    hbits = H.bits
    cosets = G._cosets.get(hbits)
    if cosets is None:
        t, inv = G.action_tables(), G.inv
        out = [0] * G.order
        for x in range(G.order):
            if not out[x]:
                c = _quotient(t, 1 << inv[x], hbits)
                for y in ElemSet(G.order, c):
                    out[y] = c
        cosets = G._cosets[hbits] = tuple(out)
    return cosets


def check_coset_laws(G: GroupTable, H: Subgroup) -> CheckReport:
    """Exhaustively verify four coset laws for the subgroup H.

    * overlap_bound: a left coset aH and a right coset Hb either coincide or
      overlap in at most |H|/2 elements (as 2|aH meet Hb| <= |H|).
    * normalizer_match: aH = Hb holds exactly when both a and b normalize H
      and aH = bH.
    * union_subgroup_square: for g outside H, the union of H and gH is a
      subgroup exactly when g normalizes H and g*g lands in H.  The
      normalizer hypothesis is genuinely needed for the right-to-left
      direction (dihedral 4 with H generated by one reflection and g a
      different involution breaks the unqualified version), and it is free
      in the left-to-right direction because H has index 2 in the union.
    * double_coset_size: |HgH| = |H| exactly when g normalizes H.
    """
    n, hbits, h, mul, name_of = G.order, H.bits, H.order, G.mul, G.name_of
    norm = normalizer(G, H).bits
    lefts = left_cosets(G, H)
    rights = [invert_mask(G, lefts[G.inv[b]]) for b in range(n)]  # Hb
    return CheckReport(f"coset laws for a subgroup of order {h}", (
        law_item("overlap_bound", next(
            ((a, b) for a, la in enumerate(lefts) for b, rb in enumerate(rights)
             if la != rb and 2 * (la & rb).bit_count() > h), None), name_of),
        law_item("normalizer_match", next(
            ((a, b) for a, la in enumerate(lefts) for b, rb in enumerate(rights)
             if (la == rb) != bool(norm >> a & norm >> b & 1 and la == lefts[b])),
            None), name_of),
        law_item("union_subgroup_square", next(
            (g for g in range(n) if not hbits >> g & 1
             and is_subgroup_mask(G, hbits | lefts[g])
             != bool(norm >> g & hbits >> mul[g][g] & 1)), None), name_of),
        law_item("double_coset_size", next(
            (g for g in range(n) if (product_mask(G, hbits, lefts[g]).bit_count() == h)
             != bool(norm >> g & 1)), None), name_of),
    ))
