"""Subgroup enumeration, normalizers, left cosets, and the coset laws."""

from __future__ import annotations

from dataclasses import dataclass

from .groups import GroupTable
from .reports import CheckItem, CheckReport
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

    Found by closing all cyclic subgroups and then joining pairs until no new
    subgroup appears; results are cached on the group table.
    """
    if G._subgroups is not None:
        return G._subgroups
    if G.order > DEFAULT_SUBGROUP_CAP:
        raise ValueError(f"subgroup enumeration over order {G.order} "
                         f"exceeds the cap {DEFAULT_SUBGROUP_CAP}")
    masks = {subgroup_closure_mask(G, 1 << x) for x in range(G.order)}
    items = sorted(masks)
    i = 0
    while i < len(items):
        h = items[i]
        for other in items[:i]:
            joined = subgroup_closure_mask(G, h | other)
            if joined not in masks:
                masks.add(joined)
                items.append(joined)
        i += 1
    subs = tuple(Subgroup(ElemSet(G.order, m), m.bit_count())
                 for m in sorted(masks, key=lambda m: (m.bit_count(), m)))
    G._subgroups = subs
    return subs


def normalizer(G: GroupTable, H: Subgroup) -> ElemSet:
    """The set of g with gH = Hg, cached per subgroup on the group table."""
    cached = G._normalizers.get(H.bits)
    if cached is None:
        # the right coset Hg is inv(inv(g)*H)
        cosets = left_cosets(G, H)
        cached = G._normalizers[H.bits] = sum(
            1 << g for g in range(G.order)
            if cosets[g] == invert_mask(G, cosets[G.inv[g]]))
    return ElemSet(G.order, cached)


def left_cosets(G: GroupTable, H: Subgroup) -> tuple[int, ...]:
    """``cosets[x]`` is the left coset xH as a bitmask, for every element x.

    The one source of cosets: right cosets are read as Hg = inv(inv(g)*H)
    and double cosets as H*(gH).  Built on first use as xH = inv(inv(x))*H
    by ``setops._quotient`` and cached per subgroup on the group table.
    """
    hbits = H.bits
    cosets = G._cosets.get(hbits)
    if cosets is None:
        t = G.action_tables()
        cosets = G._cosets[hbits] = tuple(_quotient(t, 1 << y, hbits) for y in G.inv)
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
    n = G.order
    hbits = H.bits
    h = H.order
    mul = G.mul
    norm = normalizer(G, H).bits
    lefts = left_cosets(G, H)
    rights = [invert_mask(G, lefts[G.inv[b]]) for b in range(n)]  # Hb
    items = []

    witness = None
    for a in range(n):
        la = lefts[a]
        for b in range(n):
            rb = rights[b]
            if la != rb and 2 * (la & rb).bit_count() > h:
                witness = (a, b)
                break
        if witness:
            break
    items.append(CheckItem(
        "overlap_bound", witness is None,
        "" if witness is None else
        "fails at ({}, {})".format(*(G.name_of(w) for w in witness))))

    witness = None
    for a in range(n):
        la = lefts[a]
        for b in range(n):
            eq = la == rights[b]
            law = bool(norm >> a & 1) and bool(norm >> b & 1) and la == lefts[b]
            if eq != law:
                witness = (a, b)
                break
        if witness:
            break
    items.append(CheckItem(
        "normalizer_match", witness is None,
        "" if witness is None else
        "fails at ({}, {})".format(*(G.name_of(w) for w in witness))))

    bad = next((g for g in range(n) if not hbits >> g & 1
                and is_subgroup_mask(G, hbits | lefts[g])
                != (bool(norm >> g & 1) and bool(hbits >> mul[g][g] & 1))),
               None)
    items.append(CheckItem("union_subgroup_square", bad is None,
                           "" if bad is None else f"fails at {G.name_of(bad)}"))

    bad = next((g for g in range(n)
                if (product_mask(G, hbits, lefts[g]).bit_count() == h)
                != bool(norm >> g & 1)),
               None)
    items.append(CheckItem("double_coset_size", bad is None,
                           "" if bad is None else f"fails at {G.name_of(bad)}"))

    return CheckReport(f"coset laws for a subgroup of order {h}", tuple(items))
