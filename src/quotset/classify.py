"""Structure classification for finite sets with a small quotient set.

The central dichotomy: a nonempty subset A of a finite group has a small
quotient set — meaning 3|Q| < 5|A| for Q the quotient set of A — exactly
when one of two coset pictures holds.

* single-coset: A sits inside one left coset aH of a subgroup H with
  5|A| > 3|H|, and then Q is exactly H.
* two-cosets: A sits inside a union aH | bH of two distinct left cosets
  of a subgroup H with 5|A| > 9|H|, and the off-subgroup window
  W = HdH | H inv(d) H for d = inv(a)*b has size exactly 2|H|.  Then
  Q is the disjoint union of H and W, so |Q| = 3|H|.  The window
  condition does not depend on which representatives a, b are picked,
  and it splits into two shapes: either d normalizes H and d*d stays
  outside H (W is the disjoint pair dH | inv(d)H), or d does not
  normalize H and HdH = H inv(d) H is one double coset of size 2|H|.

The fused shape is easy to miss: in the dihedral group of order 8 the set
{e, r, s, rs} has quotient set of size 6 < 5/3 * 4, is covered by the two
cosets H | rH of H = {e, s}, and no representative choice normalizes H —
yet HrH = H inv(r) H has size 2|H| and the classification holds.  Demanding
the normalizer shape alone would leave such sets unclassified.

``classify`` finds the picture; ``verify_structure`` formats the clauses
of ``_structure_clauses`` (which the census runs alone), recomputing the
claimed quotient decomposition from scratch; ``check_sufficiency`` drives
the converse direction from coset data alone; ``construct_threshold_example``
builds the standard set showing the 5/3 ratio cannot be improved; and
``stability_diagnostics`` examines the heavily-represented part of the
quotient set and the subgroup it spans.

Every coset and window is read from the per-subgroup table
``subgroups.left_cosets``: ``_window_masks`` gives HdH and H inv(d) H, and
``_two_cosets`` holds the checks on aH | bH that the clause evaluator and
``check_sufficiency`` share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .groups import GroupTable
from .reports import CheckItem, CheckReport
from .setops import (
    ElemSet,
    invert_mask,
    is_subgroup_mask,
    left_translate_mask,
    product_mask,
    quotient_mask,
    rep_counts_quotient_mask,
    subgroup_closure_mask,
)
from .subgroups import Subgroup, all_subgroups, left_cosets, normalizer

__all__ = [
    "ClassKind",
    "Classification",
    "classify",
    "verify_structure",
    "check_sufficiency",
    "construct_threshold_example",
    "StabilityDiagnostics",
    "stability_diagnostics",
]


class ClassKind(enum.Enum):
    """Outcome of classifying a set by the size of its quotient set."""

    NOT_SMALL = "not-small"        # 3|Q| >= 5|A|; no structure promised
    SINGLE_COSET = "single-coset"  # A inside one coset of H, Q = H
    TWO_COSETS = "two-cosets"      # A inside two cosets, Q = H | HdH | Hd^-1H
    VIOLATION = "violation"        # 3|Q| < 5|A| but neither picture found


@dataclass(frozen=True, slots=True)
class Classification:
    """Result of ``classify``.

    ``fused`` is only meaningful for two-cosets results: True when the
    off-subgroup window is a single double coset HdH = H inv(d) H of size
    2|H| (the representative does not normalize H), False when it splits
    as dH | inv(d)H with d in the normalizer.
    """

    kind: ClassKind
    quotient: ElemSet
    set_size: int
    quotient_size: int
    subgroup: Subgroup | None = None
    rep_a: int | None = None
    rep_b: int | None = None
    fused: bool | None = None

    @property
    def small(self) -> bool:
        return 3 * self.quotient_size < 5 * self.set_size

    def ratio_check(self) -> tuple[int, int]:
        """The two sides of the smallness comparison, (3|Q|, 5|A|)."""
        return 3 * self.quotient_size, 5 * self.set_size


def _window_masks(G: GroupTable, H: Subgroup, d: int) -> tuple[int, int]:
    """The double cosets HdH and H inv(d) H as bitmasks."""
    cosets = left_cosets(G, H)
    return (product_mask(G, H.bits, cosets[d]),
            product_mask(G, H.bits, cosets[G.inv[d]]))


def _two_cosets(G: GroupTable, H: Subgroup, amask: int, a: int, b: int):
    """``(d, HdH, H inv(d) H)`` for d = inv(a)*b, after checking that aH and
    bH are distinct left cosets that both meet A and together hold it;
    raises ``ValueError`` naming the first check that fails."""
    cosets = left_cosets(G, H)
    coset_a, coset_b = cosets[a], cosets[b]
    if coset_a == coset_b:
        raise ValueError("representatives a and b lie in the same coset of H")
    if amask & ~(coset_a | coset_b):
        raise ValueError("set is not inside aH | bH")
    if not (amask & coset_a) or not (amask & coset_b):
        raise ValueError("set does not meet both cosets aH and bH")
    d = G.mul[G.inv[a]][b]
    return d, *_window_masks(G, H, d)


def _picture_candidates(G: GroupTable, subgroups, k: int):
    """The subgroups, in ``subgroups`` order, that could hold a set of size k
    in one left coset (k <= |H| and 5k > 3|H|), and those that could hold it
    in two (k <= 2|H| and 5k > 9|H|): two lists of ``(H, left cosets)``
    pairs."""
    return ([(H, left_cosets(G, H)) for H in subgroups
             if k <= H.order and 5 * k > 3 * H.order],
            [(H, left_cosets(G, H)) for H in subgroups
             if k <= 2 * H.order and 5 * k > 9 * H.order])


def _coset_picture(G: GroupTable, amask: int, single, double):
    """The first subgroup whose coset-picture hypotheses A meets, or None.

    ``single`` and ``double`` are the candidates for A's size that
    ``_picture_candidates`` gives.  Returns ``(H, a, b)`` with a the least
    element of A.  ``b`` is None when A lies in aH; otherwise no single-coset
    candidate fits, b is the least element of A outside aH, A lies in
    aH | bH, and the window HdH | H inv(d) H for d = inv(a)*b has size
    exactly 2|H|.
    """
    a = (amask & -amask).bit_length() - 1
    for H, cosets in single:
        if amask & ~cosets[a] == 0:
            return H, a, None
    for H, cosets in double:
        rest = amask & ~cosets[a]
        if not rest:
            continue
        b = (rest & -rest).bit_length() - 1
        if rest & ~cosets[b]:
            continue
        d1, d2 = _window_masks(G, H, G.mul[G.inv[a]][b])
        if (d1 | d2).bit_count() == 2 * H.order:
            return H, a, b
    return None


def classify(G: GroupTable, A: ElemSet) -> Classification:
    """Classify a nonempty set by the structure forced by its quotient set.

    When 3|Q| < 5|A| this finds the smallest subgroup realizing the
    single-coset picture, falling back to the smallest subgroup realizing
    the two-cosets picture.  A ``VIOLATION`` result means the smallness
    bound held but no picture was found, which the classification dichotomy
    rules out; it is reported rather than asserted so census runs can
    surface it as a finding.
    """
    if A.n != G.order:
        raise ValueError(f"set is over order {A.n}, group has order {G.order}")
    amask = A.bits
    if not amask:
        raise ValueError("cannot classify the empty set")
    qmask = quotient_mask(G, amask)
    k = amask.bit_count()
    qk = qmask.bit_count()
    quotient = ElemSet(G.order, qmask)
    if 3 * qk >= 5 * k:
        return Classification(ClassKind.NOT_SMALL, quotient, k, qk)

    picture = _coset_picture(G, amask, *_picture_candidates(G, all_subgroups(G), k))
    if picture is None:
        return Classification(ClassKind.VIOLATION, quotient, k, qk)
    H, a, b = picture
    if b is None:
        return Classification(ClassKind.SINGLE_COSET, quotient, k, qk,
                              subgroup=H, rep_a=a)
    return Classification(ClassKind.TWO_COSETS, quotient, k, qk,
                          subgroup=H, rep_a=a, rep_b=b,
                          fused=G.mul[G.inv[a]][b] not in normalizer(G, H))


#: The clauses ``_structure_clauses`` returns, in ``verify_structure`` order.
_SINGLE_CLAUSES = ("ratio_bound", "quotient_equals_subgroup")
_TWO_COSET_CLAUSES = ("ratio_bound", "window_size", "window_misses_subgroup",
                      "union_is_quotient", "normalizer_route", "fused_route")


def _structure_clauses(G: GroupTable, amask: int, qmask: int, H: Subgroup,
                       a: int, b: int | None):
    """``(clauses, |HdH | H inv(d) H|)`` for A in aH (b None, no window) or
    in aH | bH: clause values in ``_SINGLE_CLAUSES`` or ``_TWO_COSET_CLAUSES``
    order, None for the route that does not apply.  Raises ``ValueError`` if
    the quotient set of A, recomputed here, is not ``qmask``, or if A is not
    inside the claimed cosets, which ``_two_cosets`` checks for two.
    """
    if quotient_mask(G, amask) != qmask:
        raise ValueError("classification quotient does not match the given set")
    hbits, h = H.bits, H.order
    k5 = 5 * amask.bit_count()
    cosets = left_cosets(G, H)
    if b is None:
        if amask & ~cosets[a]:
            raise ValueError("set is not inside the claimed coset")
        return (k5 > 3 * h, qmask == hbits), None

    d, d1, d2 = _two_cosets(G, H, amask, a, b)
    window = d1 | d2
    split = fused = None
    if d in normalizer(G, H):
        split = (d1 == cosets[d] and d2 == cosets[G.inv[d]]
                 and not (d1 & d2) and G.mul[d][d] not in H)
    else:
        fused = d1 == d2 and d1.bit_count() == 2 * h
    return (k5 > 9 * h, window.bit_count() == 2 * h, not (hbits & window),
            (hbits | window) == qmask, split, fused), window.bit_count()


def verify_structure(G: GroupTable, A: ElemSet, result: Classification) -> CheckReport:
    """Recompute the quotient decomposition a classification claims.

    For a single-coset result this checks Q = H.  For a two-cosets result it
    checks that the window HdH | H inv(d) H has size exactly 2|H|, misses H,
    and unions with H to exactly Q (hence |Q| = 3|H|), plus one shape item
    per route: the normalizer route (window splits as dH | inv(d)H) and the
    fused route (window is the single double coset HdH = H inv(d) H), with
    the inapplicable route reported as a skip, as ``_structure_clauses``
    evaluates them.  Raises ``ValueError`` for results of any other kind or
    with witness data inconsistent with A.
    """
    if result.kind not in (ClassKind.SINGLE_COSET, ClassKind.TWO_COSETS):
        raise ValueError(f"no structure to verify for a {result.kind.value} result")
    two = result.kind is ClassKind.TWO_COSETS
    clauses, wsize = _structure_clauses(G, A.bits, result.quotient.bits,
                                        result.subgroup, result.rep_a,
                                        result.rep_b if two else None)
    k5, h = 5 * A.size, result.subgroup.order
    if not two:
        return CheckReport("single-coset structure", tuple(map(
            CheckItem, _SINGLE_CLAUSES, clauses,
            (f"5|A| = {k5}, 3|H| = {3 * h}",
             "" if clauses[1] else "quotient differs from H"))))
    _, _, disjoint, union, split, fused = clauses
    return CheckReport("two-cosets structure", tuple(map(
        CheckItem, _TWO_COSET_CLAUSES, clauses,
        (f"5|A| = {k5}, 9|H| = {9 * h}",
         f"|HdH | Hd^-1H| = {wsize}, 2|H| = {2 * h}",
         "" if disjoint else "the window overlaps H",
         "" if union else "H | HdH | Hd^-1H differs from Q",
         {None: "skipped: the representative does not normalize the subgroup",
          True: "window splits as the disjoint pair dH | d^-1H",
          False: "normalizing d fails to split the window"}[split],
         {None: "skipped: the representative normalizes the subgroup",
          True: "window is the single double coset HdH = Hd^-1H of size 2|H|",
          False: "non-normalizing d fails to fuse the window"}[fused]))))


def check_sufficiency(G: GroupTable, H: Subgroup, a: int, b: int,
                      A: ElemSet) -> CheckReport:
    """Drive the converse direction from two-coset data for A inside aH | bH.

    Two routes are checked independently, each on its own hypotheses, with
    the inapplicable one reported as a skip rather than folded into the
    other:

    * the direct route: when 5|A| > 9|H| and the window HdH | H inv(d) H
      (d = inv(a)*b) has size exactly 2|H|, the quotient set must be small
      and must equal X^-1 X | Y^-1 Y | X^-1 d Y | Y^-1 d^-1 X for X, Y the
      parts of A pulled back into H.
    * the forced-window route: when 5|A| > 9|H| and |Q| <= 3|H|, the window
      is forced down to at most 2|H| — either d normalizes H, or HdH is a
      single inversion-closed double coset of size 2|H|.  When d normalizes
      H and d*d falls in H the set collapses into the single-coset picture
      for the doubled subgroup H | dH; in every other window-2|H| shape the
      quotient set must be exactly H | HdH | H inv(d) H.
    """
    amask = A.bits
    d, d1, d2 = _two_cosets(G, H, amask, a, b)
    cosets = left_cosets(G, H)
    k, h = amask.bit_count(), H.order
    wsize = (d1 | d2).bit_count()
    qmask = quotient_mask(G, amask)
    qk = qmask.bit_count()
    items = []

    if wsize == 2 * h and 5 * k > 9 * h:
        items.append(CheckItem("direct_smallness", 3 * qk < 5 * k,
                               f"3|Q| = {3 * qk}, 5|A| = {5 * k}"))
        x = left_translate_mask(G, G.inv[a], amask & cosets[a])
        y = left_translate_mask(G, G.inv[b], amask & cosets[b])
        xinv, yinv = invert_mask(G, x), invert_mask(G, y)
        expected = (product_mask(G, xinv, x)
                    | product_mask(G, yinv, y)
                    | product_mask(G, xinv, left_translate_mask(G, d, y))
                    | product_mask(G, yinv, left_translate_mask(G, G.inv[d], x)))
        items.append(CheckItem("direct_quotient_formula", expected == qmask,
                               "" if expected == qmask else
                               "combined coset products differ from Q"))
    else:
        items.append(CheckItem(
            "direct_route", None,
            "skipped: needs 5|A| > 9|H| and a window HdH | Hd^-1H of size 2|H|"))

    if 5 * k > 9 * h and qk <= 3 * h:
        items.append(CheckItem(
            "forced_window", wsize <= 2 * h,
            f"|HdH | Hd^-1H| = {wsize}, 2|H| = {2 * h}, d = {G.name_of(d)}"))
        if d in normalizer(G, H) and G.mul[d][d] in H:
            # A lies in aH | bH, which is the coset a(H | dH) as ad = b
            doubled = H.bits | cosets[d]
            ok = is_subgroup_mask(G, doubled) and 5 * k > 3 * doubled.bit_count()
            items.append(CheckItem(
                "single_coset_conclusion", ok,
                "A inside one coset of the doubled subgroup H | dH"))
        elif wsize == 2 * h:
            parts_ok = (H.bits | d1 | d2) == qmask
            items.append(CheckItem(
                "two_coset_conclusion", parts_ok,
                "Q = H | HdH | Hd^-1H" if parts_ok else
                "H | HdH | Hd^-1H differs from Q"))
    else:
        items.append(CheckItem(
            "forced_window_route", None,
            "skipped: needs 5|A| > 9|H| and |Q| <= 3|H|"))

    return CheckReport("two-coset sufficiency", tuple(items))


def construct_threshold_example(G: GroupTable, H: Subgroup, g: int) -> ElemSet:
    """Build the set A = g^-1 H | H | Hg witnessing sharpness of the 5/3 bound.

    Requires g to normalize H with g, g^2, g^3, g^4 all outside H; then
    |A| = 3|H| and the quotient set has size exactly 5|H|, so 3|Q| = 5|A|
    holds with equality and A falls just outside the small range.
    """
    if not 0 <= g < G.order:
        raise ValueError(f"element id {g} out of range for order {G.order}")
    if g not in normalizer(G, H):
        raise ValueError(f"{G.name_of(g)} does not normalize the subgroup")
    power = g
    for i in range(1, 5):
        if power in H:
            raise ValueError(
                f"power {i} of {G.name_of(g)} lands in the subgroup; "
                "the three cosets would collapse")
        power = G.mul[power][g]
    # g normalizes H, so the right coset Hg is the left coset gH
    cosets = left_cosets(G, H)
    amask = cosets[G.inv[g]] | H.bits | cosets[g]
    if amask.bit_count() != 3 * H.order:
        raise RuntimeError("threshold construction produced overlapping cosets")
    if 3 * quotient_mask(G, amask).bit_count() != 5 * amask.bit_count():
        raise RuntimeError("threshold construction missed the exact 5/3 ratio")
    return ElemSet(G.order, amask)


@dataclass(frozen=True, slots=True)
class StabilityDiagnostics:
    """Diagnostics around the heavily-represented part of a quotient set.

    ``heavy`` is the set of quotients with representation count above
    |Q| - |A|, ``span`` the subgroup it generates, and ``saturated`` the
    product set A * span.  The stability report always applies; the
    representation-count gap bounds and the identification of span with the
    fully-represented quotients are only promised when the set absorbs its
    span (saturated == A) and the quotient set is small, which ``in_scope``
    records.  Out-of-scope values are still reported for inspection.
    """

    quotient: ElemSet
    heavy: ElemSet
    span: Subgroup
    saturated: ElemSet
    stability: CheckReport
    in_scope: bool
    gap_low: int
    gap_high: int
    gap_satisfied: bool
    full_count_matches_span: bool

    @property
    def ok(self) -> bool:
        if not self.stability.ok:
            return False
        if self.in_scope:
            return self.gap_satisfied and self.full_count_matches_span
        return True


def stability_diagnostics(G: GroupTable, A: ElemSet) -> StabilityDiagnostics:
    if A.n != G.order:
        raise ValueError(f"set is over order {A.n}, group has order {G.order}")
    amask = A.bits
    if not amask:
        raise ValueError("cannot analyze the empty set")
    k = amask.bit_count()
    qmask = quotient_mask(G, amask)
    qk = qmask.bit_count()
    counts = rep_counts_quotient_mask(G, amask, amask)
    threshold = qk - k
    heavy_bits = 0
    full_bits = 0
    for g in range(G.order):
        c = counts[g]
        if c > threshold:
            heavy_bits |= 1 << g
        if c == k:
            full_bits |= 1 << g
    span_bits = subgroup_closure_mask(G, heavy_bits)
    sat_bits = product_mask(G, amask, span_bits)
    items = []

    if heavy_bits:
        hq = product_mask(G, heavy_bits, qmask)
        qh = product_mask(G, qmask, heavy_bits)
        items.append(CheckItem("heavy_times_quotient", hq == qmask,
                               "" if hq == qmask else "heavy part moves Q"))
        items.append(CheckItem("quotient_times_heavy", qh == qmask,
                               "" if qh == qmask else "heavy part moves Q"))
    else:
        items.append(CheckItem("heavy_times_quotient", None,
                               "skipped: the heavy part is empty"))
        items.append(CheckItem("quotient_times_heavy", None,
                               "skipped: the heavy part is empty"))
    sq = product_mask(G, span_bits, qmask)
    qs = product_mask(G, qmask, span_bits)
    items.append(CheckItem("span_times_quotient", sq == qmask,
                           "" if sq == qmask else "span moves Q"))
    items.append(CheckItem("quotient_times_span", qs == qmask,
                           "" if qs == qmask else "span moves Q"))
    sat_q = quotient_mask(G, sat_bits)
    fqf = product_mask(G, span_bits, product_mask(G, qmask, span_bits))
    items.append(CheckItem("saturated_quotient_identity", sat_q == fqf,
                           "" if sat_q == fqf else
                           "quotient of the saturated set differs from span*Q*span"))
    items.append(CheckItem("saturated_quotient", sat_q == qmask,
                           "" if sat_q == qmask else
                           "saturating A changes its quotient set"))
    stability = CheckReport("quotient stability", tuple(items))

    in_scope = sat_bits == amask and 3 * qk < 5 * k
    gap_low = 2 * k - qk
    gap_high = qk - k
    gap_ok = all(gap_low <= counts[g] <= gap_high
                 for g in ElemSet(G.order, qmask) if counts[g] < k)
    span = Subgroup(ElemSet(G.order, span_bits), span_bits.bit_count())

    return StabilityDiagnostics(
        quotient=ElemSet(G.order, qmask),
        heavy=ElemSet(G.order, heavy_bits),
        span=span,
        saturated=ElemSet(G.order, sat_bits),
        stability=stability,
        in_scope=in_scope,
        gap_low=gap_low,
        gap_high=gap_high,
        gap_satisfied=gap_ok,
        full_count_matches_span=full_bits == span_bits,
    )
