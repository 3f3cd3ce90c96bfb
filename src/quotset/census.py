"""Exhaustive, symmetry-reduced verification sweeps over a whole group.

Quotient sets are invariant under left translation of the scanned set, so
the sweeps enumerate one representative per translation orbit: a subset
containing the identity is canonical when it is minimal, as a bitmask,
among its translates that contain the identity.  Orbit sizes are recovered
from translation stabilizers, so the reports still account for every subset
of the group.

``classification_census`` re-derives the coset structure of every canonical
set with a small quotient set and, for the remaining sets, confirms that
neither coset picture's hypotheses hold for any subgroup; each finding is
reported as a violation rather than asserted, so a sweep can surface a
counterexample instead of crashing.  A small set costs one picture search
and one run of the clause evaluator that ``verify_structure`` formats.
``structure_scan`` does the same for the bounded-representative structure
conjecture: every canonical set whose quotient set is within the range for
``max_reps`` representatives must admit a witness subgroup.

Both sweeps read one kernel, ``_canonical_masks``, which runs the canonical
test and the quotient set in the same pass: every translate inv(a)*A for a
in A either beats A (not canonical), equals it (a stabilizes A), or joins
the quotient set.  It reads the group's row tables
(``GroupTable.action_tables``): a mask is three chunks of w = ceil(order/3)
bits, and the rows give inv(a)*X for every chunk value X and every a at
once.  The kernel walks the masks in blocks that share their two high
chunks, merges those chunks' rows once per block, and so pays two lookups
and one OR per translate.

Before any translate, a block drops in bulk the masks it can prove are not
canonical.  Masks compare as integers, so a canonical A has
max(inv(a)*A) >= max(A) for every a in A: a translate whose elements all
lie below A's top element is a smaller mask.  In a block whose high chunks
are not empty that top element h is fixed, and the merged rows tell for
each a whether the high chunks alone already reach h; where they do not, a
per-partition table (``_prefilter_tables``) gives, as one bitset over the
chunk-0 values, the values that do reach it or that leave a out of A.
ANDing those bitsets leaves about one mask in five at orders 16-18, and the
translate loop still decides each survivor.

Multi-process sweeps partition the subsets by their membership pattern on
the lowest non-identity ids and merge the partial reports in a fixed order,
so the rendered output is identical for every job count.  Groups below
``_POOL_MIN_ORDER`` are swept in process whatever the job count, because
starting a worker pool costs more than their whole sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import or_

from .classify import (
    _SINGLE_CLAUSES,
    _TWO_COSET_CLAUSES,
    _coset_picture,
    _picture_candidates,
    _structure_clauses,
    check_sufficiency,
)
from .groups import GroupTable, build_group
from .reports import CheckItem, CheckReport
from .setops import ElemSet, left_translate_mask, product_mask, quotient_mask
from .subgroups import Subgroup, all_subgroups, left_cosets, normalizer

__all__ = [
    "DEFAULT_CENSUS_CAP",
    "HARD_CENSUS_CAP",
    "check_sweep_cap",
    "check_sizes",
    "canonical_form",
    "iter_canonical_sets",
    "CensusViolation",
    "SizeRow",
    "CensusReport",
    "classification_census",
    "StructureWitness",
    "find_structure_witness",
    "ScanReport",
    "structure_scan",
]

#: Sweeps refuse groups beyond this order unless explicitly overridden.
DEFAULT_CENSUS_CAP = 24

#: No override reaches past this.  By extrapolation (no order-32 census has
#: run), its 2^31 masks take about 4-10 minutes at jobs 2 at the 3.5-8.5 M
#: masks/s that the order-24 census-deep benchmark measures on a shared
#: 2-core host whose speed varies about 2x (medians of four ten-run series).
HARD_CENSUS_CAP = 32

#: Groups below this order are swept in process at every job count: there a
#: worker pool costs more than it saves.  Census times at jobs 1 / jobs 2,
#: best of three to five runs in process on 2 cores: `cyclic 17` 0.020 /
#: 0.044 s, order-18 groups 0.04-0.05 s either way, `cyclic 19` 0.067 /
#: 0.057 s.
_POOL_MIN_ORDER = 18


def canonical_form(G: GroupTable, A: ElemSet) -> ElemSet:
    """The least left translate of A containing the identity, as a bitmask."""
    if A.n != G.order:
        raise ValueError(f"set is over order {A.n}, group has order {G.order}")
    amask = A.bits
    if not amask:
        raise ValueError("the empty set has no canonical form")
    return ElemSet(G.order, min(left_translate_mask(G, G.inv[a], amask) for a in A))


def check_sizes(G: GroupTable, sizes) -> tuple[int, int]:
    """The size range ``(lo, hi)`` a census of G would sweep.

    ``None`` means every size; raises ValueError for a range G cannot hold.
    """
    lo, hi = (1, G.order) if sizes is None else sizes
    if not 1 <= lo <= hi <= G.order:
        raise ValueError(
            f"size range must satisfy 1 <= lo <= hi <= {G.order}, got {sizes!r}")
    return lo, hi


def iter_canonical_sets(G: GroupTable, sizes=None):
    """Yield the canonical representative of every translation orbit, ascending,
    by testing each mask with ``canonical_form``: a check for the sweep kernel,
    ``_canonical_masks``, that shares none of its code."""
    lo, hi = check_sizes(G, sizes)
    for m in range(1, 1 << G.order, 2):
        A = ElemSet(G.order, m)
        if lo <= A.size <= hi and canonical_form(G, A).bits == m:
            yield A


def check_sweep_cap(order: int, cap: int | None, allow_big: bool) -> None:
    """Raise ValueError if the sweeps would refuse a group of this order
    under these caps."""
    if cap is None:
        cap = DEFAULT_CENSUS_CAP
    if order > HARD_CENSUS_CAP:
        raise ValueError(
            f"order {order} exceeds the hard sweep cap {HARD_CENSUS_CAP}")
    if order > cap and not allow_big:
        raise ValueError(
            f"order {order} exceeds the sweep cap {cap}; "
            "pass allow_big=True (CLI: --i-know-this-is-big) to proceed anyway")


def _sweep_partitions(G: GroupTable, jobs: int, partition, *args) -> list:
    """``partition(G, subgroups, *args, fixed_width, pattern)`` for every
    partition of the masks, in partition order.

    With more than one job, and a group of order at least
    ``_POOL_MIN_ORDER``, each partition runs in a worker process, which
    rebuilds the group from its spec.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    b = (min((jobs - 1).bit_length(), G.order - 1)
         if G.order >= _POOL_MIN_ORDER else 0)
    if b == 0:
        return [partition(G, all_subgroups(G), *args, 0, 0)]
    # imported here, so that in-process sweeps never load it (about 1 MB)
    import multiprocessing
    tasks = [(partition, G.spec, args, b, p) for p in range(1 << b)]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(_partition_task, tasks)


def _partition_task(task):
    partition, spec, args, fixed_width, pattern = task
    G = build_group(spec)
    return partition(G, all_subgroups(G), *args, fixed_width, pattern)


# ---------------------------------------------------------------------------
# classification census


@dataclass(frozen=True, slots=True)
class CensusViolation:
    """A canonical set on which a re-derived law failed, with the stage named."""

    subset: ElemSet
    kind: str      # "necessity", "structure", or "sufficiency"
    detail: str


@dataclass(frozen=True, slots=True)
class SizeRow:
    """Extremal summary for one set size: the smallest quotient set seen."""

    size: int
    min_quotient: int
    extremal: ElemSet
    subsets: int   # all subsets of this size, counted through orbit sizes

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "min_quotient": self.min_quotient,
            "extremal": list(self.extremal),
            "subsets": self.subsets,
        }


@dataclass(frozen=True, slots=True)
class CensusReport:
    group_spec: str
    order: int
    size_lo: int
    size_hi: int
    subsets_scanned: int
    canonical_classes: int
    violations: tuple[CensusViolation, ...]
    by_size: tuple[SizeRow, ...]
    runtime_seconds: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "group": self.group_spec,
            "order": self.order,
            "sizes": {"lo": self.size_lo, "hi": self.size_hi},
            "subsets_scanned": self.subsets_scanned,
            "canonical_classes": self.canonical_classes,
            "violations": [
                {"subset": list(v.subset), "kind": v.kind, "detail": v.detail}
                for v in self.violations
            ],
            "by_size": [row.to_dict() for row in self.by_size],
        }


def _prefilter_tables(G: GroupTable, w: int) -> list:
    """``need[h][a]``: the chunk-0 values c0, as a bitset (bit c0), for
    which a does not rule out a set A whose highest element is h.

    a rules A out when a is in A and every element of inv(a)*A lies below
    h.  This table covers the chunk-0 part of A, the elements that c0
    marks: for a in chunk 0 it holds the c0 without a and the c0 that hold
    some x with inv(a)*x >= h; for a in the high chunks it holds only the
    latter.  Entries for h < w are never read.
    """
    n, mul = G.order, G.mul
    size = 1 << w
    full = (1 << size) - 1
    lack = [sum(1 << c0 for c0 in range(size) if not c0 >> x & 1)
            for x in range(w)]  # the c0 without x
    need = [[0] * n for _ in range(n)]
    for a in range(n):
        low = lack[a] if a < w else 0
        below = 1  # the c0 whose every x has inv(a)*x < h
        for h in range(n):
            need[h][a] = low | full ^ below
            x = mul[a][h]  # inv(a)*x = h
            if x < w:
                below |= below << (1 << x)
    return need


def _block_survivors(cand: int, m1: int, r12: list, elems, need: list) -> int:
    """The chunk-0 values in bitset ``cand`` that may make ``m1 | c0``
    canonical, for a block whose high chunks ``m1`` are not empty.

    Masks compare as integers, so a canonical A has max(inv(a)*A) >= h =
    max(A) for every a in A, and in this block h is the top bit of m1.
    inv(a)*A is ``r0[a] | r12[a]``: when ``r12[a]`` already reaches h, a
    rules nothing out, and otherwise the chunk-0 part must, which
    ``need[h][a]`` says for each c0.  ``elems`` holds the high elements of
    A and every non-identity element of chunk 0.
    """
    h = m1.bit_length() - 1
    top, row = 1 << h, need[h]
    for a in elems:
        if r12[a] < top:
            cand &= row[a]
    return cand


def _canonical_masks(G: GroupTable, lo: int, hi: int, fixed_width: int,
                     pattern: int, visited: list):
    """Yield ``(m, k, qmask, stab)`` for every canonical mask of a partition.

    The partition holds the masks with the identity bit set and the next
    ``fixed_width`` bits equal to ``pattern``; only sizes k in lo..hi are
    visited, and once the generator is exhausted ``visited[0]`` has grown by
    the number of masks visited.  Every left translate inv(a)*A for a in A
    both feeds the minimality test and joins the quotient set, so ``qmask``
    is the quotient set of a canonical mask and ``stab`` the number of a
    with inv(a)*A = A.  The masks come in ascending order.

    Before that test, each block whose high chunks are not empty drops, in
    bulk, the masks that ``_block_survivors`` proves are not canonical:
    about four in five at orders 16-18.  A mask is dropped only when some a
    in A puts every element of inv(a)*A below A's top element, and then
    inv(a)*A < A.  The translate loop still decides every mask that
    survives.
    """
    t = G.action_tables()
    w, rows = t.width, t.rows
    (rows0, rows1, rows2), (elems0, elems1, elems2) = rows, t.elems
    fixed = (1 << 1 + fixed_width) - 1
    base = 1 | pattern << 1

    def values(c):
        # the values of chunk c that agree with the partition's fixed bits
        size = len(rows[c])
        f = fixed >> c * w & size - 1
        return [v for v in range(size) if v & f == base >> c * w & f]

    # A (c2, c1) block holds the masks m1 | c0 for every chunk-0 value c0;
    # block0[s] is the bitset of the c0 that put a block whose high chunks
    # hold s elements in the size range (every c0 for a full-range sweep).
    vals0 = values(0)
    block0 = [sum(1 << c0 for c0 in vals0 if lo <= s + c0.bit_count() <= hi)
              for s in range(2 * w + 1)]
    need = _prefilter_tables(G, w)
    ids0 = elems0[-1]
    count = 0
    for c2 in values(2):
        r2, e2, m2 = rows2[c2], elems2[c2], c2 << 2 * w
        for c1 in values(1):
            m1 = m2 | c1 << w
            cand = block0[m1.bit_count()]
            if not cand:
                continue
            count += cand.bit_count()
            # one merged row per block: a translate is r0[a] | r12[a]
            r12, e12 = list(map(or_, rows1[c1], r2)), elems1[c1] + e2
            if m1:
                cand = _block_survivors(cand, m1, r12, e12 + ids0, need)
            while cand:
                low = cand & -cand
                cand ^= low
                c0 = low.bit_length() - 1
                m = m1 | c0
                r0 = rows0[c0]
                qmask = m
                stab = 1
                # chunk 0's elements first, with no joined list: about half
                # of all masks fail on the first of them
                for a in elems0[c0]:
                    t = r0[a] | r12[a]
                    if t < m:
                        break
                    if t == m:
                        stab += 1
                    else:
                        qmask |= t
                else:
                    for a in e12:
                        t = r0[a] | r12[a]
                        if t < m:
                            break
                        if t == m:
                            stab += 1
                        else:
                            qmask |= t
                    else:
                        yield m, m.bit_count(), qmask, stab
    visited[0] += count


def _census_partition(G: GroupTable, subgroups, lo, hi, fixed_width, pattern):
    """Sweep the subsets whose low non-identity bits equal ``pattern``."""
    order = G.order
    # picture candidates, for the sizes that have any
    cands = {k: c for k in range(lo, hi + 1)
             if any(c := _picture_candidates(G, subgroups, k))}

    scanned = [0]
    classes = 0
    violations = []
    best: dict[int, list] = {}

    for m, k, qmask, stab in _canonical_masks(G, lo, hi, fixed_width, pattern,
                                               scanned):
        classes += 1
        qk = qmask.bit_count()

        row = best.get(k)
        if row is None:
            row = best[k] = [qk, m, 0]
        elif (qk, m) < (row[0], row[1]):
            row[0], row[1] = qk, m
        row[2] += order // stab

        picture = _coset_picture(G, m, *cands[k]) if k in cands else None
        if 3 * qk >= 5 * k:
            # The set is not small, so no subgroup may satisfy either
            # picture's hypotheses.
            if picture is not None:
                H, _, b = picture
                violations.append((m, "sufficiency",
                                   f"{'one' if b is None else 'two'}-coset "
                                   f"hypotheses hold for a subgroup of order "
                                   f"{H.order} but 3|Q| = {3 * qk} is not "
                                   f"below 5|A| = {5 * k}"))
            continue
        if picture is None:
            violations.append((m, "necessity",
                               f"3|Q| = {3 * qk} is below 5|A| = {5 * k} "
                               "but neither coset picture applies"))
            continue
        H, a, b = picture
        clauses, _ = _structure_clauses(G, m, qmask, H, a, b)
        if False in clauses:
            names = _SINGLE_CLAUSES if b is None else _TWO_COSET_CLAUSES
            violations.append((m, "structure", "; ".join(
                name for name, ok in zip(names, clauses) if ok is False)))
        if b is not None:
            bad = check_sufficiency(G, H, a, b, ElemSet(order, m)).failures()
            if bad:
                violations.append((m, "sufficiency",
                                   "; ".join(item.name for item in bad)))

    return {"scanned": scanned[0], "classes": classes,
            "violations": violations, "best": best}


def classification_census(G: GroupTable, sizes=None, jobs: int = 1,
                          cap: int | None = None,
                          allow_big: bool = False) -> CensusReport:
    """Sweep every subset in the size range and re-derive the classification.

    Returns a report whose ``violations`` field is empty exactly when every
    small-quotient set fit one of the two coset pictures, every claimed
    decomposition checked out, and no not-small set satisfied either
    picture's hypotheses.  A small set gets ``classify``'s picture search
    and the clause evaluator of ``verify_structure``, which recomputes its
    quotient set.
    """
    start = time.perf_counter()
    check_sweep_cap(G.order, cap, allow_big)
    lo, hi = check_sizes(G, sizes)
    partials = _sweep_partitions(G, jobs, _census_partition, lo, hi)

    best: dict[int, list] = {}
    for partial in partials:
        for k, row in partial["best"].items():
            cur = best.setdefault(k, [row[0], row[1], 0])
            if (row[0], row[1]) < (cur[0], cur[1]):
                cur[0], cur[1] = row[0], row[1]
            cur[2] += row[2]
    violations = tuple(
        CensusViolation(ElemSet(G.order, m), kind, detail)
        for m, kind, detail in
        sorted(v for partial in partials for v in partial["violations"]))
    by_size = tuple(SizeRow(k, best[k][0], ElemSet(G.order, best[k][1]), best[k][2])
                    for k in sorted(best))
    return CensusReport(
        group_spec=G.spec,
        order=G.order,
        size_lo=lo,
        size_hi=hi,
        subsets_scanned=sum(p["scanned"] for p in partials),
        canonical_classes=sum(p["classes"] for p in partials),
        violations=violations,
        by_size=by_size,
        runtime_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# structure-witness scan


@dataclass(frozen=True, slots=True)
class StructureWitness:
    """A subgroup and representative set certifying the bounded-rep structure.

    ``reps`` holds the smallest element of the scanned set in each met left
    coset of ``subgroup``.  ``passed`` holds each clause, in ``checks``
    order, as the search evaluated it: None for the structural shape that
    does not apply, and none of them False.  The sizes are the ones the
    clauses compared: |A|, |Q|, the coset cover |A0 H| and the sandwich
    |H A0^-1 A0 H|.

    ``checks`` formats the clauses as a report, covering both the witness
    hypotheses and the derived description of the quotient set.  It is
    built on each read, from the stored values alone; the search never
    builds it.
    """

    subgroup: Subgroup
    reps: ElemSet
    max_reps: int
    set_size: int
    quotient_size: int
    cover_size: int
    sandwich_size: int
    passed: tuple[bool | None, ...]

    @property
    def checks(self) -> CheckReport:
        (limit, normal, window, within, disjoint, dense, product, size,
         bracket) = self.passed
        n, h, mc = self.max_reps, self.subgroup.order, self.reps.size
        k, ch = self.set_size, self.cover_size
        target = (2 * mc - 1) * h
        if window is None:
            normal_detail = "all representatives share one coset of the normalizer"
            window_detail = "skipped: the representatives share a normalizer coset"
        else:
            normal_detail = "skipped: representatives span several normalizer cosets"
            window_detail = (f"|H A0^-1 A0 H| = {self.sandwich_size}, "
                             f"(2|A0|-1)|H| = {target}")
        return CheckReport("structure witness checks", (
            CheckItem("reps_within_limit", limit, f"|A0| = {mc}, limit {n}"),
            CheckItem("normalizer_shape", normal, normal_detail),
            CheckItem("window_shape", window, window_detail),
            CheckItem("set_within_rep_cosets", within, ""),
            CheckItem("rep_cosets_disjoint", disjoint,
                      f"|A0 H| = {ch}, |A0||H| = {mc * h}"),
            CheckItem("density_lower_bound", dense,
                      f"(2n+1)|A| = {(2 * n + 1) * k}, "
                      f"(n+1)(2|A0|-1)|H| = {(n + 1) * target}"),
            CheckItem("quotient_product_match", product,
                      "" if product else "H A0^-1 A0 H differs from the quotient set"),
            CheckItem("quotient_size_match", size,
                      f"|Q| = {self.quotient_size}, (2|A0|-1)|H| = {target}"),
            CheckItem("density_bracket", bracket,
                      f"|A| = {k}, |A0 H| = {ch}, slack term n|H| = {n * h}"),
        ))


def _hypothesis_subgroups(G: GroupTable, amask: int, n: int, cands):
    """Yield ``(H, mc, rep_bits, cover, sandwich, window)`` for each subgroup
    H, in order, that A meets in mc <= n left cosets with
    (2n+1)|A| > (n+1)(2mc-1)|H|.  ``cands`` holds ``(H, left_cosets(G, H))``
    pairs.

    ``rep_bits`` marks A0, the smallest element of A in each met coset.  The
    rest depends only on H and A0, so it is computed once per pair and kept
    in ``G._rep_products``: ``cover`` is the coset cover A0 H, ``sandwich``
    is H A0^-1 A0 H, and ``window`` is the window-shape clause.  That is
    None when A0 lies in one left coset of the normalizer of H (the
    normalizer shape holds), and otherwise whether the sandwich collapses to
    (2mc-1)|H| elements; so a structural shape holds exactly when
    ``window`` is not False.
    """
    k = amask.bit_count()
    memo = G._rep_products
    for H, cosets in cands:
        reps = []
        rep_bits = 0
        remaining = amask
        while remaining and len(reps) < n:
            x = (remaining & -remaining).bit_length() - 1
            reps.append(x)
            rep_bits |= 1 << x
            remaining &= ~cosets[x]
        mc = len(reps)
        if remaining or (2 * n + 1) * k <= (n + 1) * (2 * mc - 1) * H.order:
            continue
        entry = memo.get((H.bits, rep_bits))
        if entry is None:
            sandwich = _sandwich(G, H, rep_bits)
            norm_bits = normalizer(G, H).bits
            x0inv = G.inv[reps[0]]
            window = (None if all(norm_bits >> G.mul[x0inv][x] & 1 for x in reps[1:])
                      else sandwich.bit_count() == (2 * mc - 1) * H.order)
            entry = memo[H.bits, rep_bits] = (
                product_mask(G, rep_bits, H.bits), sandwich, window)
        yield H, mc, rep_bits, *entry


def _sandwich(G: GroupTable, H: Subgroup, rep_bits: int) -> int:
    """The two-sided sandwich H A0^-1 A0 H."""
    return product_mask(G, H.bits,
                        product_mask(G, quotient_mask(G, rep_bits), H.bits))


def find_structure_witness(G: GroupTable, A: ElemSet, max_reps: int, *,
                           _qmask: int | None = None,
                           _candidates=None) -> StructureWitness | None:
    """Search for a subgroup witnessing the bounded-representative structure.

    A witness subgroup H admits at most ``max_reps`` met left cosets and
    satisfies the density bound (2n+1)|A| > (n+1)(2|A0|-1)|H| for
    n = max_reps and A0 the representatives.  The structural shape is the
    two-sided sandwich H A0^-1 A0 H collapsing to exactly (2|A0|-1)|H|
    elements, which comes in two sub-shapes recorded as one pass and one
    skip item: either every representative shares one left coset of the
    normalizer of H (the sandwich then equals A0^-1 A0 H), or the sandwich
    collapses through fused double cosets without any normalizing — the
    shape a two-coset set such as {e, r, s, rs} in dihedral 4 needs.  The
    returned witness additionally verified the implied description of the
    quotient set: Q = H A0^-1 A0 H with |Q| = (2|A0|-1)|H|, plus the size
    bracket tying |A0 H| to |A|.  Every recorded clause depends only on the
    met cosets, not on which representative is taken from each (swapping a
    rep multiplies the sandwich by subgroup factors that H absorbs), so the
    minimal representatives lose nothing.

    Each clause is evaluated once per candidate subgroup, as a plain bool,
    from the products that ``_hypothesis_subgroups`` memoises per
    (H, A0); the first subgroup with no failed clause is the witness, and
    its report is formatted only when ``checks`` is read.

    ``_qmask`` and ``_candidates`` are for the scan, which already holds the
    quotient set of A and the ``(H, left_cosets(G, H))`` pairs to try in
    place of every subgroup of G; both are trusted as given.
    """
    if A.n != G.order:
        raise ValueError(f"set is over order {A.n}, group has order {G.order}")
    amask = A.bits
    if not amask:
        raise ValueError("cannot scan the empty set")
    n = max_reps
    if n < 1:
        raise ValueError(f"max_reps must be at least 1, got {n}")
    if _candidates is None:
        _candidates = ((H, left_cosets(G, H)) for H in all_subgroups(G))
    k = amask.bit_count()
    qmask = quotient_mask(G, amask) if _qmask is None else _qmask
    qk = qmask.bit_count()

    for H, mc, rep_bits, cover, sandwich, window in _hypothesis_subgroups(
            G, amask, n, _candidates):
        h = H.order
        ch = cover.bit_count()
        target = (2 * mc - 1) * h
        passed = (  # in StructureWitness.checks order
            mc <= n,
            True if window is None else None,
            window,
            amask & ~cover == 0,
            ch == mc * h,
            True,
            sandwich == qmask,
            qk == target,
            k <= ch and (2 * n + 1) * ch < (2 * n + 1) * k + n * h,
        )
        if False not in passed:
            return StructureWitness(H, ElemSet(G.order, rep_bits), n, k, qk, ch,
                                    sandwich.bit_count(), passed)
    return None


def _structure_hypotheses_exist(G: GroupTable, cands, amask: int, n: int) -> bool:
    """Whether any of the ``(H, left cosets)`` pairs satisfies the witness
    hypotheses for this set.

    Hypotheses means the forward-direction inputs only: at most n met
    cosets, the density bound, and one of the two structural shapes
    (normalizer-sharing representatives, or the sandwich H A0^-1 A0 H
    collapsing to (2|A0|-1)|H| elements).
    """
    return any(window is not False
               for *_, window in _hypothesis_subgroups(G, amask, n, cands))


@dataclass(frozen=True, slots=True)
class ScanReport:
    group_spec: str
    order: int
    max_reps: int
    subsets_scanned: int
    canonical_classes: int
    in_range: int
    witnesses_found: int
    counterexamples: tuple[ElemSet, ...]
    sufficiency_checked: int
    sufficiency_failures: tuple[ElemSet, ...]
    runtime_seconds: float

    @property
    def fatal(self) -> bool:
        """Counterexamples at max_reps <= 2 contradict settled structure results."""
        return bool(self.counterexamples) and self.max_reps <= 2

    def to_dict(self) -> dict:
        return {
            "group": self.group_spec,
            "order": self.order,
            "max_reps": self.max_reps,
            "subsets_scanned": self.subsets_scanned,
            "canonical_classes": self.canonical_classes,
            "in_range": self.in_range,
            "witnesses_found": self.witnesses_found,
            "counterexamples": [list(c) for c in self.counterexamples],
            "sufficiency_checked": self.sufficiency_checked,
            "sufficiency_failures": [list(c) for c in self.sufficiency_failures],
        }


def _scan_partition(G: GroupTable, subgroups, max_reps, fixed_width, pattern):
    order = G.order
    n = max_reps

    # Both searches below accept a subgroup H only if A meets mc <= n left
    # cosets of H and (2n+1)k > (n+1)(2mc-1)|H|, for k = |A|.  A meets at
    # least c = ceil(k/|H|) cosets and (2mc-1)|H| grows with mc, so H can
    # pass only when (n+1)(2c-1)|H| < (2n+1)k.  (That also gives c <= n,
    # since k <= c|H|.)  The other subgroups fail for every set of size k
    # and are dropped up front; the subgroup order is kept, so the first
    # witness found does not change.
    cands = [[(H, left_cosets(G, H)) for H in subgroups
              if (n + 1) * (2 * -(-k // H.order) - 1) * H.order < (2 * n + 1) * k]
             for k in range(order + 1)]

    scanned = [0]
    classes = 0
    in_range_count = 0
    witnesses = 0
    checked = 0
    counterexamples = []
    suff_failures = []

    for m, k, qmask, _ in _canonical_masks(G, 1, order, fixed_width, pattern,
                                            scanned):
        classes += 1
        qk = qmask.bit_count()

        in_range = (n + 1) * qk < (2 * n + 1) * k
        if in_range:
            in_range_count += 1
            if find_structure_witness(G, ElemSet(order, m), n, _qmask=qmask,
                                      _candidates=cands[k]) is not None:
                # A witness passed mc <= n, the density bound and one of the
                # two shapes, which are exactly the hypotheses; and in range
                # implies |Q| < 2|A|.  So the set counts as checked, and the
                # hypothesis search would only repeat the witness search.
                witnesses += 1
                checked += 1
                continue
            counterexamples.append(m)
        if 2 * k > qk and _structure_hypotheses_exist(G, cands[k], m, n):
            checked += 1
            if not in_range:
                suff_failures.append(m)

    return {"scanned": scanned[0], "classes": classes, "in_range": in_range_count,
            "witnesses": witnesses, "counterexamples": counterexamples,
            "checked": checked, "suff_failures": suff_failures}


def structure_scan(G: GroupTable, max_reps: int, jobs: int = 1,
                   cap: int | None = None, allow_big: bool = False) -> ScanReport:
    """Sweep every subset of the group for bounded-representative structure.

    Each canonical set whose quotient set is in range — meaning
    (n+1)|Q| < (2n+1)|A| for n = max_reps — must admit a witness subgroup;
    sets admitting none are reported as counterexamples.  Independently,
    every set with |Q| < 2|A| that satisfies the witness hypotheses is
    cross-checked to actually be in range, so the hypotheses' sufficiency
    is exercised on the same sweep.
    """
    start = time.perf_counter()
    check_sweep_cap(G.order, cap, allow_big)
    if max_reps < 1:
        raise ValueError(f"max_reps must be at least 1, got {max_reps}")
    partials = _sweep_partitions(G, jobs, _scan_partition, max_reps)

    return ScanReport(
        group_spec=G.spec,
        order=G.order,
        max_reps=max_reps,
        subsets_scanned=sum(p["scanned"] for p in partials),
        canonical_classes=sum(p["classes"] for p in partials),
        in_range=sum(p["in_range"] for p in partials),
        witnesses_found=sum(p["witnesses"] for p in partials),
        counterexamples=tuple(
            ElemSet(G.order, m) for m in
            sorted(m for p in partials for m in p["counterexamples"])),
        sufficiency_checked=sum(p["checked"] for p in partials),
        sufficiency_failures=tuple(
            ElemSet(G.order, m) for m in
            sorted(m for p in partials for m in p["suff_failures"])),
        runtime_seconds=time.perf_counter() - start,
    )
