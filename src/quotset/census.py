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
counterexample instead of crashing.  Every canonical set holds the identity
as its least element, so the picture search takes a = e and reads the
coset eH = H: a set can meet a picture's hypotheses only inside a
container, H for a single-coset candidate of its size or H | gH for a
two-coset candidate of its size.  Only the sets inside a container reach
the search, about one per small set: the sizes that G serves, and the
masks in one set built per partition (``_container_masks``).  A set outside
them all has no picture.  A small set costs that search and one run of the
clause evaluator that ``verify_structure`` formats.
``structure_scan`` does the same for the bounded-representative structure
conjecture: every canonical set whose quotient set is within the range for
``max_reps`` representatives must admit a witness subgroup.  The scan only
asks whether a witness exists, and it sweeps only the sets of at most |G|/2
elements.  A larger set A meets every translate Ag, so Q = G, and the scan
counts those sets per size instead: Burnside's count of their classes, and
G's density bound (n+1)|G| < (2n+1)|A| alone decides them.  Every swept set
with |Q| < 2|A| runs one walk over the proper subgroups
(``_witness_and_hypotheses``, which ``find_structure_witness`` runs over
every subgroup) that finds its witness and decides the witness hypotheses
together.

Both sweeps read one kernel, ``_canonical_masks``, which decides the
canonical test and builds the quotient set a block of masks at a time.  It
reads the group's row tables (``GroupTable.action_tables``): a mask is three
chunks of w = ceil(order/3) bits, and the rows give inv(a)*X for every chunk
value X and every a at once.  The kernel walks the masks in blocks that
share their two high chunks and merges those chunks' rows once per block,
so a translate inv(a)*A costs two lookups and one OR.

Masks compare as integers, so a canonical A has max(inv(a)*A) >= max(A)
for every a in A: a translate whose elements all lie below A's top element
h is a smaller mask.  In a block whose high chunks are not empty h is fixed,
and one pass over the merged rows (``_block_survivors``) drops in bulk the
masks that some a rules out this way.  A per-partition table
(``_prefilter_tables``) gives, as one bitset over the chunk-0 values, the
values that reach h or leave a out of A, and ANDing those bitsets leaves
about one mask in five at orders 16-18.  Every translate of a survivor
reaches h, so it can be at most A only when its top element is exactly h.
The same pass lists the a for which that can happen, and only those
translates are compared: about one in twenty of a canonical set's at order
20.  The quotient set is read from per-block tables, not gathered from
translates.

Multi-process sweeps partition the blocks by how many elements their two
high chunks hold: partition ``part`` of ``parts`` takes the blocks whose
count s has ``s % parts == part``, so each block's merged row and
prefilter are built by one partition only.  Every partition sweeps the
group the caller passed, which worker processes receive pickled.  The
partial reports are merged in a fixed order, so the rendered output is
identical for every job count.  There is one partition per job, up to the
machine's CPU count.  Groups below ``_POOL_MIN_ORDER`` are swept in
process whatever the job count, because starting a worker pool costs more
than their whole sweep.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, repeat
from math import comb
from operator import or_

from .classify import (
    _SINGLE_CLAUSES,
    _TWO_COSET_CLAUSES,
    _coset_picture,
    _picture_candidates,
    _structure_clauses,
    check_sufficiency,
)
from .groups import GroupTable
from .reports import CheckItem, CheckReport
from .setops import (ElemSet, invert_mask, product_mask, quotient_mask,
                     subgroup_closure_mask)
from .subgroups import Subgroup, all_subgroups, left_cosets, normalizer

__all__ = [
    "DEFAULT_CENSUS_CAP",
    "HARD_CENSUS_CAP",
    "check_sweep_cap",
    "check_sizes",
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

#: No override reaches past this.  By extrapolation, its 2^31 masks take
#: about 5-6 minutes at jobs 2 at the 6.1-7.6 M masks/s between the
#: quartiles of the order-24 census-deep benchmark's runs in BENCH_15.json
#: (seeds 0 and 7), on a shared 2-core host whose speed varies about 2x.
#: Order-32 censuses have run on that host: `dihedral 16` took 209 s at
#: jobs 2 (10.3 M masks/s), and 258 s before the picture search was limited
#: to sets inside a candidate container.
HARD_CENSUS_CAP = 32

#: Groups below this order are swept in process at every job count: there a
#: worker pool costs more than it saves.  Census times at jobs 1 / jobs 2,
#: best of three to five runs in process on 2 cores: `cyclic 17` 0.020 /
#: 0.044 s, order-18 groups 0.04-0.05 s either way, `cyclic 19` 0.067 /
#: 0.057 s.
_POOL_MIN_ORDER = 18


def check_sizes(order: int, sizes) -> tuple[int, int]:
    """The size range ``(lo, hi)`` a census of a group of this order would sweep.

    ``None`` means every size; raises ValueError for a range it cannot hold.
    """
    lo, hi = (1, order) if sizes is None else sizes
    if not 1 <= lo <= hi <= order:
        raise ValueError(
            f"size range must satisfy 1 <= lo <= hi <= {order}, got {sizes!r}")
    return lo, hi


def check_sweep_cap(order: int, allow_big: bool) -> None:
    """Raise ValueError if the sweeps would refuse a group of this order."""
    if order > HARD_CENSUS_CAP:
        raise ValueError(
            f"order {order} exceeds the hard sweep cap {HARD_CENSUS_CAP}")
    if order > DEFAULT_CENSUS_CAP and not allow_big:
        raise ValueError(
            f"order {order} exceeds the sweep cap {DEFAULT_CENSUS_CAP}; "
            "pass allow_big=True (CLI: --i-know-this-is-big) to proceed anyway")


def _sweep_partitions(G: GroupTable, jobs: int, partition, *args) -> list:
    """``partition(G, *args, part, parts)`` for every partition of the
    masks, in partition order.

    There is one partition per job, but no more than the machine has CPUs.
    With more than one, and a group of order at least ``_POOL_MIN_ORDER``,
    each partition runs in a worker process, on G as the pool pickles it.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    parts = min(jobs, os.cpu_count() or 1) if G.order >= _POOL_MIN_ORDER else 1
    if parts == 1:
        return [partition(G, *args, 0, 1)]
    # imported here, so that in-process sweeps never load it (about 1 MB)
    import multiprocessing
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=parts) as pool:
        return pool.starmap(partition, [(G, *args, part, parts)
                                        for part in range(parts)])


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
    latter.  Row h = order, which no element reaches, is the c0 without a
    alone.  Entries for h < w are never read.
    """
    n, mul = G.order, G.mul
    size = 1 << w
    full = (1 << size) - 1
    lack = [sum(1 << c0 for c0 in range(size) if not c0 >> x & 1)
            for x in range(w)]  # the c0 without x
    need = [[0] * n for _ in range(n + 1)]
    for a in range(n):
        low = lack[a] if a < w else 0
        below = 1  # the c0 whose every x has inv(a)*x < h
        for h in range(n):
            need[h][a] = low | full ^ below
            x = mul[a][h]  # inv(a)*x = h
            if x < w:
                below |= below << (1 << x)
        need[n][a] = low
    return need


def _block_survivors(cand: int, m1: int, r12: list, elems, need: list):
    """``(cand, ties, row)`` for the block of high chunks ``m1``: the
    chunk-0 values in bitset ``cand`` that may make ``m1 | c0`` canonical,
    and the a whose translate inv(a)*A may be at most A, for exactly the c0
    outside ``row[a]``.  ``elems`` holds the high elements of A and every
    non-identity element of chunk 0.

    Masks compare as integers, so a canonical A has max(inv(a)*A) >= h =
    max(A) for every a in A, and in a block whose high chunks are not empty
    h is the top bit of m1.  inv(a)*A is ``r0[a] | r12[a]``: when
    ``r12[a]`` already reaches h, a rules nothing out, and otherwise the
    chunk-0 part must, which ``need[h][a]`` says for each c0.  A translate
    that reaches past h is above A, so it ties only when ``r12[a]`` stays
    below bit h + 1 and c0 is outside ``need[h + 1][a]``.  The block with
    empty high chunks has no fixed h: nothing is dropped, every a is a tie
    candidate, and ``need[order]`` keeps only the c0 that hold a.
    """
    if not m1:
        return cand, elems, need[-1]
    h = m1.bit_length() - 1
    top, lim, row = 1 << h, 2 << h, need[h]
    ties = []
    for a in elems:
        t = r12[a]
        if t < lim:
            ties.append(a)
            if t < top:
                cand &= row[a]
    return cand, ties, need[h + 1]


def _subset_ors(rows: list, base: int) -> list:
    """Entry v is ``base`` ORed with ``rows[i]`` for every bit i of v."""
    table = [base]
    for r in rows:
        table += [q | r for q in table]
    return table


def _canonical_masks(G: GroupTable, lo: int, hi: int, part: int, parts: int,
                     visited: list):
    """Yield ``(m, k, qmask, stab)`` for every canonical mask of a partition.

    The partition holds the masks with the identity bit set whose two high
    chunks hold s elements with ``s % parts == part``; only sizes k in
    lo..hi are visited, and once the generator is exhausted ``visited[0]``
    has grown by the number of masks visited.  ``qmask`` is the quotient
    set of a canonical mask and ``stab`` the number of a in A with
    inv(a)*A = A.  The masks come in ascending order.

    Each (c2, c1) block is decided in bulk by ``_block_survivors``.  It
    drops the masks that some a in A proves not canonical by putting every
    element of inv(a)*A below A's top element h, about four in five at
    orders 16-18.  Every other translate reaches h, so it is above A unless
    its top element is exactly h, and only those ties are compared: for
    each tie candidate a, the kernel walks the survivors whose chunk-0 part
    keeps inv(a)*A below bit h + 1, drops a mask whose translate is smaller
    and counts a stabilizer where it is equal.  So ``stab`` stays 1 unless
    a translate equals A, and a canonical set pays no translate beyond its
    ties.

    The quotient set comes from tables.  With X0 the chunk-0 part of A and
    X12 the rest, Q is the union of X0^-1 X0, X12^-1 X12, and X12^-1 x and
    inv(x)*X12 for every x in X0.  The first term is a per-c0 table and the
    second one OR per block.  The rest is the OR of the block's symmetric
    rows over the x in c0, read from two subset tables, one per half of c0,
    built once per block that keeps a mask.  A canonical mask costs three
    lookups.
    """
    assert G.order <= HARD_CENSUS_CAP, f"order {G.order} is past the sweep cap"
    t = G.action_tables()
    w = t.width
    ((rows0, rows1, rows2),), ((elems0, elems1, elems2),) = t.rows, t.elems

    # A (c2, c1) block holds the masks m1 | c0 for every odd chunk-0 value
    # c0 (every mask holds the identity); block0[s] is the bitset of the c0
    # that put a block whose high chunks hold s elements in the size range,
    # and 0 for a block of another partition.
    block0 = [sum(1 << c0 for c0 in range(1, len(rows0), 2)
                  if lo <= s + c0.bit_count() <= hi) if s % parts == part else 0
              for s in range(2 * w + 1)]
    need = _prefilter_tables(G, w)
    ids0 = elems0[-1]
    pc0 = [c0.bit_count() for c0 in range(len(rows0))]
    # the quotient set's tables: q0[c0] = X0^-1 X0, and per high chunk the
    # symmetric rows, entry x of value v being inv(x)*Y and Y^-1 x for the
    # elements Y it marks; a block's tables split c0 at bit half
    q0 = [reduce(or_, map(r.__getitem__, e), r[0]) for r, e in zip(rows0, elems0)]
    sym1, sym2 = [[[r[x] | invert_mask(G, r[x]) for x in range(w)] for r in rc]
                  for rc in (rows1, rows2)]
    half = w // 2
    hm = (1 << half) - 1
    count = 0
    for c2 in range(len(rows2)):
        r2, e2, s2, m2 = rows2[c2], elems2[c2], sym2[c2], c2 << 2 * w
        for c1 in range(len(rows1)):
            m1 = m2 | c1 << w
            s = m1.bit_count()
            cand = block0[s]
            if not cand:
                continue
            count += cand.bit_count()
            # one merged row per block: a translate is r0[a] | r12[a]
            r12, e12 = list(map(or_, rows1[c1], r2)), elems1[c1] + e2
            cand, ties, row = _block_survivors(cand, m1, r12, e12 + ids0, need)
            if not cand:
                continue
            # compare only the translates that can tie with A
            stabs = {}
            for a in ties:
                ra = r12[a]
                walk = cand & ~row[a]
                while walk:
                    low = walk & -walk
                    walk ^= low
                    c0 = low.bit_length() - 1
                    t = rows0[c0][a] | ra
                    m = m1 | c0
                    if t < m:
                        cand ^= low
                    elif t == m:
                        stabs[c0] = stabs.get(c0, 1) + 1
            if not cand:
                continue
            # Q = q0[c0] | the block's X12^-1 X12 | its symmetric rows over c0
            s12 = list(map(or_, sym1[c1], s2))
            q_lo = _subset_ors(s12[:half], reduce(or_, map(r12.__getitem__, e12), 0))
            q_hi = _subset_ors(s12[half:], 0)
            while cand:
                low = cand & -cand
                cand ^= low
                c0 = low.bit_length() - 1
                qmask = q0[c0] | q_lo[c0 & hm] | q_hi[c0 >> half]
                yield m1 | c0, s + pc0[c0], qmask, stabs.get(c0, 1) if stabs else 1
    visited[0] += count


def _container_masks(cands: dict, order: int) -> set:
    """The masks that hold the identity and lie in a proper container of a
    size that container serves.

    ``cands`` maps each size k to its ``_picture_candidates``.  Every mask
    the kernel yields holds the identity, its least element, so
    ``_coset_picture`` takes a = e and reads cosets[e] = H: a set has a
    picture only inside H, for a single-coset candidate H of its size, or
    inside H | gH, for a two-coset candidate H of its size and a coset
    gH != H.  Those are the containers, each with the sizes it serves.  A
    set outside all of them has no picture; the window test stays in the
    search.  G, the one container that is not proper, serves exactly the
    sizes k with 5k > 3|G| (an index-2 H | gH = G serves only k > 0.9|G|),
    so the caller tests those sizes and the set leaves G out.
    """
    sizes: dict[int, set] = {}  # container mask -> the sizes it serves
    for k, (single, double) in cands.items():
        for H, _ in single:
            sizes.setdefault(H.bits, set()).add(k)
        for H, cosets in double:
            for g in dict.fromkeys(cosets):  # each left coset once
                if g != H.bits:
                    sizes.setdefault(H.bits | g, set()).add(k)
    sizes.pop((1 << order) - 1, None)  # G, whose sizes the caller tests
    inside = set()
    for box, ks in sizes.items():
        bits = [1 << x for x in range(1, order) if box >> x & 1]
        for k in ks:
            inside.update(map(sum, combinations(bits, k - 1), repeat(1)))
    return inside


def _census_partition(G: GroupTable, lo, hi, part, parts):
    """Sweep the subsets of partition ``part`` of ``parts``.

    The picture search runs only on the masks in a container of their
    size: G, for the sizes k with 5k > 3|G|, or a proper container in
    ``_container_masks``.  A mask outside every container has no picture:
    it holds the identity, so the search would take a = e and cosets[a] =
    H, and H, or H | gH, would have to hold it.
    """
    order = G.order
    subgroups = all_subgroups(G)
    # picture candidates, for the sizes that have any
    cands = {k: c for k in range(lo, hi + 1)
             if any(c := _picture_candidates(G, subgroups, k))}
    inside = _container_masks(cands, order)

    scanned = [0]
    classes = 0
    violations = []
    best: dict[int, list] = {}

    for m, k, qmask, stab in _canonical_masks(G, lo, hi, part, parts, scanned):
        classes += 1
        qk = qmask.bit_count()

        row = best.get(k)
        if row is None:
            row = best[k] = [qk, m, 0]
        elif (qk, m) < (row[0], row[1]):
            row[0], row[1] = qk, m
        row[2] += order // stab

        picture = (_coset_picture(G, m, *cands[k])
                   if 5 * k > 3 * order or m in inside else None)
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
                          allow_big: bool = False) -> CensusReport:
    """Sweep every subset in the size range and re-derive the classification.

    Returns a report whose ``violations`` field is empty exactly when every
    small-quotient set fit one of the two coset pictures, every claimed
    decomposition checked out, and no not-small set satisfied either
    picture's hypotheses.  A set inside a container of its size, H or
    H | gH for a candidate subgroup H (every small set, and the few others
    that only the window test rules out), gets ``classify``'s picture
    search; a set outside every container cannot meet either picture's
    hypotheses, since its least element is the identity and the search
    reads the coset eH = H.  Each partition lists the sets inside a proper
    container once, as a set of masks, and tests G's sizes by size alone.
    A small set also gets the clause evaluator of ``verify_structure``,
    which recomputes its quotient set.
    """
    start = time.perf_counter()
    check_sweep_cap(G.order, allow_big)
    lo, hi = check_sizes(G.order, sizes)
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

    ``rep_bits`` marks A0, the smallest element of A in each met coset,
    ``cover`` is the coset cover A0 H, ``sandwich`` is H A0^-1 A0 H, and
    ``window`` is the window-shape clause.  That is None when A0 lies in one
    left coset of the normalizer of H (the normalizer shape holds), and
    otherwise whether the sandwich collapses to (2mc-1)|H| elements; so a
    structural shape holds exactly when ``window`` is not False.
    """
    k = amask.bit_count()
    for H, cosets in cands:
        reps = []
        rep_bits = cover = 0
        remaining = amask
        while remaining and len(reps) < n:
            x = (remaining & -remaining).bit_length() - 1
            reps.append(x)
            rep_bits |= 1 << x
            cover |= cosets[x]
            remaining &= ~cosets[x]
        mc = len(reps)
        if remaining or (2 * n + 1) * k <= (n + 1) * (2 * mc - 1) * H.order:
            continue
        sandwich = product_mask(G, H.bits, product_mask(
            G, quotient_mask(G, rep_bits), H.bits))
        norm_bits = normalizer(G, H).bits
        x0inv = G.inv[reps[0]]
        window = (None if all(norm_bits >> G.mul[x0inv][x] & 1 for x in reps[1:])
                  else sandwich.bit_count() == (2 * mc - 1) * H.order)
        yield H, mc, rep_bits, cover, sandwich, window


def find_structure_witness(G: GroupTable, A: ElemSet,
                           max_reps: int) -> StructureWitness | None:
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

    Every subgroup of G is tried, through the scan's per-set search
    ``_witness_and_hypotheses``; the first one with no failed clause is the
    witness, and its report is formatted only when ``checks`` is read.
    """
    if A.n != G.order:
        raise ValueError(f"set is over order {A.n}, group has order {G.order}")
    amask = A.bits
    if not amask:
        raise ValueError("cannot scan the empty set")
    n = max_reps
    if n < 1:
        raise ValueError(f"max_reps must be at least 1, got {n}")
    qmask = quotient_mask(G, amask)
    entry, _ = _witness_and_hypotheses(
        G, amask, qmask, n, ((H, left_cosets(G, H)) for H in all_subgroups(G)))
    if entry is None:
        return None
    H, _, rep_bits, cover, sandwich, _ = entry
    return StructureWitness(H, ElemSet(G.order, rep_bits), n, amask.bit_count(),
                            qmask.bit_count(), cover.bit_count(),
                            sandwich.bit_count(),
                            _witness_clauses(amask, qmask, n, entry))


def _witness_clauses(amask: int, qmask: int, n: int, entry) -> tuple:
    """The witness clauses, in ``StructureWitness.checks`` order, of set A
    (``amask``, with quotient set ``qmask``) for one ``_hypothesis_subgroups``
    entry at n = max_reps: None for the structural shape that does not
    apply, and a subgroup is a witness when none is False.
    """
    H, mc, _, cover, sandwich, window = entry
    k, qk, ch, h = amask.bit_count(), qmask.bit_count(), cover.bit_count(), H.order
    return (
        mc <= n,
        True if window is None else None,
        window,
        amask & ~cover == 0,
        ch == mc * h,
        True,
        sandwich == qmask,
        qk == (2 * mc - 1) * h,
        k <= ch and (2 * n + 1) * ch < (2 * n + 1) * k + n * h,
    )


def _witness_and_hypotheses(G: GroupTable, amask: int, qmask: int, n: int,
                            cands) -> tuple:
    """``(entry, hypotheses)`` for set A (``amask``, with quotient set
    ``qmask``) at n = max_reps, over the ``(H, left_cosets(G, H))`` pairs
    ``cands``, in one walk of ``_hypothesis_subgroups``.

    ``entry`` is the first entry with no failed ``_witness_clauses``, or
    None.  ``hypotheses`` says whether some entry meets the witness
    hypotheses: at most n met cosets, the density bound and one of the two
    structural shapes, that is a ``window`` that is not False.  A witness
    meets them too, so the walk stops at it.  A set outside the range
    (n+1)|Q| < (2n+1)|A| has no witness, since a witness has
    |Q| = (2|A0|-1)|H| and its entry the density bound
    (2n+1)|A| > (n+1)(2|A0|-1)|H|; there the walk stops at the first entry
    that meets the hypotheses.
    """
    in_range = (n + 1) * qmask.bit_count() < (2 * n + 1) * amask.bit_count()
    hypotheses = False
    for entry in _hypothesis_subgroups(G, amask, n, cands):
        if in_range:
            if False not in _witness_clauses(amask, qmask, n, entry):
                return entry, True
            hypotheses = hypotheses or entry[-1] is not False
        elif entry[-1] is not False:
            return None, True
    return None, hypotheses


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


def _scan_partition(G: GroupTable, max_reps, part, parts):
    order = G.order
    subgroups = all_subgroups(G)
    n = max_reps

    # The search accepts a subgroup H only if A meets mc <= n left cosets of
    # H and (2n+1)k > (n+1)(2mc-1)|H|, for k = |A|.  A meets at least
    # c = ceil(k/|H|) cosets and (2mc-1)|H| grows with mc, so H can pass only
    # when (n+1)(2c-1)|H| < (2n+1)k.  (That also gives c <= n, since
    # k <= c|H|.)  The other subgroups fail for every set of size k and are
    # dropped up front.  The sweep stops at k = |G|/2, and G never passes
    # there: (2n+1)k > (n+1)|G| needs k > |G|/2.
    half = order // 2
    cands = [[(H, left_cosets(G, H)) for H in subgroups[:-1]
              if (n + 1) * (2 * -(-k // H.order) - 1) * H.order < (2 * n + 1) * k]
             for k in range(half + 1)]

    scanned = [0]
    classes = 0
    in_range_count = 0
    witnesses = 0
    checked = 0
    counterexamples = []
    suff_failures = []

    for m, k, qmask, _ in _canonical_masks(G, 1, half, part, parts, scanned):
        classes += 1
        qk = qmask.bit_count()
        in_range = (n + 1) * qk < (2 * n + 1) * k
        in_range_count += in_range
        # in range implies |Q| < 2|A|; a set with neither is not checked
        if 2 * k <= qk:
            continue
        witness, hypotheses = _witness_and_hypotheses(G, m, qmask, n, cands[k])
        checked += hypotheses
        if witness:
            witnesses += 1
        elif in_range:
            counterexamples.append(m)
        elif hypotheses:
            suff_failures.append(m)

    return {"scanned": scanned[0], "classes": classes, "in_range": in_range_count,
            "witnesses": witnesses, "counterexamples": counterexamples,
            "checked": checked, "suff_failures": suff_failures}


def structure_scan(G: GroupTable, max_reps: int, jobs: int = 1,
                   allow_big: bool = False) -> ScanReport:
    """Decide every subset of the group for bounded-representative structure.

    Each canonical set whose quotient set is in range — meaning
    (n+1)|Q| < (2n+1)|A| for n = max_reps — must admit a witness subgroup;
    sets admitting none are reported as counterexamples.  Independently,
    every set with |Q| < 2|A| that satisfies the witness hypotheses is
    cross-checked to actually be in range, so the hypotheses' sufficiency
    is exercised on the same sweep.  The sets of at most |G|/2 elements are
    swept; the larger ones are counted per size and decided by G alone.
    """
    start = time.perf_counter()
    check_sweep_cap(G.order, allow_big)
    if max_reps < 1:
        raise ValueError(f"max_reps must be at least 1, got {max_reps}")
    partials = _sweep_partitions(G, jobs, _scan_partition, max_reps)

    # The partitions sweep k <= |G|/2.  A larger A meets every translate
    # Ag, so Q = G, and each size k above |G|/2 is added here once: its
    # C(|G|-1, k-1) masks and top[k] classes, Burnside's count (x -> g*x
    # has |G|/o(g) cycles of length o(g)).  A meets G in one coset, so G's
    # entry exists exactly when (2n+1)k > (n+1)|G|; then every clause holds,
    # the bracket clause being that same bound, and G witnesses all top[k]
    # sets, which are in range and meet the hypotheses (by_whole counts
    # them).  At the other top sizes no set is in range, and no proper H
    # passes the partitions' candidate bound
    # (n+1)(2c-1)|H| < (2n+1)k <= (n+1)|G|: it puts the index i = |G|/|H|
    # above 2c-1, while c = ceil(k/|H|) >= k/|H| > i/2 puts it below 2c.
    # So those sets have no witness and no hypotheses.
    N, n = G.order, max_reps
    orders = [subgroup_closure_mask(G, 1 << g).bit_count() for g in range(N)]
    top = {k: sum(comb(N // o, k // o) for o in orders if k % o == 0) // N
           for k in range(N // 2 + 1, N + 1)}
    by_whole = sum(c for k, c in top.items() if (2 * n + 1) * k > (n + 1) * N)

    return ScanReport(
        group_spec=G.spec,
        order=G.order,
        max_reps=max_reps,
        subsets_scanned=(sum(p["scanned"] for p in partials)
                         + sum(comb(N - 1, k - 1) for k in top)),
        canonical_classes=sum(p["classes"] for p in partials) + sum(top.values()),
        in_range=sum(p["in_range"] for p in partials) + by_whole,
        witnesses_found=sum(p["witnesses"] for p in partials) + by_whole,
        counterexamples=tuple(
            ElemSet(G.order, m) for m in
            sorted(m for p in partials for m in p["counterexamples"])),
        sufficiency_checked=sum(p["checked"] for p in partials) + by_whole,
        sufficiency_failures=tuple(
            ElemSet(G.order, m) for m in
            sorted(m for p in partials for m in p["suff_failures"])),
        runtime_seconds=time.perf_counter() - start,
    )
