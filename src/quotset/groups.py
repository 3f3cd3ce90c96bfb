"""Cayley-table engines for a small catalog of finite group families.

Element ids are dense integers ``0..order-1`` and id 0 is always the
identity.  ``mul[x][y]`` is the product "x then y"; for permutation groups
this is left-to-right composition of mappings.  A table never changes after
construction, so groups can be shared freely across worker processes.

Group-spec grammar (one spec per line in files, ``#`` starts a comment):

    cyclic N              additive residues mod N                   (order N)
    dihedral N            rotations r^i and reflections r^i s       (order 2N)
    symmetric K           all permutations of 1..K, K <= 5          (order K!)
    dicyclic M            <a, x | a^(2M)=1, x^2=a^M, xax^-1=a^-1>   (order 4M)
    product SPEC ; SPEC   direct product; the left factor must not itself be
                          a product (nest products to the right)
    perm degree=D gens=[(2 1 3),(2 3 1)]
                          closure of the listed generators, written as
                          one-line images of 1..D

Labeling conventions, fixed so identical specs rebuild identical tables:
cyclic ids are the residues themselves; dihedral ids 0..N-1 are r^i and ids
N..2N-1 are r^i s; symmetric-group ids are the lexicographic rank of the
image tuple (the identity ranks first); dicyclic ids 0..2M-1 are a^i and ids
2M..4M-1 are a^i x; product ids are i*|B|+j for the pair (i, j); perm-spec
ids are assigned by breadth-first closure from the identity, expanding each
element by the generators in listed order.

``spec_order`` and ``spec_names`` run every check ``build_group`` does,
the order cap included, but build no table.  Cyclic, dihedral and dicyclic tables come
from one metacyclic presentation.
"""

from __future__ import annotations

import itertools
import math
import re
from operator import or_
from typing import NamedTuple

from .reports import CheckItem, CheckReport, law_item

__all__ = [
    "DEFAULT_ORDER_CAP",
    "TABLE_ORDER_CAP",
    "ALTERNATING4_SPEC",
    "GroupSpecError",
    "GroupTable",
    "build_group",
    "spec_order",
    "spec_names",
    "verify_group_axioms",
    "catalog_entries",
    "catalog_specs",
    "parse_spec_lines",
]

#: Constructions beyond this order (7!) are refused outright.
DEFAULT_ORDER_CAP = 5040

#: ``GroupTable.action_tables`` refuses larger groups: its tables hold ~32 * order^2 masks.
TABLE_ORDER_CAP = 120

#: The even permutations of four points, generated by a double swap and a 3-cycle.
ALTERNATING4_SPEC = "perm degree=4 gens=[(2 1 4 3),(2 3 1 4)]"


class GroupSpecError(ValueError):
    """A group spec string that cannot be parsed or built."""

    def __init__(self, message: str, spec: str | None = None, column: int | None = None):
        detail = message
        if spec is not None:
            at = f" (column {column})" if column is not None else ""
            detail = f"{message}{at} in group spec {spec!r}"
        super().__init__(detail)
        self.spec = spec
        self.column = column


class _ActionTables(NamedTuple):
    """Row tables that apply group actions to whole bitmasks.

    A mask is k chunks of ``width`` = w bits, and the tables store them as
    k/3 triples: ``rows``, ``invert`` and ``elems`` each hold one triple of
    chunk tables per 3w bits of the mask.  For the elements X that value
    ``v`` of chunk c marks, the chunk's row table at ``v`` is the list whose
    entry a is the mask inv(a)*X, its invert table at ``v`` holds the
    inverses of X, and its elems table at ``v`` lists X without the
    identity, ascending; chunks past the order hold only the value 0.
    Right actions go through inverses, Xg = inv(inv(g)*inv(X)), so no
    second table family is kept.

    Up to order 36 there is one triple and w = ceil(order/3): ``rows`` is
    3 * 2^w rows of ``order`` masks, about 200,000 masks at the hard sweep
    cap (order 32, w = 11).  Past order 36 a chunk of ceil(order/3) bits
    would need over 2^12 rows (2^24 at order 70), so k = 3 * ceil(order/24)
    and w = ceil(order/k) <= 8, which keeps every chunk at most 256 rows
    and the tables at about 32 * order^2 masks.  A translate is three
    lookups and two ORs per triple, and all translates of one set share its
    rows.  The readers write each triple out: a loop over single chunks
    measured 40-50% slower per call at order 24, and with one triple the
    orders the sweeps reach keep the three lookups.  The sweep kernel,
    which runs only up to order 32, also shares the OR of the two high
    chunks' rows across every mask that has those chunks, so its
    translates take two lookups and one OR.
    """

    width: int
    chunk_mask: int
    rows: list
    invert: list
    elems: list


def _chunk_tables(lefts, inv, base, bits):
    """``(rows, invert, elems)`` of the chunk of ``bits`` bits at ``base``."""
    # Lists, not tuples: CPython keeps freed small tuples on per-size free
    # lists until a full collection, and a many-group sweep would pile up
    # every group's rows there.
    n = len(inv)
    r, i, e = [[0] * n], [0], [[]]
    for v in range(1, 1 << max(0, bits)):
        low = v & -v
        x = base + low.bit_length() - 1
        rest = v ^ low
        r.append(list(map(or_, r[rest], lefts[x])))
        i.append(i[rest] | 1 << inv[x])
        e.append([x] + e[rest] if x else e[rest])
    return r, i, e


class GroupTable:
    """Immutable finite group given by explicit multiplication and inverse tables.

    Treat instances as read-only; the private fields only cache derived data
    (action tables, subgroup lists, per-subgroup normalizers and left-coset
    tables) and rebuilding them is always idempotent.  ``_cosets`` is the
    one source of cosets: ``subgroups.left_cosets`` fills it, and right
    cosets and double cosets are read from it.
    """

    __slots__ = ("order", "mul", "inv", "identity", "element_names", "spec",
                 "_tables", "_normalizers", "_cosets", "_subgroups")

    def __init__(self, order, mul, inv, element_names, spec):
        self.order = order
        self.mul = tuple(tuple(row) for row in mul)
        self.inv = tuple(inv)
        self.identity = 0
        self.element_names = tuple(element_names)
        self.spec = spec
        self._tables = None
        self._normalizers = {}
        self._cosets = {}
        self._subgroups = None

    def name_of(self, x: int) -> str:
        return self.element_names[x]

    def action_tables(self) -> _ActionTables:
        tables = self._tables
        if tables is None:
            n, mul, inv = self.order, self.mul, self.inv
            if n > TABLE_ORDER_CAP:
                raise ValueError(f"order {n} exceeds the action-table cap {TABLE_ORDER_CAP}")
            k = 3 if n <= 36 else 3 * -(-n // 24)  # chunks, a multiple of 3
            w = -(-n // k)
            # lefts[x][a] is the bit of inv(a)*x
            lefts = [[1 << mul[inv[a]][x] for a in range(n)] for x in range(n)]
            chunks = [_chunk_tables(lefts, inv, base, min(w, n - base))
                      for base in range(0, k * w, w)]
            # triples[j] holds the (rows, invert, elems) triples of chunks 3j..3j+2
            triples = [list(zip(*chunks[j:j + 3])) for j in range(0, k, 3)]
            tables = _ActionTables(w, (1 << w) - 1, *map(list, zip(*triples)))
            self._tables = tables
        return tables

    def __repr__(self):
        return f"GroupTable({self.spec!r}, order={self.order})"


# ---------------------------------------------------------------------------
# family builders


def _metacyclic_table(m, n, t, r):
    # <a, b | a^m, b^n = a^t, b a b^-1 = a^r>, with id i + m*j for a^i b^j.
    # The row of b^j is b^j a^k b^l = a^(k r^j) b^(j + l), b^n folding to
    # a^t, and the row of a^(i+1) b^j is a times the row of a^i b^j.
    order = m * n
    left_a = [(x + 1) % m + x - x % m for x in range(order)]  # id of a*x
    mul = []
    for j in range(n):
        rj = pow(r, j, m)
        row = [(k * rj + (t if j + l >= n else 0)) % m + m * ((j + l) % n)
               for l in range(n) for k in range(m)]
        for _ in range(m):
            mul.append(row)
            row = list(map(left_a.__getitem__, row))
    return mul, [row.index(0) for row in mul]


def _cycle_name(images) -> str:
    """Cycle notation for a permutation given as 1-based one-line images."""
    k = len(images)
    seen = [False] * k
    parts = []
    for s in range(k):
        if seen[s] or images[s] == s + 1:
            seen[s] = True
            continue
        cyc = [s + 1]
        seen[s] = True
        j = images[s]
        while j != s + 1:
            cyc.append(j)
            seen[j - 1] = True
            j = images[j - 1]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def _table_from_perms(elems, degree):
    index = {p: i for i, p in enumerate(elems)}
    rng = range(degree)
    mul = [[index[tuple(py[px[i] - 1] for i in rng)] for py in elems] for px in elems]
    inv = []
    for p in elems:
        ip = [0] * degree
        for i in rng:
            ip[p[i] - 1] = i + 1
        inv.append(index[tuple(ip)])
    return mul, inv


def _perm_closure(degree, gens, original, base) -> list:
    """The elements the generators close to, in breadth-first order from the identity."""
    ident = tuple(range(1, degree + 1))
    elems = [ident]
    index = {ident: 0}
    pos = 0
    while pos < len(elems):
        p = elems[pos]
        pos += 1
        for g in gens:
            q = tuple(g[p[i] - 1] for i in range(degree))
            if q not in index:
                if len(elems) >= DEFAULT_ORDER_CAP:
                    raise GroupSpecError(
                        f"permutation closure exceeds the order cap {DEFAULT_ORDER_CAP}",
                        original, base)
                index[q] = len(elems)
                elems.append(q)
    return elems


def _product_table(a, b):
    (amul, ainv), (bmul, binv) = a, b
    na, nb = len(ainv), len(binv)
    order = na * nb
    mul = [[0] * order for _ in range(order)]
    for i in range(na):
        arow = amul[i]
        for j in range(nb):
            brow = bmul[j]
            row = mul[i * nb + j]
            for k in range(na):
                ak = arow[k] * nb
                for l in range(nb):
                    row[k * nb + l] = ak + brow[l]
    return mul, [ainv[x // nb] * nb + binv[x % nb] for x in range(order)]


# ---------------------------------------------------------------------------
# spec parsing

_FAMILY_RE = re.compile(r"(cyclic|dihedral|symmetric|dicyclic)\s+(\S+)\s*$")
_PERM_RE = re.compile(r"perm\s+degree=(\S+?)\s+gens=\[(.*)\]\s*$")
_GEN_RE = re.compile(r"\(([^()]*)\)")
_INT_RE = re.compile(r"-?[0-9]+")  # not \d, which takes every script's digits


def build_group(spec: str) -> GroupTable:
    """Build the group described by ``spec``; see the module docstring for the grammar.

    The returned table's ``spec`` field is the whitespace-normalized form of
    the input, and identical spec strings always rebuild identical tables.
    This is the one place a ``GroupTable`` is made from a spec.
    """
    order, spec, names, build = _parse(spec)
    return GroupTable(order, *build(), names(), spec)


def spec_order(spec: str) -> int:
    """The order of the group ``spec`` describes, raising ``GroupSpecError``
    as ``build_group`` would, but building no table."""
    return _parse(spec)[0]


def spec_names(spec: str) -> tuple[str, tuple[str, ...]]:
    """The normalized spec and the element names of ``build_group(spec)``,
    building no table."""
    _, spec, names, _ = _parse(spec)
    return spec, tuple(names())


def _parse(spec):
    if not spec or not spec.strip():
        raise GroupSpecError("empty group spec", spec=spec or "", column=0)
    return _parse_spec(spec, spec.strip(), len(spec) - len(spec.lstrip()))


def _parse_int(token, original, column):
    if not _INT_RE.fullmatch(token):
        raise GroupSpecError(f"expected an integer, got {token!r}", original, column)
    return int(token)


def _parse_spec(original, text, base):
    """``(order, spec, names, build)`` for the spec ``text``: every check,
    the order cap included, runs here, ``spec`` is the normalized text,
    ``names()`` gives the element names and ``build()`` gives ``(mul, inv)``."""
    word = text.split(None, 1)[0]
    if word == "product":
        rest = text[len("product"):]
        sep = rest.find(";")
        if sep < 0:
            raise GroupSpecError("product spec needs ';' between its two factors",
                                 original, base)
        lhs, rhs = rest[:sep], rest[sep + 1:]
        lhs_stripped, rhs_stripped = lhs.strip(), rhs.strip()
        lhs_base = base + len("product") + (len(lhs) - len(lhs.lstrip()))
        rhs_base = base + len("product") + sep + 1 + (len(rhs) - len(rhs.lstrip()))
        if not lhs_stripped:
            raise GroupSpecError("product spec is missing its left factor", original, base)
        if lhs_stripped.split(None, 1)[0] == "product":
            raise GroupSpecError(
                "the left factor of a product cannot itself be a product; "
                "nest products to the right", original, lhs_base)
        if not rhs_stripped:
            raise GroupSpecError("product spec is missing its right factor", original, base)
        a_order, a_spec, a_names, build_a = _parse_spec(original, lhs_stripped, lhs_base)
        b_order, b_spec, b_names, build_b = _parse_spec(original, rhs_stripped, rhs_base)
        order = a_order * b_order
        if order > DEFAULT_ORDER_CAP:
            raise GroupSpecError(
                f"product order {order} exceeds the order cap {DEFAULT_ORDER_CAP}",
                original, base)
        return (order, f"product {a_spec} ; {b_spec}",
                lambda: (f"({x},{y})" for x, y in itertools.product(a_names(), b_names())),
                lambda: _product_table(build_a(), build_b()))

    if word.startswith("perm"):
        m = _PERM_RE.fullmatch(text)
        if not m:
            raise GroupSpecError(
                "malformed perm spec; expected perm degree=D gens=[(..),(..)]",
                original, base)
        degree = _parse_int(m.group(1), original, base + m.start(1))
        if degree < 1:
            raise GroupSpecError(f"perm degree must be at least 1, got {degree}",
                                 original, base + m.start(1))
        gens_text = m.group(2)
        leftover = _GEN_RE.sub("", gens_text).strip(" ,\t")
        if leftover:
            raise GroupSpecError(f"malformed generator list near {leftover!r}",
                                 original, base + m.start(2))
        gens = []
        for body in _GEN_RE.findall(gens_text):
            tokens = body.split()
            images = tuple(_parse_int(t, original, base + m.start(2)) for t in tokens)
            if sorted(images) != list(range(1, degree + 1)):
                raise GroupSpecError(
                    f"generator ({body}) is not a permutation of 1..{degree}",
                    original, base + m.start(2))
            gens.append(images)
        elems = _perm_closure(degree, gens, original, base)
        gen_text = ",".join("(" + " ".join(map(str, g)) + ")" for g in gens)
        spec = f"perm degree={degree} gens=[{gen_text}]"
        return (len(elems), spec, lambda: map(_cycle_name, elems),
                lambda: _table_from_perms(elems, degree))

    m = _FAMILY_RE.fullmatch(text)
    if not m:
        raise GroupSpecError(f"unknown group family {word!r}", original, base)
    family = m.group(1)
    value = _parse_int(m.group(2), original, base + m.start(2))
    spec = f"{family} {value}"
    if family == "cyclic":
        if value < 1:
            raise GroupSpecError("cyclic needs N >= 1", original, base + m.start(2))
        order = value
        names = lambda: map(str, range(value))
        build = lambda: _metacyclic_table(value, 1, 0, 1)
    elif family == "dihedral":
        if value < 1:
            raise GroupSpecError("dihedral needs N >= 1", original, base + m.start(2))
        order = 2 * value
        names = lambda: (f"r^{i}{s}" for s in ("", " s") for i in range(value))
        build = lambda: _metacyclic_table(value, 2, 0, -1)
    elif family == "symmetric":
        if not 1 <= value <= 5:
            raise GroupSpecError("symmetric needs 1 <= K <= 5", original, base + m.start(2))
        order = math.factorial(value)
        perms = lambda: list(itertools.permutations(range(1, value + 1)))
        names = lambda: map(_cycle_name, perms())
        build = lambda: _table_from_perms(perms(), value)
    else:
        if value < 2:
            raise GroupSpecError("dicyclic needs M >= 2", original, base + m.start(2))
        order = 4 * value
        names = lambda: (f"a^{i}{x}" for x in ("", " x") for i in range(2 * value))
        build = lambda: _metacyclic_table(2 * value, 2, value, -1)
    if order > DEFAULT_ORDER_CAP:
        raise GroupSpecError(f"order {order} exceeds the order cap {DEFAULT_ORDER_CAP}",
                             original, base)
    return order, spec, names, build


def parse_spec_lines(text: str) -> list[str]:
    """Extract group specs from text with one spec per line and ``#`` comments."""
    specs = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            specs.append(line)
    return specs


# ---------------------------------------------------------------------------
# axioms and the catalog


def verify_group_axioms(G: GroupTable) -> CheckReport:
    """Exhaustively check identity, inverses, associativity, and both Latin-square laws."""
    n, mul, inv, name_of = G.order, G.mul, G.inv, G.name_of
    ids = list(range(n))
    # the rows first, then the columns, each named by its index
    bad_line = next((i % n for i, line in enumerate(itertools.chain(mul, zip(*mul)))
                     if sorted(line) != ids), None)
    return CheckReport(f"group axioms for {G.spec}", (
        law_item("identity", next(
            (x for x in ids if mul[0][x] != x or mul[x][0] != x), None), name_of),
        law_item("inverses", next(
            (x for x in ids if mul[x][inv[x]] != 0 or mul[inv[x]][x] != 0), None), name_of),
        # binding the row of xy once per pair keeps this as fast as a nested loop
        law_item("associativity", next(
            ((x, y, z) for x, row_x in enumerate(mul) for y, row_y in enumerate(mul)
             for row_xy in (mul[row_x[y]],) for z in ids
             if row_xy[z] != row_x[row_y[z]]), None), name_of),
        CheckItem("latin_square", bad_line is None,
                  "" if bad_line is None else f"row/column {bad_line}"),
    ))


def _factorize(n: int) -> dict[int, int]:
    f = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            f[d] = f.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        f[n] = f.get(n, 0) + 1
    return f


def _partitions(n: int):
    """Partitions of n as tuples with non-increasing parts, largest first."""
    def rec(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def _abelian_product_entries(max_order: int) -> list[tuple[int, str]]:
    """Non-cyclic abelian groups up to ``max_order`` as nested product specs."""
    entries = []
    for n in range(4, max_order + 1):
        primes = sorted(_factorize(n).items())
        per_prime = [list(_partitions(e)) for _, e in primes]
        for combo in itertools.product(*per_prime):
            if all(len(parts) == 1 for parts in combo):
                continue
            factors = sorted(p ** e
                             for (p, _), parts in zip(primes, combo)
                             for e in parts)
            spec = f"cyclic {factors[-1]}"
            for f in reversed(factors[:-1]):
                spec = f"product cyclic {f} ; {spec}"
            entries.append((n, spec))
    return entries


def catalog_entries(max_order: int) -> list[tuple[int, str]]:
    """Deterministic list of ``(order, spec)`` catalog entries with order at
    most ``max_order``, sorted by order and then spec.

    The catalog covers all cyclic, dihedral, and dicyclic groups in range,
    the symmetric groups, the even permutations of four points, and every
    non-cyclic abelian group written as a product of prime-power cyclics.
    """
    entries: list[tuple[int, str]] = []
    entries.extend((n, f"cyclic {n}") for n in range(1, max_order + 1))
    entries.extend((2 * n, f"dihedral {n}") for n in range(1, max_order // 2 + 1))
    entries.extend((4 * m, f"dicyclic {m}") for m in range(2, max_order // 4 + 1))
    for k in range(3, 6):
        if math.factorial(k) <= max_order:
            entries.append((math.factorial(k), f"symmetric {k}"))
    if max_order >= 12:
        entries.append((12, ALTERNATING4_SPEC))
    entries.extend(_abelian_product_entries(max_order))
    entries.sort()
    return entries


def catalog_specs(max_order: int) -> list[str]:
    """The specs of ``catalog_entries(max_order)``, in the same order."""
    return [spec for _, spec in catalog_entries(max_order)]
