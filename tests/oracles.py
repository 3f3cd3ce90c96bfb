"""Deliberately naive reference implementations used to cross-check the kernels.

Everything in this module works on plain Python sets of element ids and walks
the multiplication table with direct quadratic loops.  Nothing here touches
the bitmask kernels under test (no translate tables, no mask arithmetic), so
agreement between the two sides is meaningful evidence rather than the same
code exercised twice.

Keep these slow and obvious.  If an oracle ever needs optimizing, it belongs
in the package instead.
"""

from __future__ import annotations


def naive_product(G, A, B):
    return {G.mul[a][b] for a in A for b in B}


def naive_inverse(G, A):
    return {G.inv[a] for a in A}


def naive_quotient(G, A):
    return {G.mul[G.inv[a]][b] for a in A for b in A}


def naive_quotient_counts(G, A, B=None):
    """counts[g] = #{(a, b) in A x B : inv(a) * b = g}, by direct enumeration."""
    if B is None:
        B = A
    counts = [0] * G.order
    for a in A:
        ainv = G.inv[a]
        for b in B:
            counts[G.mul[ainv][b]] += 1
    return counts


def naive_product_counts(G, A, B):
    """counts[g] = #{(a, b) in A x B : a * b = g}."""
    counts = [0] * G.order
    for a in A:
        row = G.mul[a]
        for b in B:
            counts[row[b]] += 1
    return counts


def naive_heavy(G, A):
    """Quotients represented more than |Q| - |A| times, straight off the definition."""
    q = naive_quotient(G, A)
    counts = naive_quotient_counts(G, A)
    threshold = len(q) - len(A)
    return {g for g in q if counts[g] > threshold}


def naive_double_coset(G, H, g):
    return {G.mul[G.mul[h1][g]][h2] for h1 in H for h2 in H}


def naive_normalizer(G, H):
    Hset = set(H)
    out = set()
    for g in range(G.order):
        if {G.mul[g][h] for h in Hset} == {G.mul[h][g] for h in Hset}:
            out.add(g)
    return out


def naive_generated(G, gens):
    """Subgroup generated by ``gens``: breadth-first words over the generators.

    Inverses come for free in a finite group (every element has finite
    order), so closing under right multiplication from the identity is
    enough.
    """
    out = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.mul[x][g]
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


def naive_subgroups(G):
    """Every subgroup, by filtering all identity-containing subsets.

    Exponential in the group order — reserve for cross-checks at order <= 16.
    A nonempty finite subset closed under multiplication is automatically
    closed under inverses, so closure is the only test needed.
    """
    n = G.order
    out = []
    for bits in range(1, 1 << n, 2):  # step 2 keeps the identity bit set
        size = bits.bit_count()
        if n % size:
            continue
        elems = [x for x in range(n) if bits >> x & 1]
        if all(bits >> G.mul[a][b] & 1 for a in elems for b in elems):
            out.append(frozenset(elems))
    return out


def naive_canonical(G, A):
    """Smallest-bitmask left translate of A among those containing the identity."""
    if not A:
        raise ValueError("the empty set has no canonical form")
    best = None
    for a in A:
        ainv = G.inv[a]
        key = 0
        for x in A:
            key |= 1 << G.mul[ainv][x]
        if best is None or key < best:
            best = key
    return frozenset(x for x in range(G.order) if best >> x & 1)


def naive_canonical_masks(G, sizes=None):
    """The canonical sets with sizes in ``sizes`` (lo, hi; default all), as
    ascending bitmasks: one per left-translation orbit, each the
    ``naive_canonical`` of itself."""
    n = G.order
    lo, hi = sizes or (1, n)
    for bits in range(1, 1 << n, 2):
        A = frozenset(x for x in range(n) if bits >> x & 1)
        if lo <= len(A) <= hi and naive_canonical(G, A) == A:
            yield bits


def naive_min_quotients(G):
    """size -> smallest |quotient set| over all identity-containing subsets.

    Identity-containing subsets suffice because the quotient set of a left
    translate is unchanged, which this table is used to double-check.
    """
    n = G.order
    best = {}
    for bits in range(1, 1 << n, 2):
        A = [x for x in range(n) if bits >> x & 1]
        q = len(naive_quotient(G, A))
        k = len(A)
        if k not in best or q < best[k]:
            best[k] = q
    return best


def random_subset(rng, n, lo=1, hi=None):
    """A uniform subset of {0..n-1} with size drawn from [lo, hi]."""
    if hi is None:
        hi = n
    k = rng.randint(lo, min(hi, n))
    return set(rng.sample(range(n), k))
