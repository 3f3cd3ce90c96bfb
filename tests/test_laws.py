"""The exhaustive law checks on broken tables: which laws fail, and where.

No catalog group fails a law, so the ``fails at`` details are reached only
through perturbed tables: each seed either rotates one row of a group's
table or swaps ``mul[x][y]`` with ``mul[y][x]``.  The perturbed tables go
through the three checkers (every subgroup of the intact group for the
coset laws, four seeded set pairs for the counting bounds), and the failing
items are pinned, so a rewrite of any law must keep its first
counterexample and its detail.
"""

import hashlib
import random
from collections import Counter

from quotset.groups import GroupTable, build_group, verify_group_axioms
from quotset.setops import ElemSet, check_counting_bounds
from quotset.subgroups import Subgroup, all_subgroups, check_coset_laws

SPECS = ["dihedral 4", "cyclic 6", "symmetric 3", "dicyclic 3", "cyclic 8", "dihedral 5"]


def _perturbed(G, seed):
    """G's table with one row rotated (even seeds) or one pair of entries
    swapped across the diagonal (odd seeds), and the generator that goes on
    to draw the set pairs."""
    rng = random.Random(seed)
    n = G.order
    mul = [list(row) for row in G.mul]
    if seed % 2 == 0:
        x, k = rng.randrange(n), rng.randrange(1, n)
        mul[x] = mul[x][k:] + mul[x][:k]
    else:
        x, y = rng.sample(range(n), 2)
        mul[x][y], mul[y][x] = mul[y][x], mul[x][y]
    return GroupTable(n, mul, G.inv, G.element_names, G.spec), rng


def _failures():
    out = []
    for spec in SPECS:
        G = build_group(spec)
        subs = all_subgroups(G)
        for seed in range(8):
            T, rng = _perturbed(G, seed)
            reports = [verify_group_axioms(T)]
            reports += [check_coset_laws(T, Subgroup(H.elements, H.order)) for H in subs]
            for _ in range(4):
                a, b = (ElemSet(T.order, rng.randrange(1, 1 << T.order)) for _ in range(2))
                reports.append(check_counting_bounds(T, a, b))
            out += [(spec, seed, item.name, item.detail)
                    for report in reports for item in report.failures()]
    return out


def test_perturbed_tables_fail_every_law_with_pinned_details():
    failures = _failures()
    assert Counter(name for _, _, name, _ in failures) == {
        "identity": 24, "inverses": 24, "associativity": 36, "latin_square": 36,
        "overlap_bound": 3, "normalizer_match": 32, "union_subgroup_square": 47,
        "double_coset_size": 47, "pigeonhole_quotient": 11, "kemperman_wehn": 16,
    }
    # each of the three detail shapes, spelled out once
    assert ("dihedral 4", 0, "identity", "fails at r^2 s") in failures
    assert ("symmetric 3", 4, "overlap_bound", "fails at ((), (2 3))") in failures
    assert ("dihedral 4", 0, "associativity", "fails at (r^1, r^1 s, r^0)") in failures
    text = "".join(f"{spec}|{seed}|{name}|{detail}\n" for spec, seed, name, detail in failures)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "6a7014f814e4fda1748ff879c3feef3654483fca58d6c39aa5e27bbfcc05ab10")
