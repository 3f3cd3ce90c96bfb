"""The benchmark's workloads and the group lists each seed selects.

Every sweep is exhaustive, so a group list fixes a workload's whole input.
Seed 0 runs the named groups exactly.  Any other seed runs an isomorphic
copy of each of them whose element ids are shuffled by the seed: about the
same sweep cost, the same isomorphism-invariant answers, but different masks,
canonical representatives, partition contents and report bytes.  A claim
can then be re-checked on labellings a change was not tuned on.  (Other
catalog groups of the same order were not used: their sweeps differ in cost
by up to 60% at order 24, which would swamp the run-to-run comparison.)
``census-catalog`` always runs the whole catalog.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from quotset.groups import build_group, catalog_specs


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str                       # "census" or "conjecture-scan"
    jobs: int
    groups: tuple[str, ...] | None  # seed-0 groups; None means the catalog
    extra: tuple[str, ...]          # verb arguments besides the group selection


CATALOG_MAX_ORDER = 18

# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("census-catalog", "census", 1, None, ()),
    Workload("census-deep", "census", 2, ("dihedral 12",), ()),
    Workload("scan-n3", "conjecture-scan", 1,
             ("dihedral 10", "cyclic 20", "dicyclic 5"), ("--n", "3")),
)}


def relabelled_spec(spec: str, rng: random.Random) -> str:
    """A perm spec for a copy of ``spec`` whose non-identity ids are shuffled.

    The generators are the right-regular permutations x -> x*g of every
    non-identity g, listed in shuffled order; a perm spec numbers its
    elements in breadth-first order from the identity, so the element met
    as the i-th listed generator gets id i.
    """
    G = build_group(spec)
    order = list(range(1, G.order))
    rng.shuffle(order)
    gens = ",".join("(" + " ".join(str(G.mul[x][g] + 1) for x in range(G.order)) + ")"
                    for g in order)
    return f"perm degree={G.order} gens=[{gens}]"


@dataclass(frozen=True)
class Plan:
    """One workload at one seed: its groups and how to invoke the verb."""

    workload: Workload
    seed: int
    specs: tuple[str, ...]

    @property
    def is_seed_zero_input(self) -> bool:
        return self.specs == plan(self.workload.name, 0).specs

    def argv(self, jobs: int, groups_file: str | None = None) -> list[str]:
        """The verb's argv at ``jobs``; ``groups_file`` must list ``specs``
        when there is more than one group and the workload is not the catalog."""
        w = self.workload
        if w.groups is None:
            selection = ["--max-order", str(CATALOG_MAX_ORDER)]
        elif len(self.specs) == 1:
            selection = ["--group", self.specs[0]]
        else:
            selection = ["--groups-file", groups_file]
        return [w.verb, *selection, *w.extra, "--jobs", str(jobs), "--format", "json"]


def plan(name: str, seed: int) -> Plan:
    """The input ``seed`` selects for workload ``name``."""
    w = WORKLOADS[name]
    if w.groups is None:
        specs = tuple(catalog_specs(CATALOG_MAX_ORDER))
    elif seed == 0:
        specs = w.groups
    else:
        specs = tuple(relabelled_spec(spec, random.Random(f"{seed}:{spec}"))
                      for spec in w.groups)
    return Plan(w, seed, specs)
