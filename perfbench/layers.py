"""Per-layer metrics: which quotset functions the traced run wraps, and the
module-by-module report built from their spans.

The layers are the package's modules.  ``reports`` only holds check-item
dataclasses and gets no metrics.  Each traced function is wrapped under
every module-level name that binds it, so a call is recorded wherever the
calling module looks it up (``quotset.census.classify``,
``quotset.cli.build_group``, ...).  The bitmask translation kernels
(``left_translate_mask`` and friends) are deliberately not wrapped: a scan
calls them millions of times, and spans there would cost more than the
work they measure.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from . import spans

LAYERS = ("groups", "subgroups", "setops", "classify", "census", "cli")

#: (home module, function) of each traced function.  ``GroupTable.action_tables``
#: is traced too, but only when it builds (see ``_cold_only``).
TRACED = (
    ("groups", "build_group"),
    ("subgroups", "all_subgroups"),
    ("subgroups", "normalizer"),
    ("setops", "product_mask"),
    ("setops", "quotient_mask"),
    ("classify", "classify"),
    ("classify", "verify_structure"),
    ("classify", "check_sufficiency"),
    ("census", "classification_census"),
    ("census", "structure_scan"),
    ("census", "find_structure_witness"),
    ("cli", "main"),
)

SWEEPS = ("census.classification_census", "census.structure_scan")

#: Every per-layer metric of the traced run, with its unit.
METRICS = {
    "groups.build_group.s": "s",
    "groups.build_group.calls": "count",
    "groups.action_tables.s": "s",
    "subgroups.all_subgroups.s": "s",
    "subgroups.count": "count",
    "subgroups.normalizer.s": "s",
    "subgroups.normalizer.calls": "count",
    "setops.product_mask.s": "s",
    "setops.product_mask.calls": "count",
    "setops.quotient_mask.s": "s",
    "setops.quotient_mask.calls": "count",
    "classify.classify.s": "s",
    "classify.classify.calls": "count",
    "classify.verify_structure.s": "s",
    "classify.check_sufficiency.s": "s",
    "classify.small_single": "count",
    "classify.small_split": "count",
    "classify.small_fused": "count",
    "census.sweep.s": "s",
    "census.sweep.self_s": "s",
    "census.subsets_scanned": "count",
    "census.canonical_classes": "count",
    "census.canonical_yield": "ratio",
    "census.witness_search.s": "s",
    "census.witness_search.calls": "count",
    "census.witness_hit_ratio": "ratio",
    "census.parallel_efficiency": "ratio",
    "cli.main.self_s": "s",
    "tracing_overhead_s": "s",
}


def _cold_only(rec, action_tables):
    """Trace ``GroupTable.action_tables`` only on the call that builds the tables.

    Every translation kernel calls it for the cached tables, millions of
    times per sweep; those calls pass straight through.
    """
    build = rec.traced(action_tables, "groups.action_tables")

    def cold_or_cached(G):
        return build(G) if G._tables is None else action_tables(G)

    return cold_or_cached


def _modules():
    return {name: importlib.import_module(f"quotset.{name}") for name in LAYERS}


class LayerTrace:
    """The spans and result counters of one traced verb run."""

    def __init__(self):
        self.recorder = spans.SpanRecorder()
        self.counts = dict.fromkeys(
            ("small_single", "small_split", "small_fused", "witnesses",
             "subsets_scanned", "canonical_classes", "subgroups"), 0)
        self._subgroup_lists = {}

    # result hooks -----------------------------------------------------------

    def _on_classify(self, result):
        kind = result.kind.value
        if kind == "single-coset":
            self.counts["small_single"] += 1
        elif kind == "two-cosets":
            self.counts["small_fused" if result.fused else "small_split"] += 1

    def _on_witness(self, result):
        if result is not None:
            self.counts["witnesses"] += 1

    def _on_sweep(self, report):
        self.counts["subsets_scanned"] += report.subsets_scanned
        self.counts["canonical_classes"] += report.canonical_classes

    def _on_subgroups(self, result):
        # The list is cached on the group table; count each group's once.
        if id(result) not in self._subgroup_lists:
            self._subgroup_lists[id(result)] = result
            self.counts["subgroups"] += len(result)

    # wrapping ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under every module name that binds it."""
        hooks = {
            "classify.classify": self._on_classify,
            "census.find_structure_witness": self._on_witness,
            "census.classification_census": self._on_sweep,
            "census.structure_scan": self._on_sweep,
            "subgroups.all_subgroups": self._on_subgroups,
        }
        modules = _modules()
        rec = self.recorder
        table_cls = modules["groups"].GroupTable
        rec.patch(table_cls, "action_tables",
                  _cold_only(rec, vars(table_cls)["action_tables"]))
        for home, attr in TRACED:
            name = f"{home}.{attr}"
            fn = getattr(modules[home], attr)
            wrapper = rec.traced(fn, name, hooks.get(name))
            for module in modules.values():
                for bound, value in list(vars(module).items()):
                    if value is fn:
                        rec.patch(module, bound, wrapper)

    def uninstall(self) -> None:
        self.recorder.unpatch_all()

    # report -----------------------------------------------------------------

    def metrics(self, parallel_efficiency: float, overhead_s: float) -> dict:
        """Every entry of ``METRICS`` as ``{name: value}``."""
        rec = self.recorder
        selfs = spans.self_times(rec.starts, rec.ends, rec.parents)
        total, own, count = defaultdict(int), defaultdict(int), defaultdict(int)
        for i, nid in enumerate(rec.name_ids):
            name = rec.names[nid]
            total[name] += rec.ends[i] - rec.starts[i]
            own[name] += selfs[i]
            count[name] += 1

        def seconds(*names):
            return sum(total[n] for n in names) / 1e9

        def self_seconds(*names):
            return sum(own[n] for n in names) / 1e9

        c = self.counts
        witness_calls = count["census.find_structure_witness"]
        out = {
            "groups.build_group.s": seconds("groups.build_group"),
            "groups.build_group.calls": count["groups.build_group"],
            "groups.action_tables.s": seconds("groups.action_tables"),
            "subgroups.all_subgroups.s": seconds("subgroups.all_subgroups"),
            "subgroups.count": c["subgroups"],
            "subgroups.normalizer.s": seconds("subgroups.normalizer"),
            "subgroups.normalizer.calls": count["subgroups.normalizer"],
            "setops.product_mask.s": seconds("setops.product_mask"),
            "setops.product_mask.calls": count["setops.product_mask"],
            "setops.quotient_mask.s": seconds("setops.quotient_mask"),
            "setops.quotient_mask.calls": count["setops.quotient_mask"],
            "classify.classify.s": seconds("classify.classify"),
            "classify.classify.calls": count["classify.classify"],
            "classify.verify_structure.s": seconds("classify.verify_structure"),
            "classify.check_sufficiency.s": seconds("classify.check_sufficiency"),
            "classify.small_single": c["small_single"],
            "classify.small_split": c["small_split"],
            "classify.small_fused": c["small_fused"],
            "census.sweep.s": seconds(*SWEEPS),
            "census.sweep.self_s": self_seconds(*SWEEPS),
            "census.subsets_scanned": c["subsets_scanned"],
            "census.canonical_classes": c["canonical_classes"],
            "census.canonical_yield": (c["canonical_classes"] / c["subsets_scanned"]
                                       if c["subsets_scanned"] else 0.0),
            "census.witness_search.s": seconds("census.find_structure_witness"),
            "census.witness_search.calls": witness_calls,
            "census.witness_hit_ratio": (c["witnesses"] / witness_calls
                                         if witness_calls else 0.0),
            "census.parallel_efficiency": parallel_efficiency,
            "cli.main.self_s": self_seconds("cli.main"),
            "tracing_overhead_s": overhead_s,
        }
        return out
