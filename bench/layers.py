"""Per-layer metrics from the spans of one traced pass.

A span's self time is its duration minus the durations of its direct child
spans (one thread, so children never overlap).  Inclusive times count only
the outermost span of a name, so a recursive or re-entrant call is not
counted twice.  Counts are sums over the pass's commands.
"""

from __future__ import annotations

#: per-layer metric -> unit, in the order they are reported
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "poset.view_build_s": "s",
    "poset.elements": "count",
    "poset.fixed_by_s": "s",
    "poset.covers_s": "s",
    "poset.fixed_chain_count_s": "s",
    "setparts.refines_calls": "count",
    "setparts.act_calls": "count",
    "topology.order_complex_s": "s",
    "topology.d2_check_s": "s",
    "topology.simplices": "count",
    "topology.homology_self_s": "s",
    "topology.lefschetz_s": "s",
    "topology.mobius_s": "s",
    "snf.invariant_factors_s": "s",
    "snf.calls": "count",
    "snf.nnz_in": "count",
    "snf.max_rows": "count",
    "snf.max_cols": "count",
    "snf.rank": "count",
    "snf.unit_factors": "count",
    "snf.torsion_factors": "count",
    "symfunc.plethysm_s": "s",
    "symfunc.plethysm_calls": "count",
    "symfunc.plethysm_terms_out": "count",
    "symfunc.in_basis_s": "s",
    "symfunc.inner_s": "s",
    "chartable.character_misses": "count",
    "chartable.character_hits": "count",
    "reps.self_s": "s",
    "reps.characteristic_calls": "count",
    "classfunc.characteristic_s": "s",
    "checks.self_s": "s",
    "trace.overhead": "ratio",
}

#: counts that must repeat exactly between two traced runs of the same inputs
DETERMINISTIC_COUNTS = (
    "topology.simplices", "snf.nnz_in", "snf.rank", "setparts.refines_calls",
    "symfunc.plethysm_calls", "chartable.character_misses", "cache.hits",
)


def layer_metrics(commands: list[list[dict]]) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead`` for one pass, given
    the span list of each of its commands (parents index into that list)."""
    incl: dict[str, float] = {}
    self_time: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, int] = {}
    maxima: dict[str, int] = {}
    plethysm_calls = plethysm_terms = 0
    for spans in commands:
        children_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                children_time[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            name = s["name"]
            dur = s["end"] - s["start"]
            own = dur - children_time[i]
            self_time[name] = self_time.get(name, 0.0) + own
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            for key, value in s["attrs"].items():
                tag = f"{name}:{key}"
                attrs[tag] = attrs.get(tag, 0) + int(value)
                maxima[tag] = max(maxima.get(tag, 0), int(value))
            p = s["parent"]
            while p is not None and spans[p]["name"] != name:
                p = spans[p]["parent"]
            if p is None:  # outermost span of its name
                incl[name] = incl.get(name, 0.0) + dur
                if name == "symfunc.plethysm":
                    plethysm_calls += 1
                    plethysm_terms += s["attrs"]["terms"]

    def a(tag):
        return attrs.get(tag, 0)

    loads = calls.get("cache.load", 0)
    return {
        "cli.import_s": incl.get("cli.import", 0.0),
        "cli.self_s": self_time.get("cli.main", 0.0),
        "cache.load_s": incl.get("cache.load", 0.0),
        "cache.store_s": incl.get("cache.store", 0.0),
        "cache.hits": a("cache.load:hit"),
        "cache.misses": loads - a("cache.load:hit"),
        "poset.view_build_s": incl.get("poset.view_build", 0.0),
        "poset.elements": a("poset.view_build:elements"),
        "poset.fixed_by_s": incl.get("poset.fixed_by", 0.0),
        "poset.covers_s": incl.get("poset.covers", 0.0),
        "poset.fixed_chain_count_s": incl.get("poset.fixed_chain_count", 0.0),
        "setparts.refines_calls": a("cli.main:setparts.refines_calls"),
        "setparts.act_calls": a("cli.main:setparts.act_calls"),
        "topology.order_complex_s": self_time.get("topology.order_complex", 0.0),
        "topology.d2_check_s": incl.get("topology.d2_check", 0.0),
        "topology.simplices": a("topology.order_complex:simplices"),
        "topology.homology_self_s": self_time.get("topology.homology", 0.0),
        "topology.lefschetz_s": incl.get("topology.lefschetz", 0.0),
        "topology.mobius_s": incl.get("topology.mobius", 0.0),
        "snf.invariant_factors_s": incl.get("snf.invariant_factors", 0.0),
        "snf.calls": calls.get("snf.invariant_factors", 0),
        "snf.nnz_in": a("snf.invariant_factors:nnz"),
        "snf.max_rows": maxima.get("snf.invariant_factors:rows", 0),
        "snf.max_cols": maxima.get("snf.invariant_factors:cols", 0),
        "snf.rank": a("snf.invariant_factors:rank"),
        "snf.unit_factors": a("snf.invariant_factors:units"),
        "snf.torsion_factors": a("snf.invariant_factors:torsion"),
        "symfunc.plethysm_s": incl.get("symfunc.plethysm", 0.0),
        "symfunc.plethysm_calls": plethysm_calls,
        "symfunc.plethysm_terms_out": plethysm_terms,
        "symfunc.in_basis_s": incl.get("symfunc.in_basis", 0.0),
        "symfunc.inner_s": incl.get("symfunc.inner", 0.0),
        "chartable.character_misses": a("cli.main:chartable.character_misses"),
        "chartable.character_hits": a("cli.main:chartable.character_hits"),
        "reps.self_s": layer_self.get("reps", 0.0),
        "reps.characteristic_calls": calls.get("reps.characteristic", 0),
        "classfunc.characteristic_s": incl.get("classfunc.characteristic", 0.0),
        "checks.self_s": layer_self.get("checks", 0.0),
    }
