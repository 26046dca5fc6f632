"""Per-layer metrics from the spans of a traced run.

Span durations are summed per layer; rates and per-call figures divide
by work sizes read off the outputs (chains emitted, maps evaluated,
inputs decomposed).  Differences of spans at the same command give the
layers that have no public function of their own: descriptor building
(corner_atlas minus chain enumeration) and output formatting (cli.main
minus corner_atlas).
"""

from __future__ import annotations

import statistics
from collections import defaultdict


def per_layer(spans: list[dict], jobs: list[dict], work: dict) -> dict:
    total = defaultdict(float)        # (name, tag) -> seconds
    calls = defaultdict(int)
    for s in spans:
        key = (s["name"], s["tag"])
        total[key] += (s["end"] - s["start"]) / 1e9
        calls[key] += 1

    def by_name(name: str, tags=None) -> float:
        return sum(v for (n, t), v in total.items() if n == name and (tags is None or t in tags))

    def per_call_ms(name: str, tag: str) -> float:
        return 1000 * total[(name, tag)] / calls[(name, tag)]

    chain_tags = {t for (n, t) in total if n == "partitions.chains_mod_symmetric_group"}
    atlas_tags = {t for (n, t) in total if n == "faces.corner_atlas"}
    chains_s = by_name("partitions.chains_mod_symmetric_group")
    imports = [(s["end"] - s["start"]) / 1e9 for s in spans if s["name"] == "cli.import"]
    rss = {j["id"]: j["maxrss_mb"] for j in jobs}

    values = {
        "partitions.chains_s": (chains_s, "s"),
        "partitions.chains_per_s": (work["partitions.chains_emitted"] / chains_s, "1/s"),
        "partitions.iter_s": (by_name("partitions.iter_partitions"), "s"),
        "partitions.flag_orders_s": (by_name("partitions.flag_symmetry_orders"), "s"),
        "faces.atlas_s": (by_name("faces.corner_atlas"), "s"),
        "faces.descriptor_s": (by_name("faces.corner_atlas", chain_tags) - chains_s, "s"),
        "faces.validate_ibf_s": (by_name("faces.validate_ibf"), "s"),
        "faces.cover_schedule_s": (by_name("faces.cover_schedule"), "s"),
        "faces.intersection_components_s": (by_name("faces.intersection_components"), "s"),
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.main_s": (by_name("cli.main", _atlas_commands(total)), "s"),
        "cli.format_s": (by_name("cli.main", atlas_tags) - by_name("faces.corner_atlas"), "s"),
        "ratmaps.resultant_ms.k2": (per_call_ms("ratmaps.resultant", "k2"), "ms"),
        "ratmaps.resultant_ms.k3": (per_call_ms("ratmaps.resultant", "k3"), "ms"),
        "ratmaps.resultant_ms.k5": (per_call_ms("ratmaps.resultant", "k5"), "ms"),
        "ratmaps.resultant_ms.k8": (per_call_ms("ratmaps.resultant", "k8"), "ms"),
        "ratmaps.verdicts_ms.k8": (per_call_ms("ratmaps.verdicts", "k8"), "ms"),
        "clusters.taubes_s.sparse": (total[("clusters.taubes_cluster", "sparse")], "s"),
        "clusters.taubes_s.dense": (total[("clusters.taubes_cluster", "dense")], "s"),
        "clusters.taubes_s.multiscale": (total[("clusters.taubes_cluster", "multiscale")], "s"),
        "clusters.taubes_ms.small": (per_call_ms("clusters.taubes_cluster", "small"), "ms"),
        "clusters.scale_chain_s": (by_name("clusters.scale_chain"), "s"),
        "manybody.diagonal_structure_s": (by_name("manybody.diagonal_structure"), "s"),
        "manybody.validate_s": (by_name("manybody.validate"), "s"),
        "manybody.diagonal_rss_mb": (rss["manybody/k7"], "MB"),
        "gibbons_manton.restriction_splits_s": (by_name("gibbons_manton.restriction_splits"), "s"),
        "gibbons_manton.torus_group_ms": (1000 * by_name("gibbons_manton.torus_group_structure"), "ms"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _atlas_commands(total) -> set[str]:
    """Tags of the atlas workload's CLI commands."""
    return {t for (n, t) in total
            if n == "cli.main" and t.split("/")[0] in ("faces", "validate-ibf", "cover-schedule")}
