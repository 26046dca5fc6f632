"""Tests of the benchmark itself: oracles reproduce hand values, checkers
accept the program's real output and reject corrupted copies of it, and
the job runner and run.py behave as the benchmark relies on."""

import copy
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import oracles as O
import runner
from monopole_corners import clusters, faces, partitions, ratmaps

HERE = Path(__file__).resolve().parent


# --------------------------------------------------------------------------
# Oracles against hand values.
# --------------------------------------------------------------------------


def test_codim1_counts_are_partition_numbers_minus_one():
    assert [O.chain_orbit_counts((k,))[1] for k in range(2, 9)] == [1, 2, 4, 6, 10, 14, 21]


def test_deepest_counts_are_zigzag_numbers():
    assert [O.chain_orbit_counts((k,))[k - 1] for k in range(2, 9)] == [1, 1, 2, 5, 16, 61, 272]


def test_k8_chain_orbit_counts():
    assert O.chain_orbit_counts((8,)) == {1: 21, 2: 180, 3: 740, 4: 1602, 5: 1877, 6: 1127, 7: 272}


def test_relative_codim1_is_product_of_partition_numbers_minus_one():
    p = {n: len(O.integer_partitions(n)) for n in range(1, 9)}
    for shape in ((4, 4), (3, 3, 2), (2, 2, 2, 2), (5, 3), (6, 1, 1)):
        want = 1
        for s in shape:
            want *= p[s]
        assert O.chain_orbit_counts(shape)[1] == want - 1


def test_bell_triangle():
    assert O.bell_numbers(10) == [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_euler_transform_of_ones_counts_integer_partitions():
    assert O.euler_transform([0] + [1] * 10)[1:] == [len(O.integer_partitions(n)) for n in range(1, 11)]


def test_type_refinement_and_depths_by_hand():
    assert O.type_refines((1, 1, 2), (2, 2))
    assert not O.type_refines((2, 2), (1, 3))
    assert O.type_refines((1, 1, 1, 3), (3, 3))
    assert O.type_depths(4) == {(1, 1, 1, 1): 0, (1, 1, 2): 1, (2, 2): 2, (1, 3): 2}


def test_flag_orders_by_hand():
    # {1},{2},{3} < {1,2},{3}: swapping 1 and 2 is the only symmetry, and it acts
    # trivially on the coarse level.
    assert O.flag_orders((0, 1, 2), (0, 0, 1)) == (2, 2)
    # {1},{2},{3},{4} < {1,2},{3,4}: Sym0 swaps inside each pair, Sym also swaps the pairs.
    assert O.flag_orders((0, 1, 2, 3), (0, 0, 1, 1)) == (4, 8)


def test_planted_resultants():
    rng = random.Random(5)
    for k in (1, 2, 3, 4):
        for kind in gen.MAP_KINDS:
            m = gen.rational_map(rng, k, kind)
            if kind == "one":
                assert m["expected"]["strongly_centred"]
            if kind == "shared":
                assert m["expected"]["resultant"] == ["0", "0"]


def test_generated_structure_does_not_depend_on_seed():
    sizes = {
        s: O.threshold_merge(gen.multiscale_clusters(random.Random(s), 2)["components"], 1.0)["sizes"]
        for s in (1, 2, 3)
    }
    assert sizes[1] == sizes[2] == sizes[3] == [128, 32, 8, 2]
    small = [O.threshold_merge(i["components"], 1.0)["sizes"]
             for i in gen.small_cluster_inputs(random.Random(9), 30)]
    again = [O.threshold_merge(i["components"], 1.0)["sizes"]
             for i in gen.small_cluster_inputs(random.Random(10), 30)]
    assert small == again


def test_same_seed_same_inputs():
    a = gen.rational_maps(random.Random("x-1"), (2, 3), 4)
    b = gen.rational_maps(random.Random("x-1"), (2, 3), 4)
    assert a == b


# --------------------------------------------------------------------------
# Checkers accept the program's output and reject corruptions of it.
# --------------------------------------------------------------------------


def _atlas_rows(k, d, nu=None):
    part = partitions.SetPartition.from_rgs(nu) if nu else None
    return [f.to_json_dict() for f in faces.corner_atlas(k, d, part)]


@pytest.mark.parametrize("k,d,nu", [(5, 2, None), (6, 3, None), (6, 2, "001122"), (6, 3, "000111")])
def test_faces_checker_accepts_program_output(k, d, nu):
    assert checks.faces(_atlas_rows(k, d, nu), k, d, nu) == []


def test_faces_checker_rejects_dropped_face():
    rows = _atlas_rows(6, 3)
    assert checks.faces(rows[1:], 6, 3)


def test_faces_checker_rejects_duplicated_orbit():
    rows = _atlas_rows(6, 2)
    # Relabel the first face's chain by the transposition (1 2) and put it in
    # place of another face: the count still matches, the towers repeat.
    relabelled = []
    for s in rows[0]["chain"]:
        labels = [s[1], s[0], *s[2:]]
        seen = {}
        relabelled.append("".join(str(seen.setdefault(x, len(seen))) for x in labels))
    bad = copy.deepcopy(rows)
    bad[1] = dict(bad[0], chain=relabelled)
    assert any("tower" in p for p in checks.faces(bad, 6, 2))


def test_faces_checker_rejects_wrong_dimensions():
    rows = copy.deepcopy(_atlas_rows(5, 2))
    rows[0]["fiber_dim"] += 1
    assert checks.faces(rows, 5, 2)


def test_chains_checker_rejects_non_refining_chain():
    flags = [[p.to_rgs() for p in f] for f in partitions.chains_mod_symmetric_group(5, 2)]
    assert checks.chains(flags, 5, 2) == []
    flags[0] = list(reversed(flags[0]))
    assert checks.chains(flags, 5, 2)


def test_ibf_checker_rejects_dropped_edge():
    report = faces.validate_ibf(6)
    edges = [[list(a.parts), list(b.parts)] for a, b in report.edges]
    assert checks.ibf_edges(edges, list(report.violations), 6) == []
    assert checks.ibf_edges(edges[1:], [], 6)


def test_cover_schedule_checker():
    rows = [{"type": list(t.parts), "depth": dep} for t, dep in faces.cover_schedule(6)]
    assert checks.cover_schedule(rows, 6) == []
    rows[-1]["depth"] += 1
    assert checks.cover_schedule(rows, 6)


def test_resultant_checker_rejects_wrong_resultant():
    m = gen.rational_map(random.Random(3), 3, "generic")
    pair = ratmaps.RationalMapPair.from_json_dict(m["map"])
    got = {"resultant": ratmaps.resultant(pair).to_json_pair(), "based": ratmaps.is_based(pair),
           "centred": ratmaps.is_centred(pair), "strongly_centred": ratmaps.is_strongly_centred(pair)}
    assert checks.resultant(got, m["expected"]) == []
    got["resultant"] = [got["resultant"][0] + "1", got["resultant"][1]]
    assert checks.resultant(got, m["expected"])


def _decomposition(inp):
    dec = clusters.taubes_cluster(clusters.StrongFieldInput.from_json_dict(inp))
    return {
        "blocks": [list(b) for b in dec.omega.blocks], "centers": [list(c) for c in dec.centers],
        "radius": dec.radius, "gamma": dec.gamma, "diameter": dec.diameter, "rounds": dec.rounds,
        "charges": list(dec.cluster_charges), "type": list(dec.cluster_type.parts),
        "sizes": [r.n_clusters for r in dec.history],
    }


def test_cluster_checker_rejects_wrong_omega():
    case = gen.with_expected(gen.sparse_clusters(random.Random(4), 12))
    got = _decomposition(case["input"])
    assert checks.taubes(got, case["expected"]) == []
    got["blocks"] = [got["blocks"][0] + got["blocks"][1]] + got["blocks"][2:]
    assert checks.taubes(got, case["expected"])


def test_cluster_checker_matches_multiscale_program_output():
    case = gen.with_expected(gen.multiscale_clusters(random.Random(6), 2))
    got = _decomposition(case["input"])
    assert checks.taubes(got, case["expected"]) == []
    got["rounds"] -= 1
    assert checks.taubes(got, case["expected"])


def test_scale_chain_checker():
    cfg = gen.planted_configuration(random.Random(8), 2, 3, 4)
    flag = clusters.scale_chain(clusters.Configuration(cfg["points"]))
    got = [p.to_rgs() for p in flag]
    assert checks.scale_chain(got, cfg["expected_chain"]) == []
    assert checks.scale_chain(got[:1], cfg["expected_chain"])


def test_count_checkers():
    assert checks.partition_count({"count": 52, "distinct": 52}, 5) == []
    assert checks.partition_count({"count": 52, "distinct": 51}, 5)
    assert checks.torus_group([1, 2], [2, 4]) == []
    assert checks.torus_group([1, 1], [2, 4])
    types = O.proper_types(6)
    pairs = [[list(a), list(b)] for i, a in enumerate(types) for b in types[i + 1 :]]
    counts = [faces.intersection_components(6, partitions.IntegerPartition(a),
                                            partitions.IntegerPartition(b)) for a, b in pairs]
    assert checks.intersections(counts, pairs, 6) == []
    counts[counts.index(max(counts))] += 1
    assert checks.intersections(counts, pairs, 6)


# --------------------------------------------------------------------------
# Job runner and run.py.
# --------------------------------------------------------------------------


def test_runner_reports_output_status_and_timeout(tmp_path):
    with runner.Runner({}, tmp_path, tmp_path) as jobs:
        ok = jobs.run(["-c", "print('hi')"], 30)
        slow = jobs.run(["-c", "import time; time.sleep(30)"], 0.3)
    assert (ok.status, ok.stdout, ok.timed_out) == (0, b"hi\n", False)
    assert ok.cpu_s > 0 and ok.maxrss_mb > 0 and ok.wall_s > 0
    assert slow.timed_out and slow.status != 0 and slow.wall_s < 10


def test_run_refuses_to_start_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
