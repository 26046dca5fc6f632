import json

import pytest

from monopole_corners import ratmaps
from monopole_corners.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_faces_k4_rows(capsys):
    code, out, err = run_cli(capsys, "faces", "--k", "4")
    assert code == 0 and err == ""
    rows = [l for l in out.strip().split("\n")[2:] if l]
    assert len(rows) == 4


def test_faces_codim2_json(capsys):
    code, out, _ = run_cli(capsys, "faces", "--k", "4", "--codim", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    assert all(r["total_dim"] == 11 for r in rows)


def test_faces_invalid_k(capsys):
    code, out, err = run_cli(capsys, "faces", "--k", "1")
    assert code == 2
    assert "error" in err


def test_faces_relative(capsys):
    code, out, _ = run_cli(
        capsys, "faces", "--k", "4", "--nu", "0011", "--format", "json"
    )
    assert code == 0
    assert len(json.loads(out)) == 3


def test_cluster_round_trip(tmp_path, capsys):
    inp = {
        "components": [
            {"center": [0, 0, 0], "diameter": 1.0, "charge": 1},
            {"center": [40, 0, 0], "diameter": 1.0, "charge": 2},
        ],
        "r_prime": 1.0,
    }
    src = tmp_path / "input.json"
    src.write_text(json.dumps(inp))
    csv_path = tmp_path / "rounds.csv"
    code, out, _ = run_cli(
        capsys, "cluster", "--input", str(src), "--rounds-csv", str(csv_path)
    )
    assert code == 0
    dec = json.loads(out)
    assert dec["type"] == [3]
    assert dec["rounds"] == 1
    assert dec["omega"] == {"k": 2, "blocks": [[1, 2]]}
    csv = csv_path.read_text().strip().split("\n")
    assert csv[0] == "t,d,R,gamma,r_omega"
    assert len(csv) == 3


def test_cluster_single_component(tmp_path, capsys):
    src = tmp_path / "one.json"
    src.write_text(
        json.dumps(
            {"components": [{"center": [1, 2, 3], "diameter": 0.5, "charge": 4}]}
        )
    )
    code, out, _ = run_cli(capsys, "cluster", "--input", str(src))
    assert code == 0
    dec = json.loads(out)
    assert dec["type"] == [4] and dec["rounds"] == 0


def test_cluster_malformed_json(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text("{not json")
    code, _, err = run_cli(capsys, "cluster", "--input", str(src))
    assert code == 2 and "error" in err


def test_cluster_missing_file(capsys):
    code, _, err = run_cli(capsys, "cluster", "--input", "/nonexistent/x.json")
    assert code == 2 and "error" in err


def test_chain_three_point_sample(tmp_path, capsys):
    src = tmp_path / "pts.json"
    src.write_text(json.dumps({"points": [[0, 0, 0], [2, 0, 0], [100, 0, 0]]}))
    code, out, _ = run_cli(
        capsys, "chain", "--input", str(src),
        "--base-scale", "10", "--ratio-threshold", "4",
    )
    assert code == 0
    assert out.strip() == "[{{1,2},{3}}]"


def test_chain_json_format(tmp_path, capsys):
    src = tmp_path / "pts.json"
    src.write_text(json.dumps({"points": [[0, 0, 0], [2, 0, 0], [100, 0, 0]]}))
    code, out, _ = run_cli(
        capsys, "chain", "--input", str(src), "--base-scale", "10",
        "--ratio-threshold", "4", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == ["001"]


def test_coords(tmp_path, capsys):
    src = tmp_path / "pts.json"
    src.write_text(json.dumps({"points": [[0, 0, 0], [2, 0, 0], [10, 0, 0]]}))
    code, out, _ = run_cli(capsys, "coords", "--input", str(src), "--chain", "001")
    assert code == 0
    assert json.loads(out) == [0.5, 0.25]


def test_resultant_k1_sample(capsys):
    code, out, _ = run_cli(capsys, "resultant", "--phi", "1", "--psi", "0")
    assert code == 0
    assert out.strip() == "1"


def test_resultant_json(tmp_path, capsys):
    src = tmp_path / "map.json"
    src.write_text(
        json.dumps(
            {"k": 2, "phi": [["1", "0"], ["0", "0"]], "psi": [["0", "0"], ["0", "0"]]}
        )
    )
    code, out, _ = run_cli(capsys, "resultant", "--input", str(src), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["resultant"] == ["1", "0"]
    assert data["strongly_centred"] is True


def test_resultant_needs_input(capsys):
    code, _, err = run_cli(capsys, "resultant")
    assert code == 2 and "error" in err


def assert_one_line_error(code, out, err, *needles):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


@pytest.mark.parametrize("flag,phi,psi", [("--phi", "1/0", "0"), ("--psi", "1", "0/0")])
def test_resultant_zero_denominator(capsys, flag, phi, psi):
    assert_one_line_error(*run_cli(capsys, "resultant", "--phi", phi, "--psi", psi), flag)


_COMPONENT = {"center": [0, 0, 0], "diameter": 1.0, "charge": 1}


@pytest.mark.parametrize(
    "data,needle",
    [
        ({"components": 5}, "'components'"),
        ([_COMPONENT], "JSON object"),
        ({"components": [dict(_COMPONENT, spin=1)]}, "components[0]"),
        ({"components": [5]}, "components[0]"),
        ({"components": [_COMPONENT, dict(_COMPONENT, charge=1.7)]}, "components[1]: charge"),
        ({"components": [dict(_COMPONENT, charge=True)]}, "charge"),
        ({"components": [dict(_COMPONENT, diameter="x")]}, "diameter"),
        ({"components": [dict(_COMPONENT, center=5)]}, "R^3"),
        ({"components": [_COMPONENT], "r_prime": "abc"}, "r_prime"),
    ],
)
def test_cluster_rejects_bad_shape(tmp_path, capsys, data, needle):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(data))
    assert_one_line_error(*run_cli(capsys, "cluster", "--input", str(src)), needle)


_POINTS = [[0, 0, 0], [2, 0, 0]]


@pytest.mark.parametrize("command", [["chain"], ["coords", "--chain", "01"]])
@pytest.mark.parametrize(
    "data,needle",
    [
        ({"points": 5}, "'points'"),
        ({}, "'points'"),
        (_POINTS, "JSON object"),
        ({"points": _POINTS, "charges": 3}, "'charges'"),
        ({"points": _POINTS, "charges": [1.7, 1]}, "charge"),
        ({"points": _POINTS, "charges": ["x", 1]}, "charge"),
        ({"points": _POINTS, "charges": [1, 0]}, "charge"),
        ({"points": [[0, 0, 0], 5]}, "R^3"),
    ],
)
def test_configuration_rejects_bad_shape(tmp_path, capsys, command, data, needle):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(data))
    argv = [command[0], "--input", str(src), *command[1:]]
    assert_one_line_error(*run_cli(capsys, *argv), needle)


@pytest.mark.parametrize(
    "data,needle",
    [
        ({"phi": [["1"]], "psi": [["0", "0"]]}, "phi[0]"),
        ({"phi": [["1/0", "0"]], "psi": [["0", "0"]]}, "phi[0]"),
        ({"phi": [["1", "0"]], "psi": [["0", "x"]]}, "psi[0]"),
        ({"phi": [["1", "0"]], "psi": [["0", "0"], 5]}, "psi[1]"),
        ({"phi": 5, "psi": [["0", "0"]]}, "'phi'"),
        ({"phi": [["1", "0"]]}, "'psi'"),
        ([["1", "0"]], "JSON object"),
        ({"phi": [["1", "0"]], "psi": [["0", "0"]], "phi_phase": "1/0"}, "phi_phase"),
    ],
)
def test_resultant_rejects_bad_map_json(tmp_path, capsys, data, needle):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(data))
    assert_one_line_error(*run_cli(capsys, "resultant", "--input", str(src)), needle)


def test_resultant_json_computes_the_determinant_once(capsys, monkeypatch):
    calls = []
    det = ratmaps._det_bareiss

    def counting(m):
        calls.append(len(m))
        return det(m)

    monkeypatch.setattr(ratmaps, "_det_bareiss", counting)
    code, out, _ = run_cli(
        capsys, "resultant", "--phi", "1,2,1/3", "--psi", "5,0,0", "--format", "json"
    )
    assert code == 0 and json.loads(out)["based"] is True
    assert calls == [5]


def test_cluster_accepts_integral_float_charge(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"components": [dict(_COMPONENT, charge=2.0)]}))
    code, out, _ = run_cli(capsys, "cluster", "--input", str(src))
    assert code == 0 and json.loads(out)["type"] == [2]


def test_gm_weight_json(capsys):
    code, out, _ = run_cli(capsys, "gm", "--lambda", "001", "--nu", "000")
    assert code == 0
    assert json.loads(out) == {
        "lambda": "001",
        "nu": "000",
        "weights": {"1": {"[3]": 2}, "3": {"[1,2]": 4}},
    }


def test_gm_pipe_form(capsys):
    code, out, _ = run_cli(capsys, "gm", "--lambda", "0|0|1", "--nu", "0|0|0")
    assert code == 0
    assert json.loads(out)["lambda"] == "001"


def test_gm_rejects_non_flag(capsys):
    code, _, err = run_cli(capsys, "gm", "--lambda", "000", "--nu", "001")
    assert code == 2 and "error" in err


def test_torus_group(capsys):
    code, out, _ = run_cli(capsys, "torus-group", "--type", "2,3")
    assert code == 0
    assert json.loads(out) == {"torus_rank": 1, "finite_order": 1}


def test_validate_ibf(capsys):
    code, out, _ = run_cli(capsys, "validate-ibf", "--k", "4")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == []
    assert len(data["edges"]) == 5


def test_cover_schedule(capsys):
    code, out, _ = run_cli(capsys, "cover-schedule", "--k", "3")
    assert code == 0
    assert json.loads(out) == [
        {"type": [1, 1, 1], "depth": 0},
        {"type": [1, 2], "depth": 1},
    ]


def test_output_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "atlas.json"
    code, out, _ = run_cli(
        capsys, "faces", "--k", "3", "--format", "json", "--output", str(dest)
    )
    assert code == 0 and out == ""
    assert len(json.loads(dest.read_text())) == 2


def test_byte_identical_reruns(capsys):
    first = run_cli(capsys, "faces", "--k", "5", "--codim", "2", "--format", "json")
    second = run_cli(capsys, "faces", "--k", "5", "--codim", "2", "--format", "json")
    assert first == second
    a = run_cli(capsys, "gm", "--lambda", "0012", "--nu", "0000")
    b = run_cli(capsys, "gm", "--lambda", "0012", "--nu", "0000")
    assert a == b


def test_atlas_json_round_trips_through_schema(capsys):
    _, out, _ = run_cli(capsys, "faces", "--k", "4", "--codim", "2", "--format", "json")
    rows = json.loads(out)
    from monopole_corners.partitions import SetPartition

    for row in rows:
        chain = [SetPartition.from_rgs(s) for s in row["chain"]]
        assert [len(b) for b in chain[0].blocks] != []
        assert row["fiber_dim"] + sum(row["base_dims"]) == row["total_dim"]
