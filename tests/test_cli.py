import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monopole_corners
from monopole_corners import ratmaps
from monopole_corners.cli import main
from monopole_corners.faces import corner_atlas
from monopole_corners.partitions import SetPartition

SRC = str(Path(monopole_corners.__file__).resolve().parents[1])


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


# sha256 of the stdout of `faces --k 8 --format json` with the extra argv;
# pins which orbit representative, in which order, each face gets.
ATLAS_DIGESTS = {
    ("--codim", "1"): "d03712967205fb4c20891aaa796d7cbd6f5bcdf390eddbdbc5afe3f265f6fc04",
    ("--codim", "2"): "5148420210691c2da508479133ea3f898cca82ceb6ece4714d9959a1d3335311",
    ("--codim", "3"): "10d5af782ec1d88be6d4aa1d833cc4bdc30c1db0b08e4d2456c6792e904dcab9",
    ("--codim", "4"): "ba8e261f63ec4fcdf386cf0b1a605eed994611582a97c7001f475d4232476415",
    ("--codim", "5"): "a246b62790bb1bb36d36839b4b609990094aa80af6e01c41aa5680f54219aef4",
    ("--codim", "6"): "1207cd800e21213f4a10c1ce07895dc8ef5e7c2542306b0edca0367a0b24f014",
    ("--codim", "7"): "b15d4129080e59594c62f39d0b5a5c57b85bf43d182ef417c30d5faa8d259c16",
    ("--nu", "01230123", "--codim", "1"):
        "468093fc14527e212bbdeb03165587fcd3fbcc5086f89e4d0467cd1e9adf656b",
    ("--nu", "01230123", "--codim", "2"):
        "de5c2a499e9310d77f53960be63e3fade71ed3e16310e5d4856dd7c786cbd1cb",
    ("--nu", "01230123", "--codim", "3"):
        "d96a869a0b4b56f90d366e20751bdafbf5a94708d89a7a6761b3865d07f4d3e8",
    ("--nu", "01230123", "--codim", "4"):
        "55e3285d880565a561f733f9e603b5de130d6a92cb589c7ad3a6a18f0bd02da5",
    ("--nu", "00001111", "--codim", "1"):
        "17c193dcaacaeaa012057a1efed96a7886ba50851b0b0448845a26bd24375fe5",
    ("--nu", "00001111", "--codim", "2"):
        "ffa647f0c6f465037cabc1483a851b3858c7c00de763e621fc9dc8ac555c7590",
    ("--nu", "00001111", "--codim", "3"):
        "03a99e4c509e1651ad91af83e1af49fdcd20dc77ef4e7856d725259792567b10",
    ("--nu", "00001111", "--codim", "4"):
        "d27c16c8d8c1641a7babb3053ce9cbb9fcab4c3d94d107f3ead93058475d7ceb",
    ("--nu", "00001111", "--codim", "5"):
        "840095f5c6c976c3639dc92340e61aeb7d2204446f74ae708505c2972cd3ea7f",
    ("--nu", "00001111", "--codim", "6"):
        "aa423d0f900cbe60e21ba50b543788f5b2c55ae93dfd4a4a8ae31cd367e53b30",
    ("--nu", "00011122", "--codim", "1"):
        "57f6f355b6c32d3962c3ad6f16a3be0e5efdb24d1bab7a7d18ee696c4d06afe2",
    ("--nu", "00011122", "--codim", "2"):
        "fa9f233923dd9a6cf90c27ddbdd429981b71a5c894372eb310f9294724170e12",
    ("--nu", "00011122", "--codim", "3"):
        "2429300f24527140ebf03741799feebfdb2334a5043a7f9d207d3bd6f5c564b6",
    ("--nu", "00011122", "--codim", "4"):
        "4e7b7fbffa9c09c97489fcff774983893b8ae91985e682d463c0a24b864d3976",
    ("--nu", "00011122", "--codim", "5"):
        "2a0081328c57fd4b6ff28dab645aca39757423ab806cada1714c367c73b55d69",
}


@pytest.mark.parametrize("argv", list(ATLAS_DIGESTS), ids=" ".join)
def test_k8_atlas_json_digests(capsys, argv):
    code, out, err = run_cli(capsys, "faces", "--k", "8", *argv, "--format", "json")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == ATLAS_DIGESTS[argv]


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
    # one cluster left, so no pairs: epsilon is printed as the float 0.0
    assert out.splitlines()[-2:] == ['  "epsilon": 0.0', "}"]
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


def test_chain_of_one_point_is_empty(tmp_path, capsys):
    src = tmp_path / "pts.json"
    src.write_text(json.dumps({"points": [[1, 2, 3]]}))
    assert run_cli(capsys, "chain", "--input", str(src)) == (0, "[]\n", "")


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


_OVERFLOWING = [[-1e308, 0, 0], [1e308, 1.7e308, 0], [1e308, 0, 0]]


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)])
def test_chain_refuses_distances_beyond_the_float_range(tmp_path, capsys, order):
    src = tmp_path / "pts.json"
    src.write_text(json.dumps({"points": [_OVERFLOWING[i] for i in order]}))
    argv = ["chain", "--input", str(src), "--base-scale", "1", "--ratio-threshold", "1.3"]
    assert_one_line_error(*run_cli(capsys, *argv), "floating-point range")


@pytest.mark.parametrize("points", [
    [[1e308, 0, 0], [-1e308, 0, 0], [0, 1.7e308, 1.7e308]],  # an overflowed distance
    [[0, 0, 0], [5e-324, 0, 0], [1, 0, 0]],  # 1 / 5e-324 overflows
])
def test_coords_refuses_values_beyond_the_float_range(tmp_path, capsys, points):
    src = tmp_path / "pts.json"
    src.write_text(json.dumps({"points": points}))
    argv = ["coords", "--input", str(src), "--chain", "001"]
    assert_one_line_error(*run_cli(capsys, *argv), "floating-point range")


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


@pytest.mark.parametrize(
    "spaced,joined",
    [
        (["--phi", "-1/2", "--psi", "0,1"], ["--phi=-1/2", "--psi=0,1"]),
        (["--phi", "1,2", "--psi", "-1,1"], ["--phi=1,2", "--psi=-1,1"]),
    ],
)
@pytest.mark.parametrize("fmt", ["value", "json"])
def test_resultant_negative_leading_coefficient(capsys, spaced, joined, fmt):
    code, out, err = run_cli(capsys, "resultant", *spaced, "--format", fmt)
    assert code == 0 and err == "" and out
    assert run_cli(capsys, "resultant", *joined, "--format", fmt) == (code, out, err)


@pytest.mark.parametrize("phi", ["1e100000", "1_0", "\u0661", "1."])
def test_resultant_refuses_non_ascii_grammar_coefficients(capsys, phi):
    assert_one_line_error(*run_cli(capsys, "resultant", "--phi", phi, "--psi", "0"), "--phi")


def test_resultant_trailing_flag_without_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resultant", "--psi", "1", "--phi"])
    assert exc.value.code == 2
    assert "--phi: expected one argument" in capsys.readouterr().err


_COMPONENT = {"center": [0, 0, 0], "diameter": 1.0, "charge": 1}
_HUGE = 10**400  # a JSON integer no float can hold


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
        ({"components": [_COMPONENT], "r_prime": _HUGE}, "r_prime"),
        ({"components": [dict(_COMPONENT, diameter=_HUGE)]}, "diameter"),
        ({"components": [dict(_COMPONENT, center=[_HUGE, 0, 0])]}, "non-finite"),
        ({"components": [dict(_COMPONENT, diameter=1e308)]}, "floating-point range"),
        ({"components": [dict(_COMPONENT, center=[0, "0", 0])]}, "center"),
        ({"components": [dict(_COMPONENT, center=[0, 0, False])]}, "center"),
        ({"components": [dict(_COMPONENT, diameter=True)]}, "diameter"),
        ({"components": [dict(_COMPONENT, diameter="1")]}, "diameter"),
        ({"components": [dict(_COMPONENT, charge="2")]}, "charge"),
        ({"components": [_COMPONENT], "r_prime": True}, "r_prime"),
        ({"components": [dict(_COMPONENT, center=[1e308, 0, 0]),
                         dict(_COMPONENT, center=[-1e308, 0, 0])]}, "floating-point range"),
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
        ({"points": [[_HUGE, 0, 0], [1, 0, 0]]}, "non-finite"),
        ({"points": _POINTS, "charges": [_HUGE, 1]}, "charge"),
        ({"points": _POINTS, "charges": [True, 1]}, "charge"),
        ({"points": [["0", "0", "0"], ["1e1", "0", "0"]]}, "points[0]"),
        ({"points": [[0, 0, 0], [True, 0, 0]]}, "points[1]"),
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
        ({"phi": [[True, False]], "psi": [["0", "0"], [True, "0"]]}, "phi[0]"),
        ({"phi": [["1", "0"]], "psi": [["0", "0"]], "phi_phase": True}, "phi_phase"),
        ({"phi": [[1.5, "0"]], "psi": [["0", "0"]]}, "phi[0]"),
        ({"phi": [["1", 0.0]], "psi": [["0", "0"]]}, "phi[0]"),
    ],
)
def test_resultant_rejects_bad_map_json(tmp_path, capsys, data, needle):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(data))
    assert_one_line_error(*run_cli(capsys, "resultant", "--input", str(src)), needle)


def test_resultant_json_computes_the_determinant_once(capsys, monkeypatch):
    calls = []
    det = ratmaps._det_bareiss

    def counting(re, im):
        calls.append(len(re))
        return det(re, im)

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
    code, _, err = run_cli(capsys, "gm", "--lambda", "0", "--nu", "0")
    assert code == 2 and err == "error: {{1}} does not strictly refine {{1}}\n"


def test_torus_group(capsys):
    code, out, _ = run_cli(capsys, "torus-group", "--type", "2,3")
    assert code == 0
    assert json.loads(out) == {"torus_rank": 1, "finite_order": 1}


@pytest.mark.parametrize(
    "argv,field",
    [
        (["torus-group", "--type", "1_0,2"], "--type"),
        (["torus-group", "--type", "\u0661,2"], "--type"),
        (["torus-group", "--type", "0,2"], "--type"),
        (["torus-group", "--type", "2,"], "--type"),
        (["gm", "--lambda", "0\u0661", "--nu", "00"], "--lambda"),
        (["gm", "--lambda", "01", "--nu", "0_"], "--nu"),
        (["gm", "--lambda", "021", "--nu", "000"], "--lambda"),
        (["faces", "--k", "3", "--nu", "0|1|"], "--nu"),
        (["faces", "--k", "\u0663"], "--k"),
        (["faces", "--k", "3", "--codim", "0_1"], "--codim"),
        (["faces", "--k", "three"], "--k"),
        (["faces", "--k", "-3"], "--k"),
        (["faces", "--k", "3.0"], "--k"),
        (["validate-ibf", "--k", "4_"], "--k"),
        (["cover-schedule", "--k", " 4"], "--k"),
    ],
)
def test_argv_integers_are_ascii_digits(capsys, argv, field):
    assert_one_line_error(*run_cli(capsys, *argv), field)


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--r-prime", "1e3"),
        ("--r-prime", "\u0661"),
        ("--r-prime", "inf"),
        ("--r-prime", "1" * 400),
        ("--base-scale", "1_0"),
        ("--base-scale", "nan"),
        ("--ratio-threshold", "4e0"),
        ("--ratio-threshold", "0x10"),
    ],
)
def test_argv_reals_use_the_rational_grammar(tmp_path, capsys, flag, value):
    command = "cluster" if flag == "--r-prime" else "chain"
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"components": [_COMPONENT], "points": [[0, 0, 0]]}))
    assert_one_line_error(*run_cli(capsys, command, "--input", str(src), flag, value), flag)


def test_argv_reals_read_decimals_and_fractions(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"points": [[0, 0, 0], [0, 0, 1], [0, 0, 100]]}))
    runs = [
        run_cli(capsys, "chain", "--input", str(src), "--base-scale", scale, "--ratio-threshold", ratio)
        for scale, ratio in (("10", "4"), ("10.0", "8/2"), ("+20/2", "4.00"))
    ]
    assert runs[0][0] == 0 and runs[0][1] == "[{{1,2},{3}}]\n"
    assert runs == [runs[0]] * 3


@pytest.mark.parametrize(
    "text", ["", "{", "[1,]", "\xff", pytest.param("[" * 100_000, id="deep-array")]
)
def test_malformed_json_input_names_the_file(tmp_path, capsys, text):
    src = tmp_path / "bad.json"
    src.write_bytes(text.encode("latin-1"))
    for command in ("cluster", "chain", "coords", "resultant"):
        code, out, err = run_cli(capsys, command, "--input", str(src))
        assert_one_line_error(code, out, err, f"--input {src}: ")


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


def test_faces_empty_nu_is_refused(capsys):
    assert_one_line_error(*run_cli(capsys, "faces", "--k", "3", "--nu", ""), "--nu is empty")


# ---------------------------------------------------------------------------
# `faces` streams its rows; the bytes are those of the whole-list encoders.
# ---------------------------------------------------------------------------

#: Relative atlases below 4+4, 3+3+2 and 2+2+2+2, with interleaved labels.
INTERLEAVED_NU = ("01010101", "01201201", "01230123")


def faces_commands(k, nu=None):
    """(argv, corner_atlas arguments) for the hypersurface form and every
    codim of one atlas, the empty codims included."""
    extra = ["--nu", nu] if nu else []
    nu_part = SetPartition.from_rgs(nu) if nu else None
    yield ["faces", "--k", str(k), *extra], (k, 1, nu_part)
    for d in range(1, k + 1):
        yield ["faces", "--k", str(k), "--codim", str(d), *extra], (k, d, nu_part)


def assert_streams_like_the_stdlib_encoder(capsys, tmp_path, argv, atlas_args):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    expected = json.dumps([d.to_json_dict() for d in corner_atlas(*atlas_args)], indent=2)
    assert (code, out, err) == (0, expected + "\n", "")
    for fmt in ("json", "table"):
        code, shown, _ = run_cli(capsys, *argv, "--format", fmt)
        dest = tmp_path / f"faces.{fmt}"
        assert run_cli(capsys, *argv, "--format", fmt, "--output", str(dest)) == (0, "", "")
        assert code == 0 and dest.read_text() + "\n" == shown


@pytest.mark.parametrize("k", range(2, 9))
def test_faces_json_is_the_stdlib_encoding(capsys, tmp_path, k):
    for argv, atlas_args in faces_commands(k):
        assert_streams_like_the_stdlib_encoder(capsys, tmp_path, argv, atlas_args)


@pytest.mark.parametrize("nu", INTERLEAVED_NU)
def test_relative_faces_json_is_the_stdlib_encoding(capsys, tmp_path, nu):
    for argv, atlas_args in faces_commands(len(nu), nu):
        assert_streams_like_the_stdlib_encoder(capsys, tmp_path, argv, atlas_args)


def test_faces_without_faces_prints_an_empty_array_and_a_bare_table(capsys):
    code, out, _ = run_cli(capsys, "faces", "--k", "4", "--codim", "4", "--format", "json")
    assert (code, out) == (0, "[]\n")
    code, out, _ = run_cli(capsys, "faces", "--k", "4", "--codim", "4")
    assert code == 0 and out.count("\n") == 2 and out.endswith("-\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--k", "1"],
        ["--k", "9"],
        ["--k", "x"],
        ["--k", "4", "--codim", "0"],
        ["--k", "4", "--codim", "0_1"],
        ["--k", "4", "--nu", ""],
        ["--k", "4", "--nu", "0|1|"],
        ["--k", "4", "--nu", "001"],
    ],
    ids=" ".join,
)
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_bad_faces_input_writes_no_file(capsys, tmp_path, argv, fmt):
    dest = tmp_path / "faces.out"
    code, out, err = run_cli(capsys, "faces", *argv, "--format", fmt, "--output", str(dest))
    assert_one_line_error(code, out, err)
    assert not dest.exists()


def test_closed_stdout_exits_141_and_writes_no_error():
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = [sys.executable, "-m", "monopole_corners.cli",
            "faces", "--k", "8", "--codim", "5", "--format", "json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert len(head) == 100 and head.startswith(b"[\n  {")
    assert err == b""


def test_unwritable_output_is_one_line_error(capsys, tmp_path):
    dest = tmp_path / "missing" / "faces.json"
    code, out, err = run_cli(capsys, "faces", "--k", "3", "--output", str(dest))
    assert_one_line_error(code, out, err)
