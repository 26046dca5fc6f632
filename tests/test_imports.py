"""Import footprint: a cold process loads only the modules its command uses.

Every check starts a fresh interpreter, because the modules an earlier test
imported stay in this process's `sys.modules`.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monopole_corners

SRC = str(Path(monopole_corners.__file__).resolve().parents[1])

#: The public names of the package, by the module that defines them.
PUBLIC = {
    "clusters": "ClusterDecomposition Configuration StrongFieldComponent StrongFieldInput "
                "boundary_coords is_decomposable scale_chain separation taubes_cluster "
                "types_comparable",
    "errors": "ChainError DegenerateInputError RangeLimitError",
    "faces": "FaceDescriptor IbfReport corner_atlas cover_schedule hypersurface_atlas "
             "intersection_components iter_corner_atlas validate_ibf",
    "gibbons_manton": "ChernWeightSystem TorusGroupStructure restriction_splits sym_action "
                      "torus_group_structure weight_system",
    "manybody": "ManyBodyFace ManyBodyStructure comparable diagonal_structure face_of_chain "
                "hypersurfaces validate",
    "partitions": "ChainFlag IntegerPartition SetPartition all_partitions "
                  "chains_mod_symmetric_group flag_symmetry_orders integer_partitions join meet "
                  "one_block orbit_canonical refines refines_integer_partition singletons "
                  "symmetry_orders type_of",
    "ratmaps": "GaussianRational Phase RationalMapPair deck_orbit deck_transform is_based "
               "is_centred is_strongly_centred resultant torus_act",
}

ALL_MODULES = ("clusters", "errors", "faces", "gibbons_manton", "inputs", "manybody",
               "partitions", "ratmaps")


def loaded_after(code: str) -> set[str]:
    """Modules in sys.modules after running `code` in a fresh interpreter."""
    probe = code + "\nimport json, sys\nsys.stderr.write('\\n' + json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.rsplit("\n", 1)[-1]))


def library(modules: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("monopole_corners.")}


def run_cli(*argv: str) -> set[str]:
    code = ("import contextlib, io\nfrom monopole_corners import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({list(argv)!r}) == 0\n")
    return loaded_after(code)


def test_package_import_loads_no_submodule():
    modules = loaded_after("import monopole_corners")
    assert library(modules) == set()
    assert "dataclasses" not in modules and "fractions" not in modules


def test_cli_import_loads_only_its_readers():
    modules = loaded_after("import monopole_corners.cli")
    assert library(modules) <= {"cli", "inputs", "errors"}
    assert "dataclasses" not in modules and "fractions" not in modules


ATLAS_COMMANDS = [
    ("faces", "--k", "3", "--codim", "1"),
    ("faces", "--k", "5"),
    ("faces", "--k", "6", "--codim", "2", "--nu", "001122", "--format", "json"),
    ("validate-ibf", "--k", "4"),
    ("cover-schedule", "--k", "5"),
]


@pytest.mark.parametrize("argv", ATLAS_COMMANDS, ids=" ".join)
def test_atlas_commands_skip_the_other_layers(argv):
    modules = run_cli(*argv)
    assert not library(modules) & {"clusters", "ratmaps", "gibbons_manton", "manybody"}
    assert "dataclasses" not in modules and "fractions" not in modules


@pytest.mark.parametrize("argv", [
    ("resultant", "--phi", "1/3,2/5", "--psi", "0,1/2"),
    ("resultant", "--phi", "-1/2", "--psi", "0,1", "--format", "json"),
], ids=" ".join)
def test_resultant_skips_the_partition_layers(argv):
    modules = run_cli(*argv)
    assert not library(modules) & {"partitions", "faces", "clusters"}
    assert "dataclasses" not in modules


def test_no_path_loads_dataclasses(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"points": [[0, 0, 0], [2, 0, 0], [1000, 0, 0]]}))
    strong = tmp_path / "strong.json"
    strong.write_text(json.dumps({"components": [
        {"center": [0, 0, 0], "diameter": 1, "charge": 1},
        {"center": [30, 0, 0], "diameter": 1, "charge": 2}]}))
    for argv in [("cluster", "--input", str(strong)),
                 ("chain", "--input", str(config)),
                 ("coords", "--input", str(config), "--chain", "001"),
                 ("gm", "--lambda", "0012", "--nu", "0001"),
                 ("torus-group", "--type", "2,4")]:
        assert "dataclasses" not in run_cli(*argv), argv
    everything = "\n".join(f"import monopole_corners.{m}" for m in ALL_MODULES)
    modules = loaded_after(everything + "\nfrom monopole_corners import *")
    assert library(modules) >= set(ALL_MODULES)
    assert "dataclasses" not in modules


def test_public_names_resolve_to_their_home_objects():
    code = ("import monopole_corners as pkg\n"
            "from monopole_corners import faces, corner_atlas, validate_structure\n"
            "assert corner_atlas is faces.corner_atlas\n"
            "assert validate_structure.__name__ == 'validate'\n"
            "assert pkg.faces is faces\n")
    assert library(loaded_after(code)) >= {"faces", "manybody"}
    expected = {name: (module, name) for module, names in PUBLIC.items() for name in names.split()}
    expected["validate_structure"] = expected.pop("validate")
    assert sorted(monopole_corners.__all__) == sorted(expected)
    for name in monopole_corners.__all__:
        module, attr = expected[name]
        home = importlib.import_module(f"monopole_corners.{module}")
        assert getattr(monopole_corners, name) is getattr(home, attr), name
    assert set(monopole_corners.__all__) <= set(dir(monopole_corners))
    with pytest.raises(AttributeError):
        monopole_corners.no_such_name
