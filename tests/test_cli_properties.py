"""Property tests of the CLI input contract.

Any argv and any JSON input file, fed to every subcommand, end in exit 0
or 2 and never in an escaped exception; an error the CLI handles itself is
one line on stderr.  argparse usage errors (SystemExit 2, a usage block)
and --help (SystemExit 0) are the only other ways out.

Numbers are never coerced: replacing one number in a valid document by a
value of another kind turns exit 0 into exit 2.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monopole_corners.cli import main

FLAGS = {
    "faces": ["--k", "--codim", "--nu", "--format", "--output"],
    "cluster": ["--input", "--r-prime", "--rounds-csv", "--output"],
    "chain": ["--input", "--base-scale", "--ratio-threshold", "--format", "--output"],
    "coords": ["--input", "--chain", "--output"],
    "resultant": ["--input", "--phi", "--psi", "--format", "--output"],
    "gm": ["--lambda", "--nu", "--output"],
    "torus-group": ["--type", "--output"],
    "validate-ibf": ["--k", "--output"],
    "cover-schedule": ["--k", "--output"],
}

_small_int = st.integers(-2, 9)
_number = _small_int | st.integers() | st.floats() | st.sampled_from([10**400, -(10**400)])
_rational = st.fractions(max_denominator=9).map(str) | _number.map(str)
_json_leaf = st.none() | st.booleans() | _number | st.text(max_size=6)
_json = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)


def _mostly(good, n=8):
    """A value from `good` in about n - 1 of n draws, else an arbitrary
    number or JSON value."""
    return st.integers(0, n - 1).flatmap(lambda i: _number | _json if i == n - 1 else good)


_point = _mostly(st.lists(_mostly(st.integers(-50, 50) | st.floats(-100, 100)), min_size=3, max_size=3))
_component = _mostly(st.fixed_dictionaries({
    "center": _point,
    "diameter": _mostly(st.integers(0, 40) | st.floats(0, 40)),
    "charge": _mostly(st.integers(1, 3)),
}))
_pair = _mostly(st.lists(_rational, min_size=2, max_size=2))
# Documents shaped like each input format, with arbitrary values inside.
_SHAPED = {
    "cluster": _mostly(st.fixed_dictionaries(
        {"components": _mostly(st.lists(_component, min_size=1, max_size=3))},
        optional={"r_prime": _mostly(st.floats(0.1, 5))},
    )),
    "chain": _mostly(st.fixed_dictionaries(
        {"points": _mostly(st.lists(_point, min_size=1, max_size=4))},
        optional={"charges": _mostly(st.lists(_mostly(st.integers(1, 3)), max_size=5))},
    )),
    "resultant": _mostly(st.fixed_dictionaries(
        {"phi": _mostly(st.lists(_pair, max_size=4)), "psi": _mostly(st.lists(_pair, min_size=1, max_size=5))},
        optional={"phi_phase": _mostly(_rational)},
    )),
}
_SHAPED["coords"] = _SHAPED["chain"]
_rgs = (
    st.sampled_from(["0", "00", "01", "000", "001", "012", "0011", "0012", "0123"])
    | st.lists(_small_int, min_size=1, max_size=8).map(lambda xs: "".join(map(str, xs)))
    | st.text(alphabet="0123|-a", max_size=9)
)
_any = st.text(max_size=8)
_VALUES = {
    "--k": _small_int.map(str),
    "--codim": _small_int.map(str),
    "--nu": _rgs,
    "--lambda": _rgs,
    "--chain": st.lists(_rgs, max_size=3).map(",".join),
    "--phi": st.lists(_rational, min_size=1, max_size=4).map(",".join),
    "--psi": st.lists(_rational, min_size=1, max_size=4).map(",".join),
    "--type": st.lists(_small_int.map(str) | _rational, min_size=1, max_size=4).map(",".join),
    "--format": st.sampled_from(["json", "table", "value"]),
    "--r-prime": (st.floats(0.1, 5) | st.floats()).map(repr),
    "--base-scale": (st.floats(1, 1000) | st.floats()).map(repr),
    "--ratio-threshold": (st.floats(1.5, 20) | st.floats()).map(repr),
}


def _sometimes(draw, n):
    """True in about one of n draws (hypothesis favours small integers)."""
    return draw(st.integers(0, n - 1)) == n - 1


@st.composite
def _run(draw, files):
    """A JSON document and an argv.  Most runs pass a known command, most
    of its flags, values of roughly the right kind and a document shaped
    for the command; the rest are arbitrary."""
    paths = {
        "--input": [files["input"]] * 3 + [files["missing"], files["dir"]],
        "--output": [files["out"]] * 3 + [files["dir"]],
    }
    paths["--rounds-csv"] = paths["--output"]
    command = draw(_any) if _sometimes(draw, 10) else draw(st.sampled_from(sorted(FLAGS)))
    document = draw(_SHAPED.get(command, _json))
    argv = [command]
    for flag in FLAGS.get(command, []):
        if _sometimes(draw, 5):
            continue
        if flag in paths:
            value = draw(st.sampled_from(paths[flag]))
        else:
            value = draw(_any) if _sometimes(draw, 5) else draw(_VALUES[flag])
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    if _sometimes(draw, 8):
        argv.append(draw(st.sampled_from(["--bogus", "--", "-h", "--k", "--phi"]) | _any))
    return document, argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_properties")
    return {
        "input": str(root / "input.json"),
        "missing": str(root / "missing.json"),
        "dir": str(root),
        "out": str(root / "out.txt"),
    }


@settings(
    max_examples=400,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_exits_0_or_2_on_any_input(files, data):
    document, argv = data.draw(_run(files))
    with open(files["input"], "w") as fh:
        json.dump(document, fh)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, document, err.getvalue())
            return
    assert code in (0, 2), (argv, document, err.getvalue())
    if code == 2:
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, (argv, document, message)


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


_coord = st.integers(-50, 50) | st.floats(-100, 100)
_points = st.lists(st.lists(_coord, min_size=3, max_size=3), min_size=1, max_size=4, unique_by=tuple)
_coefficient = st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=9).map(str)
# Documents that each command accepts (exit 0).
_VALID = {
    "cluster": st.fixed_dictionaries(
        {"components": st.lists(st.fixed_dictionaries({
            "center": st.lists(_coord, min_size=3, max_size=3),
            "diameter": st.integers(0, 40) | st.floats(0, 40),
            "charge": st.integers(1, 3) | st.sampled_from([1.0, 2.0]),
        }), min_size=1, max_size=3)},
        optional={"r_prime": st.integers(1, 5) | st.floats(0.1, 5)},
    ),
    "chain": _points.flatmap(lambda pts: st.fixed_dictionaries(
        {"points": st.just(pts)},
        optional={"charges": st.lists(st.integers(1, 3), min_size=len(pts), max_size=len(pts))},
    )),
    "resultant": st.integers(1, 4).flatmap(lambda k: st.fixed_dictionaries(
        {
            "phi": st.lists(st.lists(_coefficient, min_size=2, max_size=2), max_size=k),
            "psi": st.lists(st.lists(_coefficient, min_size=2, max_size=2), min_size=k, max_size=k),
        },
        optional={"phi_phase": st.sampled_from([0, 1, "0", "1/4", "1/2", "-3/4"])},
    )),
}


def _leaf_paths(doc, path=()):
    """Paths to the numbers of a document (strings included: in a
    rational map they are the numbers)."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


def _replacements(command, value):
    """Values of another kind: a bool, a numeric string or a one-item list;
    for rational maps, whose numbers are ints and strings, a float instead
    of the string."""
    if command == "resultant":
        return [True, False, float(Fraction(value)), [value]]
    return [True, False, str(value), [value]]


@st.composite
def _mutation(draw):
    command = draw(st.sampled_from(sorted(_VALID)))
    document = draw(_VALID[command])
    path = draw(st.sampled_from(list(_leaf_paths(document))))
    leaf = document
    for key in path:
        leaf = leaf[key]
    return command, document, path, draw(st.sampled_from(_replacements(command, leaf)))


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutation=_mutation())
@example(mutation=("resultant", {"phi": [["1", "0"]], "psi": [["0", "0"]]}, ("phi", 0, 0), True))
@example(mutation=("chain", {"points": [[0, 0, 0], [10, 0, 0]]}, ("points", 1, 0), "10"))
def test_replacing_a_number_by_another_kind_turns_exit_0_into_2(files, mutation):
    command, document, path, replacement = mutation
    with open(files["input"], "w") as fh:
        json.dump(document, fh)
    code, err = _run_main([command, "--input", files["input"]])
    assert code == 0, (command, document, err)

    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = replacement
    with open(files["input"], "w") as fh:
        json.dump(document, fh)
    code, err = _run_main([command, "--input", files["input"]])
    assert code == 2, (command, document)
    assert err.startswith("error: ") and err.count("\n") == 1, (command, document, err)
