"""Command-line front end.

Subcommands: faces, cluster, chain, coords, resultant, gm, torus-group,
validate-ibf, cover-schedule.  All flags are explicit, no environment
variables are consulted, and identical inputs produce byte-identical
output.  Malformed or out-of-range input exits with status 2 and a message
on stderr; validate-ibf exits 1 when violations were found, and a stdout
closed by its reader ends the run with status 141 (128 + SIGPIPE) and
nothing on stderr.

Each subcommand imports the library modules it uses when it runs, so a
process loads only the code of its own command.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from operator import attrgetter
from typing import Iterable, Iterator

from .inputs import as_digits, as_rational, as_real_text


def _stream(chunks: Iterable[str], path: str | None) -> None:
    """Write output text as it is produced: to stdout followed by a
    newline, or to the file at path as it is."""
    if path is None:
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


def _emit(text: str, path: str | None) -> None:
    _stream((text,), path)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed, not UTF-8, or nested too deep
            raise ValueError(f"--input {path}: {exc}") from None


def _json_faces(descs: Iterable) -> Iterator[str]:
    """The chunks of `json.dumps([d.to_json_dict() for d in descs],
    indent=2)`, one per face.  Faces with equal types differ only in their
    chains, so each group's other fields are encoded once, as the text that
    follows a chain, and each level's string once per atlas."""
    levels: dict = {}
    sep = "[\n  "
    for _, group in itertools.groupby(descs, attrgetter("integer_types")):
        first = next(group)
        shared = first.to_json_dict()
        del shared["chain"]
        # JSON text holds no raw newline in a string; drop the opening brace.
        tail = json.dumps(shared, indent=2).replace("\n", "\n  ")[1:]
        for desc in itertools.chain((first,), group):
            strings = [levels.get(p) or levels.setdefault(p, json.dumps(p.to_rgs()))
                       for p in desc.chain]
            yield sep + '{\n    "chain": [\n      ' + ",\n      ".join(strings) + "\n    ]," + tail
            sep = ",\n  "
    yield "[]" if sep == "[\n  " else "\n]"


def _table(descs: Iterable) -> Iterator[str]:
    """The face table: a header, then one line per face."""
    header = f"{'chain':<24} {'codim':>5} {'total':>5} {'fiber':>5} {'bases':<12} types"
    yield header + "\n" + "-" * len(header)
    for f in descs:
        yield "\n{:<24} {:>5} {:>5} {:>5} {:<12} {}".format(
            " < ".join(p.to_rgs() for p in f.chain),
            f.codim,
            f.total_dim,
            f.fiber_dim,
            "+".join(map(str, f.base_dims)),
            " ".join(map(str, f.integer_types)),
        )


def _cmd_faces(args) -> int:
    from . import faces
    from .partitions import SetPartition

    k = as_digits(args.k, "--k", 0)
    nu = SetPartition.from_rgs(args.nu, "--nu") if args.nu is not None else None
    # The hypersurfaces are the codimension-1 corners.
    d = 1 if args.codim is None else as_digits(args.codim, "--codim", 0)
    descs = faces.iter_corner_atlas(k, d, nu)
    _stream(_json_faces(descs) if args.format == "json" else _table(descs), args.output)
    return 0


def _cmd_cluster(args) -> int:
    from . import clusters

    inp = clusters.StrongFieldInput.from_json_dict(_load_json(args.input))
    if args.r_prime is not None:
        inp = clusters.StrongFieldInput(inp.components, as_real_text(args.r_prime, "--r-prime"))
    dec = clusters.taubes_cluster(inp)
    _emit(json.dumps(dec.to_json_dict(), indent=2), args.output)
    if args.rounds_csv:
        with open(args.rounds_csv, "w") as fh:
            fh.write(dec.rounds_csv())
    return 0


def _cmd_chain(args) -> int:
    from . import clusters

    cfg = clusters.Configuration.from_json_dict(_load_json(args.input))
    flag = clusters.scale_chain(
        cfg,
        clusters.DEFAULT_BASE_SCALE if args.base_scale is None
        else as_real_text(args.base_scale, "--base-scale"),
        clusters.DEFAULT_RATIO_THRESHOLD if args.ratio_threshold is None
        else as_real_text(args.ratio_threshold, "--ratio-threshold"),
    )
    if args.format == "json":
        _emit(json.dumps([p.to_rgs() for p in flag], indent=2), args.output)
    else:
        _emit("[" + ",".join(str(p) for p in flag) + "]", args.output)
    return 0


def _cmd_coords(args) -> int:
    from . import clusters
    from .partitions import ChainFlag, SetPartition

    cfg = clusters.Configuration.from_json_dict(_load_json(args.input))
    rgs = args.chain.split(",") if args.chain else []
    parts = [SetPartition.from_rgs(s, "--chain") for s in rgs]
    flag = ChainFlag(len(cfg.points), parts)
    coords = clusters.boundary_coords(cfg, flag)
    _emit(json.dumps(coords), args.output)
    return 0


def _cmd_resultant(args) -> int:
    from . import ratmaps

    if args.input:
        pair = ratmaps.RationalMapPair.from_json_dict(_load_json(args.input))
    else:
        if not (args.phi and args.psi):
            raise ValueError("need --input or both --phi and --psi")
        pair = ratmaps.RationalMapPair(
            [as_rational(x, "--phi") for x in args.phi.split(",")],
            [as_rational(x, "--psi") for x in args.psi.split(",")],
        )
    value = ratmaps.resultant(pair)
    if args.format == "json":
        out = {
            "resultant": value.to_json_pair(),
            "based": ratmaps.is_based(pair),
            "centred": ratmaps.is_centred(pair),
            "strongly_centred": ratmaps.is_strongly_centred(pair),
        }
        _emit(json.dumps(out, indent=2), args.output)
    else:
        _emit(str(value), args.output)
    return 0


def _cmd_gm(args) -> int:
    from . import gibbons_manton
    from .partitions import SetPartition

    lam = SetPartition.from_rgs(args.lam, "--lambda")
    nu = SetPartition.from_rgs(args.nu, "--nu")
    system = gibbons_manton.weight_system(lam, nu)
    _emit(json.dumps(system.to_json_dict(), indent=2), args.output)
    return 0


def _cmd_torus_group(args) -> int:
    from . import gibbons_manton
    from .partitions import IntegerPartition

    parts = IntegerPartition(as_digits(x, "--type", 1) for x in args.type.split(","))
    structure = gibbons_manton.torus_group_structure(parts)
    _emit(
        json.dumps(
            {"torus_rank": structure.torus_rank, "finite_order": structure.finite_order}
        ),
        args.output,
    )
    return 0


def _cmd_validate_ibf(args) -> int:
    from . import faces

    report = faces.validate_ibf(as_digits(args.k, "--k", 0))
    out = {
        "k": report.k,
        "edges": [[list(a.parts), list(b.parts)] for a, b in report.edges],
        "hypersurfaces": {
            str(t): {"base_dim": dims[0], "fiber_dim": dims[1]}
            for t, dims in report.hypersurface_dims.items()
        },
        "violations": list(report.violations),
    }
    _emit(json.dumps(out, indent=2), args.output)
    return 0 if report.ok else 1


def _cmd_cover_schedule(args) -> int:
    from . import faces

    rows = [
        {"type": list(t.parts), "depth": depth}
        for t, depth in faces.cover_schedule(as_digits(args.k, "--k", 0))
    ]
    _emit(json.dumps(rows, indent=2), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monopole-corners",
        description="Corner atlases, cluster decomposition, and rational-map "
        "coordinates for monopole moduli compactifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("faces", help="hypersurface or corner atlas")
    p.add_argument("--k", required=True)
    p.add_argument("--codim", help="corner codimension (omit for hypersurfaces)")
    p.add_argument("--nu", help="relative atlas: coarse partition as an RGS string")
    p.add_argument("--format", choices=("table", "json"), default="table")
    add_output(p)
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser("cluster", help="threshold-merge cluster decomposition")
    p.add_argument("--input", required=True, help="strong-field input JSON")
    p.add_argument("--r-prime", dest="r_prime", help="override the ball seed R'")
    p.add_argument("--rounds-csv", dest="rounds_csv", help="write per-round CSV here")
    add_output(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("chain", help="multi-scale chain of a configuration")
    p.add_argument("--input", required=True, help="configuration JSON with a 'points' list")
    # Omitted, they are clusters.DEFAULT_BASE_SCALE and DEFAULT_RATIO_THRESHOLD,
    # read in _cmd_chain so that building the parser does not import clusters.
    p.add_argument("--base-scale", dest="base_scale")
    p.add_argument("--ratio-threshold", dest="ratio_threshold")
    p.add_argument("--format", choices=("table", "json"), default="table")
    add_output(p)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("coords", help="boundary coordinates along a chain")
    p.add_argument("--input", required=True, help="configuration JSON with a 'points' list")
    p.add_argument("--chain", default="", help="comma-separated RGS strings, finest first")
    add_output(p)
    p.set_defaults(func=_cmd_coords)

    p = sub.add_parser("resultant", help="exact resultant and centring predicates")
    p.add_argument("--input", help="rational-map JSON")
    p.add_argument("--phi", help="comma-separated rational coefficients a_0,a_1,...")
    p.add_argument("--psi", help="comma-separated rational coefficients b_0,b_1,...")
    p.add_argument("--format", choices=("value", "json"), default="value")
    add_output(p)
    p.set_defaults(func=_cmd_resultant)

    p = sub.add_parser("gm", help="Chern-weight system of a flag")
    p.add_argument("--lambda", dest="lam", required=True, help="fine partition (RGS)")
    p.add_argument("--nu", required=True, help="coarse partition (RGS)")
    add_output(p)
    p.set_defaults(func=_cmd_gm)

    p = sub.add_parser("torus-group", help="torus symmetry group of an integer type")
    p.add_argument("--type", required=True, help="comma-separated parts, e.g. 2,3")
    add_output(p)
    p.set_defaults(func=_cmd_torus_group)

    p = sub.add_parser("validate-ibf", help="boundary-fibration consistency report")
    p.add_argument("--k", required=True)
    add_output(p)
    p.set_defaults(func=_cmd_validate_ibf)

    p = sub.add_parser("cover-schedule", help="collar-construction order of hypersurfaces")
    p.add_argument("--k", required=True)
    add_output(p)
    p.set_defaults(func=_cmd_cover_schedule)

    return parser


#: A value that starts like a negative number, such as -1/2 or -1,0.
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite `--phi -1/2` as `--phi=-1/2`.

    argparse reads a token that starts with '-' and is not a plain negative
    number as an option, so a coefficient list with a negative leading
    coefficient would be refused; the `=` form is always read as a value.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--phi", "--psi") and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early (the flush above brings that to
        # light here even for output that fit the buffer), which is not bad
        # input.  With stdout on devnull the flush at shutdown writes nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process it killed
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
