"""Command-line front end.

Subcommands: faces, cluster, chain, coords, resultant, gm, torus-group,
validate-ibf, cover-schedule.  All flags are explicit, no environment
variables are consulted, and identical inputs produce byte-identical
output.  Malformed or out-of-range input exits with status 2 and a message
on stderr; validate-ibf exits 1 when violations were found.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import clusters, faces, gibbons_manton, ratmaps
from .partitions import ChainFlag, IntegerPartition, SetPartition


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _parse_partition(s: str) -> SetPartition:
    return SetPartition.from_rgs(s)


def _parse_type(s: str) -> IntegerPartition:
    return IntegerPartition(int(x) for x in s.split(","))


def _parse_coefficients(flag: str, s: str) -> list[Fraction]:
    return [ratmaps.parse_rational(x, flag) for x in s.split(",")]


def _faces_rows(descs) -> list[dict]:
    return [d.to_json_dict() for d in descs]


def _format_faces(descs, fmt: str) -> str:
    rows = _faces_rows(descs)
    if fmt == "json":
        return json.dumps(rows, indent=2)
    header = f"{'chain':<24} {'codim':>5} {'total':>5} {'fiber':>5} {'bases':<12} types"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            "{:<24} {:>5} {:>5} {:>5} {:<12} {}".format(
                " < ".join(r["chain"]),
                r["codim"],
                r["total_dim"],
                r["fiber_dim"],
                "+".join(map(str, r["base_dims"])),
                " ".join("(" + ",".join(map(str, t)) + ")" for t in r["types"]),
            )
        )
    return "\n".join(lines)


def _cmd_faces(args) -> int:
    nu = _parse_partition(args.nu) if args.nu else None
    if args.codim is None:
        descs = faces.hypersurface_atlas(args.k, nu=nu)
    else:
        descs = faces.corner_atlas(args.k, args.codim, nu=nu)
    _emit(_format_faces(descs, args.format), args.output)
    return 0


def _cmd_cluster(args) -> int:
    inp = clusters.StrongFieldInput.from_json_dict(_load_json(args.input))
    if args.r_prime is not None:
        inp = clusters.StrongFieldInput(inp.components, r_prime=args.r_prime)
    dec = clusters.taubes_cluster(inp)
    _emit(json.dumps(dec.to_json_dict(), indent=2), args.output)
    if args.rounds_csv:
        with open(args.rounds_csv, "w") as fh:
            fh.write(dec.rounds_csv())
    return 0


def _cmd_chain(args) -> int:
    cfg = clusters.Configuration.from_json_dict(_load_json(args.input))
    flag = clusters.scale_chain(cfg, args.base_scale, args.ratio_threshold)
    if args.format == "json":
        _emit(json.dumps([p.to_rgs() for p in flag], indent=2), args.output)
    else:
        _emit("[" + ",".join(str(p) for p in flag) + "]", args.output)
    return 0


def _cmd_coords(args) -> int:
    cfg = clusters.Configuration.from_json_dict(_load_json(args.input))
    parts = [_parse_partition(s) for s in args.chain.split(",")] if args.chain else []
    flag = ChainFlag(len(cfg.points), parts)
    coords = clusters.boundary_coords(cfg, flag)
    _emit(json.dumps(coords), args.output)
    return 0


def _cmd_resultant(args) -> int:
    if args.input:
        pair = ratmaps.RationalMapPair.from_json_dict(_load_json(args.input))
    else:
        if not (args.phi and args.psi):
            raise ValueError("need --input or both --phi and --psi")
        pair = ratmaps.RationalMapPair(
            _parse_coefficients("--phi", args.phi), _parse_coefficients("--psi", args.psi)
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
    lam = _parse_partition(args.lam)
    nu = _parse_partition(args.nu)
    system = gibbons_manton.weight_system(lam, nu)
    _emit(json.dumps(system.to_json_dict(), indent=2), args.output)
    return 0


def _cmd_torus_group(args) -> int:
    structure = gibbons_manton.torus_group_structure(_parse_type(args.type))
    _emit(
        json.dumps(
            {"torus_rank": structure.torus_rank, "finite_order": structure.finite_order}
        ),
        args.output,
    )
    return 0


def _cmd_validate_ibf(args) -> int:
    report = faces.validate_ibf(args.k)
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
    rows = [
        {"type": list(t.parts), "depth": depth}
        for t, depth in faces.cover_schedule(args.k)
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
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--codim", type=int, help="corner codimension (omit for hypersurfaces)")
    p.add_argument("--nu", help="relative atlas: coarse partition as an RGS string")
    p.add_argument("--format", choices=("table", "json"), default="table")
    add_output(p)
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser("cluster", help="threshold-merge cluster decomposition")
    p.add_argument("--input", required=True, help="strong-field input JSON")
    p.add_argument("--r-prime", dest="r_prime", type=float, help="override the ball seed R'")
    p.add_argument("--rounds-csv", dest="rounds_csv", help="write per-round CSV here")
    add_output(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("chain", help="multi-scale chain of a configuration")
    p.add_argument("--input", required=True, help="configuration JSON with a 'points' list")
    p.add_argument("--base-scale", dest="base_scale", type=float,
                   default=clusters.DEFAULT_BASE_SCALE)
    p.add_argument("--ratio-threshold", dest="ratio_threshold", type=float,
                   default=clusters.DEFAULT_RATIO_THRESHOLD)
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
    p.add_argument("--k", type=int, required=True)
    add_output(p)
    p.set_defaults(func=_cmd_validate_ibf)

    p = sub.add_parser("cover-schedule", help="collar-construction order of hypersurfaces")
    p.add_argument("--k", type=int, required=True)
    add_output(p)
    p.set_defaults(func=_cmd_cover_schedule)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
