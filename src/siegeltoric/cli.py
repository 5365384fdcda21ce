"""Command-line front end.

Exit codes: 0 when every checked property holds, 1 when a mathematical
property fails (with a witness in the report), 2 on any input error, the
cost guards included (N <= 21 for the volume polynomial of `cone
volume`, `residue` and `intersect`, at most 250000 predicted terms of
the power of S_d that the residue minor of `residue` and `intersect`
expands, trials * (N^6 + 4e5) <= 6e10 for `ma verify --randomized`,
about 4.5 s of points (one point took 0.65, 2.1 and 6.2-7.0 s at g = 9,
10 and 11 in a fresh process, so one is admitted at g = 10 and none at
g = 11), g <= 8 for `hodge`), and 3 on an internal error.  Symbolic `ma
verify` and `ke test` never expand the polynomial and have no guard:
both answer from volume_ke.is_ke_point, which reads the identity off the
cone's lattice index, so they cost what reading the cone costs.
Input problems raise ValueError wherever they are found, and `main` alone
maps exceptions to exit codes: a ValueError prints `error: <msg>`, any
other exception one `internal error: <Type>: <msg>` line, never a
traceback.  An error in an input file starts with its path (`error:
<path>: <msg>`), a JSON number past Python's int-to-str digit limit
included, as does every error that a hodge check finds in what its file
holds, and a cone argument that is neither a file nor a catalog entry
gets the catalog's reason on the same line.
The run settings seed, trials, tol and output live on the parsed `args`
alone: `_resolve_settings` takes each from its flag, else from the JSON
config file that the SIEGELTORIC_CONFIG environment variable points to,
else from `_DEFAULTS`, checks it and writes it onto `args`; any other key
in the config file is an input error.  Each subcommand handler takes
`args` and returns `(report, holds)`: the report holds the package's own
values (ints, Fractions, polynomials, records, tuples), and `main` alone
encodes it with `jsonio.report_value`, writes it as JSON (the default)
or, under --output text, readably, and maps `holds` to exit 0 or 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog as catalog_mod
from . import cone_lattice, jsonio, period_domain, residue_intersect, volume_ke

EXIT_PASS = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

CONFIG_ENV_VAR = "SIEGELTORIC_CONFIG"
# the run settings: each is a global flag and a key of the config file
_DEFAULTS = {"seed": 0, "trials": 20, "tol": 1e-9, "output": "json"}


def _resolve_settings(args) -> None:
    """Check each run setting and write it onto args: a flag wins over the
    SIEGELTORIC_CONFIG file, which wins over _DEFAULTS."""
    values = dict(_DEFAULTS)
    path = os.environ.get(CONFIG_ENV_VAR)
    if path:
        data = _load_json(path)
        if not isinstance(data, dict):
            raise ValueError(f"config {path} must hold a JSON object")
        unknown = sorted(set(data) - set(_DEFAULTS))
        if unknown:
            raise ValueError(f"config {path}: unknown key {jsonio.quote(unknown[0])}")
        values.update(data)
    values.update((name, value) for name, value in vars(args).items()
                  if name in _DEFAULTS)
    for name in ("seed", "trials"):
        if isinstance(values[name], bool) or not isinstance(values[name], int):
            raise ValueError(f"{name} must be an integer, got {jsonio.quote(values[name])}")
    if values["trials"] < 1:
        raise ValueError("trials must be >= 1")
    tol = values["tol"]
    # compared, not converted: an int past binary64 fails like inf and nan
    if (isinstance(tol, bool) or not isinstance(tol, (int, float))
            or not 0 < tol <= sys.float_info.max):
        raise ValueError(f"tol must be a finite positive number, got {jsonio.quote(tol)}")
    if values["output"] not in ("json", "text"):
        raise ValueError(f"unknown output mode {jsonio.quote(values['output'])}")
    vars(args).update(values)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    except ValueError as exc:   # a number past the int-to-str digit limit
        raise ValueError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply to read") from None


def _read(path: str, parse):
    """parse(JSON of path), with the path in front of any input error."""
    obj = _load_json(path)
    try:
        return parse(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _resolve_cone(spec: str, parse):
    """A cone argument is a JSON file path, read by parse, or a builtin
    catalog name."""
    if os.path.exists(spec):
        return _read(spec, parse)
    try:
        return catalog_mod.catalog_get(spec).cone
    except catalog_mod.UnknownCatalogEntryError as exc:
        raise ValueError(
            f"{jsonio.quote(spec)} is neither a file nor a catalog entry: {exc.args[0]}") from None


# ----------------------------------------------------------------------
# subcommand handlers (each returns the report and whether it holds)


def _cmd_cone_check(args) -> tuple[dict, bool]:
    cone = _resolve_cone(args.cone, jsonio.cone_from_json)
    edge_reports = []
    all_psd = True
    for idx in range(len(cone.generators)):
        ec = cone_lattice.edge_class(cone, idx)
        label = cone.labels[idx] if cone.labels else f"edge{idx}"
        if ec.kind == "invalid":
            all_psd = False
        edge_reports.append({
            "index": idx,
            "label": label,
            "class": ec.kind,
            "rank": ec.rank,
            "flagged": ec.flagged,
        })
    full = len(cone.generators) == cone.nvars
    report = {
        "check": "cone",
        "g": cone.g,
        "scale": cone.scale,
        "num_generators": len(cone.generators),
        "full_dimensional": full,
        "generators_psd": all_psd,
        "regular": cone_lattice.is_regular(cone),
        "lattice_volume": cone_lattice.lattice_volume(cone) if full else None,
        "edges": edge_reports,
        "ok": all_psd,
    }
    return report, all_psd


def _cmd_cone_volume(args) -> tuple[dict, bool]:
    cone = _resolve_cone(args.cone, jsonio.cone_from_json)
    v = volume_ke.volume_function(cone)
    report = {
        "check": "cone-volume",
        "g": cone.g,
        "scale": cone.scale,
        "lattice_volume": v.vol,
        "volume_polynomial": v.F,
        "ok": True,
    }
    return report, True


def _cmd_ma_verify(args) -> tuple[dict, bool]:
    cone = _resolve_cone(args.cone, jsonio.cone_from_json)
    v = volume_ke.volume_function(cone)
    mode = "randomized" if args.randomized else "symbolic"
    if args.randomized:
        result = volume_ke.verify_ma_identity(v, trials=args.trials, seed=args.seed)
    else:
        result = volume_ke.MAReport(holds=volume_ke.is_ke_point(cone))
    report = {
        "identity": "monge-ampere",
        "mode": mode,
        "holds": result.holds,
        "vol": v.vol,
        "g": v.g,
        "witnesses": result.witnesses,
        "seed": args.seed if args.randomized else None,
    }
    return report, result.holds


def _cmd_ke_test(args) -> tuple[dict, bool]:
    cone = _resolve_cone(args.cone, jsonio.cone_from_json)
    member = volume_ke.is_ke_point(cone)
    report = {
        "check": "ke-membership",
        "g": cone.g,
        "member": member,
        "ok": member,
    }
    return report, member


def _cmd_residue(args) -> tuple[dict, bool]:
    cone = _resolve_cone(args.cone, jsonio.cone_from_json)
    v = volume_ke.volume_function(cone)
    rc = residue_intersect.residue_chain(v, args.d)
    report = {
        "d": args.d,
        "S": rc.S,
        "g_d": rc.gd,
        "chi": residue_intersect.chi_descriptor(rc),
    }
    return report, True


def _parse_edge_list(text: str) -> list[int]:
    try:
        return [jsonio.decode_int(part.strip()) for part in text.split(",") if part.strip()]
    except jsonio.InputFormatError as exc:
        raise ValueError(f"bad --edges list {jsonio.quote(text)}") from exc


def _cone_or_fan(obj):
    if isinstance(obj, dict) and "cones" in obj:
        return jsonio.fan_from_json(obj)
    return jsonio.cone_from_json(obj)


def _cmd_intersect(args) -> tuple[dict, bool]:
    indices = _parse_edge_list(args.edges)
    target = _resolve_cone(args.target, _cone_or_fan)
    if isinstance(target, cone_lattice.Fan):
        verdict = residue_intersect.toric_verdict(target, indices)
        report = {
            "check": "toric-intersection",
            "value": verdict.value,
            "reason": verdict.reason,
            "intersection_number": 1 if verdict.value == "one" else 0,
            "rays": target.rays,
            "selected": indices,
        }
        return report, True
    verdict = residue_intersect.intersection_vanishing(target, indices)
    report = {
        "check": "intersection-vanishing",
        "value": verdict.value,
        "reason": verdict.reason,
        "selected": indices,
    }
    if verdict.chi is not None:
        report["chi"] = verdict.chi
    return report, True


def _cmd_fan_check(args) -> tuple[dict, bool]:
    fan = _read(args.fan, jsonio.fan_from_json)
    violations = cone_lattice.is_fan(fan)
    ok = not violations
    report = {
        "check": "fan",
        "g": fan.g,
        "scale": fan.scale,
        "num_cones": len(fan.cones),
        "is_fan": ok,
        "violations": violations,
        "ok": ok,
    }
    return report, ok


def _cmd_separable(args) -> tuple[dict, bool]:
    fan = _read(args.fan, jsonio.fan_from_json)

    def group_of_fan_genus(obj):
        group = jsonio.group_from_json(obj)
        for i, gamma in enumerate(group):
            if gamma.g != fan.g:
                raise ValueError(
                    f"group element {i} is {gamma.g}x{gamma.g}, fan has g={fan.g}")
        return group

    group = _read(args.group, group_of_fan_genus)
    # canonical report ordering: sort by cone label, then group element
    labels = [c.labels[0] if c.labels else f"cone{i}" for i, c in enumerate(fan.cones)]
    violations = sorted(
        (dict(v._asdict(), cone_label=labels[v.cone_index])
         for v in cone_lattice.is_separable(fan, group)),
        key=lambda d: (d["cone_label"], d["group_index"]))
    ok = not violations
    report = {
        "check": "separable",
        "num_cones": len(fan.cones),
        "num_group_elements": len(group),
        "separable": ok,
        "violations": violations,
        "note": "certificate relative to the supplied group elements only",
        "ok": ok,
    }
    return report, ok


def _nilpotent_from_json(obj) -> period_domain.CuspNilpotent:
    return period_domain.CuspNilpotent(
        g=jsonio.field(obj, "g", jsonio.decode_int),
        k=jsonio.field(obj, "k", jsonio.decode_int, 0),
        u=jsonio.field(obj, "u", jsonio.real_matrix_from_json))


def _cmd_hodge(args) -> tuple[dict, bool]:
    tol = args.tol
    sub = args.subcheck

    # parsed and checked inside one _read: every input error names the file
    def check(obj) -> dict:
        if sub == "siegel":
            tau = jsonio.complex_matrix_from_json(obj)
            ok = period_domain.siegel_membership(tau, tol)
            return {"check": "hodge-siegel", "tol": tol, "ok": ok}
        if sub == "riemann":
            ok = period_domain.riemann_check(jsonio.complex_matrix_from_json(obj), tol)
            return {"check": "hodge-riemann", "tol": tol, "ok": ok}
        if sub == "weight":
            rank, nullity = period_domain.weight_filtration(_nilpotent_from_json(obj), tol)
            return {
                "check": "hodge-weight",
                "dim_image": rank,
                "dim_kernel": nullity,
                "tol": tol,
                "ok": True,
            }
        if sub == "nilpotent":
            nilp = _nilpotent_from_json(obj)
            tau_cusp = jsonio.field(obj, "tau_cusp", jsonio.complex_matrix_from_json, None)
            ok = period_domain.nilpotent_orbit_check(nilp, tau_cusp, tol)
            return {"check": "hodge-nilpotent", "tol": tol, "ok": ok}
        # block-volume
        tau_prime, z, s = [jsonio.field(obj, key, jsonio.complex_matrix_from_json)
                           for key in ("tau_prime", "Z", "S")]
        ok = period_domain.block_volume_identity(tau_prime, z, s, tol)
        return {"check": "hodge-block-volume", "tol": tol, "ok": ok}

    report = _read(args.file, check)
    return report, report["ok"]


def _cmd_catalog_list(args) -> tuple[dict, bool]:
    entries = []
    for name in catalog_mod.catalog_names():
        entry = catalog_mod.catalog_get(name)
        entries.append({
            "name": entry.name,
            "g": entry.cone.g,
            "scale": entry.cone.scale,
            "num_generators": len(entry.cone.generators),
            "provenance": entry.provenance,
        })
    return {"check": "catalog", "entries": entries, "ok": True}, True


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="RNG seed for randomized checks")
    common.add_argument("--trials", type=int, default=argparse.SUPPRESS,
                        help="number of randomized trials")
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="numeric tolerance")
    common.add_argument("--output", choices=("json", "text"),
                        default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="siegeltoric",
        description="Exact cone, volume-polynomial, and period-domain checks "
                    "for toroidal compactifications of Siegel varieties.",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    cone = sub.add_parser("cone", help="cone invariants and volume data")
    cone_sub = cone.add_subparsers(dest="cone_command", required=True)
    c_check = cone_sub.add_parser("check", parents=[common],
                                  help="invariants, regularity, edge classes")
    c_check.add_argument("cone", help="cone JSON file or catalog name")
    c_check.set_defaults(handler=_cmd_cone_check)
    c_vol = cone_sub.add_parser("volume", parents=[common],
                                help="lattice volume and volume polynomial")
    c_vol.add_argument("cone", help="cone JSON file or catalog name")
    c_vol.set_defaults(handler=_cmd_cone_volume)

    ma = sub.add_parser("ma", help="Monge-Ampere identity checks")
    ma_sub = ma.add_subparsers(dest="ma_command", required=True)
    ma_verify = ma_sub.add_parser("verify", parents=[common],
                                  help="verify the determinant identity")
    ma_verify.add_argument("cone", help="cone JSON file or catalog name")
    mode = ma_verify.add_mutually_exclusive_group()
    mode.add_argument("--symbolic", action="store_true", default=True)
    mode.add_argument("--randomized", action="store_true", default=False)
    ma_verify.set_defaults(handler=_cmd_ma_verify)

    ke = sub.add_parser("ke", help="KE-characteristic membership")
    ke_sub = ke.add_subparsers(dest="ke_command", required=True)
    ke_test = ke_sub.add_parser("test", parents=[common],
                                help="test a cone's pencil for membership")
    ke_test.add_argument("cone", help="cone JSON file or catalog name")
    ke_test.set_defaults(handler=_cmd_ke_test)

    residue = sub.add_parser("residue", parents=[common],
                             help="leading-coefficient residue chain")
    residue.add_argument("cone", help="cone JSON file or catalog name")
    residue.add_argument("--d", type=int, required=True, help="number of selected divisors")
    residue.set_defaults(handler=_cmd_residue)

    intersect = sub.add_parser("intersect", parents=[common],
                               help="boundary intersection verdicts")
    intersect.add_argument("target", help="cone/fan JSON file or catalog name")
    intersect.add_argument("--edges", required=True,
                           help="comma-separated edge indices")
    intersect.set_defaults(handler=_cmd_intersect)

    fan = sub.add_parser("fan", help="fan checks")
    fan_sub = fan.add_subparsers(dest="fan_command", required=True)
    fan_check = fan_sub.add_parser("check", parents=[common],
                                   help="pairwise common-face condition")
    fan_check.add_argument("fan", help="fan JSON file")
    fan_check.set_defaults(handler=_cmd_fan_check)

    separable = sub.add_parser("separable", parents=[common],
                               help="separability certificate against a group list")
    separable.add_argument("fan", help="fan JSON file")
    separable.add_argument("group", help="group elements JSON file")
    separable.set_defaults(handler=_cmd_separable)

    hodge = sub.add_parser("hodge", parents=[common],
                           help="period-domain numeric checks")
    hodge.add_argument("subcheck",
                       choices=("siegel", "riemann", "nilpotent", "weight", "block-volume"))
    hodge.add_argument("file", help="input JSON file")
    hodge.set_defaults(handler=_cmd_hodge)

    cat = sub.add_parser("catalog", help="builtin cone catalog")
    cat_sub = cat.add_subparsers(dest="catalog_command", required=True)
    cat_list = cat_sub.add_parser("list", parents=[common], help="list builtin cones")
    cat_list.set_defaults(handler=_cmd_catalog_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_settings(args)
        report, holds = args.handler(args)
        # a report integer may pass Python's int-to-str digit limit: lift
        # it while the report is encoded, and only then, so that input
        # parsing keeps it
        report = cone_lattice._unlimited_digits(jsonio.report_value, report)
        if args.output == "json":
            sys.stdout.write(jsonio.dump_report(report))
        else:
            sys.stdout.write(jsonio.render_text(report) + "\n")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_PASS if holds else EXIT_PROPERTY


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
