"""Command-line front end.

Exit codes: 0 when every checked property holds, 1 when a mathematical
property fails (with a witness in the report), 2 on any input error, the
cost guards included (N <= 21 for the volume polynomial of `cone
volume`, `residue` and `intersect`, at most 250000 predicted terms of
the power of S_d that the residue minor of `residue` and `intersect`
expands, trials * (N^6 + 4e5) <= 2.5e9 for `ma verify --randomized`,
g <= 8 for `hodge`; symbolic `ma verify` and `ke test` never expand the
polynomial and run at every genus), and 3 on an internal error.
Input problems raise ValueError wherever they are found, and `main` alone
maps exceptions to exit codes: a ValueError prints `error: <msg>`, any
other exception one `internal error: <Type>: <msg>` line, never a
traceback.  Each subcommand handler returns `(report, holds)`: the
report holds the package's own values (ints, Fractions, polynomials,
records, tuples), and `main` alone encodes it with
`jsonio.report_value`, writes it as JSON (the default) or, under
--output text, readably, and maps `holds` to exit 0 or 1.
Defaults for seed/trials/tol/output may be placed in a JSON config file
pointed to by the SIEGELTORIC_CONFIG environment variable; explicit flags
win over the config file, and any other key in it is an input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import catalog as catalog_mod
from . import cone_lattice, jsonio, period_domain, residue_intersect, volume_ke

EXIT_PASS = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

CONFIG_ENV_VAR = "SIEGELTORIC_CONFIG"
_CONFIG_KEYS = ("seed", "trials", "tol", "output")   # the parameters of RunConfig


class InputError(ValueError):
    pass


class RunConfig:
    def __init__(self, seed: int = 0, trials: int = 20, tol: float = 1e-9,
                 output: str = "json"):
        for name, value in (("seed", seed), ("trials", trials)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InputError(f"{name} must be an integer, got {jsonio.quote(value)}")
        if trials < 1:
            raise InputError("trials must be >= 1")
        if (isinstance(tol, bool) or not isinstance(tol, (int, float))
                or not math.isfinite(tol) or tol <= 0):
            raise InputError(f"tol must be a finite positive number, got {jsonio.quote(tol)}")
        if output not in ("json", "text"):
            raise InputError(f"unknown output mode {jsonio.quote(output)}")
        self.seed = seed
        self.trials = trials
        self.tol = tol
        self.output = output


def _load_config_defaults() -> dict:
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"config {path} must hold a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise InputError(f"config {path}: unknown key {jsonio.quote(unknown[0])}")
    return data


def _config_from_args(args) -> RunConfig:
    values = _load_config_defaults()
    for name in _CONFIG_KEYS:
        value = getattr(args, name, None)
        if value is not None:
            values[name] = value
    return RunConfig(**values)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    except RecursionError:
        raise InputError(f"{path} is nested too deeply to read") from None


def _read(path: str, parse):
    """parse(JSON of path), with the path in front of any input error."""
    obj = _load_json(path)
    try:
        return parse(obj)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _resolve_cone(spec: str, parse):
    """A cone argument is a JSON file path, read by parse, or a builtin
    catalog name."""
    if os.path.exists(spec):
        return _read(spec, parse)
    try:
        return catalog_mod.catalog_get(spec).cone
    except catalog_mod.UnknownCatalogEntryError:
        raise InputError(f"{spec!r} is neither a file nor a catalog entry") from None


# ----------------------------------------------------------------------
# subcommand handlers (each returns the report and whether it holds)


def _cmd_cone_check(args, config: RunConfig) -> tuple[dict, bool]:
    cone = _resolve_cone(args.cone, jsonio.cone_from_json)
    edge_reports = []
    all_psd = True
    for idx, gen in enumerate(cone.generators):
        ec = cone_lattice.edge_class(gen)
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


def _cmd_cone_volume(args, config: RunConfig) -> tuple[dict, bool]:
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


def _cmd_ma_verify(args, config: RunConfig) -> tuple[dict, bool]:
    cone = _resolve_cone(args.cone, jsonio.cone_from_json)
    v = volume_ke.volume_function(cone)
    mode = "randomized" if args.randomized else "symbolic"
    result = volume_ke.verify_ma_identity(
        v, mode=mode, trials=config.trials, seed=config.seed)
    report = {
        "identity": "monge-ampere",
        "mode": mode,
        "holds": result.holds,
        "vol": v.vol,
        "g": v.g,
        "witnesses": result.witnesses,
        "seed": config.seed if args.randomized else None,
    }
    return report, result.holds


def _cmd_ke_test(args, config: RunConfig) -> tuple[dict, bool]:
    cone = _resolve_cone(args.cone, jsonio.cone_from_json)
    member = volume_ke.is_ke_point(cone.generators)
    report = {
        "check": "ke-membership",
        "g": cone.g,
        "member": member,
        "ok": member,
    }
    return report, member


def _cmd_residue(args, config: RunConfig) -> tuple[dict, bool]:
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
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad --edges list {text!r}") from exc


def _cone_or_fan(obj):
    if isinstance(obj, dict) and "cones" in obj:
        return jsonio.fan_from_json(obj)
    return jsonio.cone_from_json(obj)


def _cmd_intersect(args, config: RunConfig) -> tuple[dict, bool]:
    indices = _parse_edge_list(args.edges)
    target = _resolve_cone(args.target, _cone_or_fan)
    if isinstance(target, cone_lattice.Fan):
        fan = target
        rays = sorted({ray for c in fan.cones for ray in c.rays()})
        if not all(0 <= i < len(rays) for i in indices):
            raise InputError(
                f"edge index out of range; fan has {len(rays)} distinct rays")
        verdict = residue_intersect.toric_verdict(fan, [rays[i] for i in indices])
        report = {
            "check": "toric-intersection",
            "value": verdict.value,
            "reason": verdict.reason,
            "intersection_number": 1 if verdict.value == "one" else 0,
            "rays": rays,
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


def _cmd_fan_check(args, config: RunConfig) -> tuple[dict, bool]:
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


def _cmd_separable(args, config: RunConfig) -> tuple[dict, bool]:
    fan = _read(args.fan, jsonio.fan_from_json)

    def group_of_fan_genus(obj):
        group = jsonio.group_from_json(obj)
        for i, gamma in enumerate(group):
            if gamma.g != fan.g:
                raise InputError(
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


def _cmd_hodge(args, config: RunConfig) -> tuple[dict, bool]:
    tol = config.tol
    sub = args.subcheck
    if sub == "siegel":
        tau = _read(args.file, jsonio.complex_matrix_from_json)
        ok = period_domain.siegel_membership(tau, tol)
        report = {"check": "hodge-siegel", "tol": tol, "ok": ok}
    elif sub == "riemann":
        mat = _read(args.file, jsonio.complex_matrix_from_json)
        if len(mat) == len(mat[0]):
            mat = period_domain.filtration_from_tau(mat)
        ok = period_domain.riemann_check(mat, tol)
        report = {"check": "hodge-riemann", "tol": tol, "ok": ok}
    elif sub == "weight":
        nilp = _read(args.file, _nilpotent_from_json)
        rank, nullity = period_domain.weight_filtration(nilp, tol)
        report = {
            "check": "hodge-weight",
            "dim_image": rank,
            "dim_kernel": nullity,
            "tol": tol,
            "ok": True,
        }
    elif sub == "nilpotent":
        nilp, tau_cusp = _read(args.file, lambda obj: (
            _nilpotent_from_json(obj),
            jsonio.field(obj, "tau_cusp", jsonio.complex_matrix_from_json, None)))
        fdual = period_domain.dual_cusp_filtration(nilp, tau_cusp)
        ok = period_domain.nilpotent_orbit_check(fdual, nilp, tol)
        report = {"check": "hodge-nilpotent", "tol": tol, "ok": ok}
    else:  # block-volume
        tau_prime, z, s = _read(args.file, lambda obj: [
            jsonio.field(obj, key, jsonio.complex_matrix_from_json)
            for key in ("tau_prime", "Z", "S")])
        ok = period_domain.block_volume_identity(tau_prime, z, s, tol)
        report = {"check": "hodge-block-volume", "tol": tol, "ok": ok}
    return report, report["ok"]


def _cmd_catalog_list(args, config: RunConfig) -> tuple[dict, bool]:
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
        config = _config_from_args(args)
        report, holds = args.handler(args, config)
        # a report integer may pass Python's int-to-str digit limit: lift
        # it while the report is encoded, and only then, so that input
        # parsing keeps it
        report = cone_lattice._unlimited_digits(jsonio.report_value, report)
        if config.output == "json":
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
