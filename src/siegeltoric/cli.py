"""Command-line front end.

Exit codes: 0 when every checked property holds, 1 when a mathematical
property fails (with a witness in the report), 2 on any input error, the
N <= 6 cost guard of `residue` and `intersect` included (symbolic `ma
verify` and `ke test` run at every genus), and 3 on an internal error.
Input problems raise ValueError wherever they are found, and `main` alone
maps exceptions to exit codes: a ValueError prints `error: <msg>`, any
other exception one `internal error: <Type>: <msg>` line, never a
traceback.  Reports are JSON by default; --output text renders the same
object readably.
Defaults for seed/trials/tol/output may be placed in a JSON config file
pointed to by the SIEGELTORIC_CONFIG environment variable; explicit flags
win over the config file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import catalog as catalog_mod
from . import cone_lattice, jsonio, residue_intersect, volume_ke
from .cone_lattice import DegenerateConeError
from .exact_algebra import poly_to_json

EXIT_PASS = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

CONFIG_ENV_VAR = "SIEGELTORIC_CONFIG"


class InputError(ValueError):
    pass


@dataclass
class RunConfig:
    seed: int = 0
    trials: int = 20
    tol: float = 1e-9
    output: str = "json"

    def __post_init__(self):
        for name in ("seed", "trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if (isinstance(self.tol, bool) or not isinstance(self.tol, (int, float))
                or not math.isfinite(self.tol) or self.tol <= 0):
            raise InputError(f"tol must be a finite positive number, got {self.tol!r}")
        if self.output not in ("json", "text"):
            raise InputError(f"unknown output mode {self.output!r}")


def _load_config_defaults() -> dict:
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError(f"config {path} must hold a JSON object")
    return data


def _config_from_args(args) -> RunConfig:
    defaults = _load_config_defaults()

    def pick(name, fallback):
        value = getattr(args, name, None)
        if value is not None:
            return value
        return defaults.get(name, fallback)

    return RunConfig(
        seed=pick("seed", 0),
        trials=pick("trials", 20),
        tol=pick("tol", 1e-9),
        output=pick("output", "json"),
    )


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


def _emit(report: dict, config: RunConfig) -> None:
    if config.output == "json":
        sys.stdout.write(jsonio.dump_report(report))
    else:
        sys.stdout.write(jsonio.render_text(report) + "\n")


# ----------------------------------------------------------------------
# subcommand handlers (each returns an exit code)


def _cmd_cone_check(args, config: RunConfig) -> int:
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
    regular = cone_lattice.is_regular(cone)
    full = len(cone.generators) == cone.nvars
    vol = None
    if full:
        try:
            vol = cone_lattice.lattice_volume(cone)
        except DegenerateConeError:
            vol = None
    ok = all_psd
    report = {
        "check": "cone",
        "g": cone.g,
        "scale": cone.scale,
        "num_generators": len(cone.generators),
        "full_dimensional": full,
        "generators_psd": all_psd,
        "regular": regular,
        "lattice_volume": vol,
        "edges": edge_reports,
        "ok": ok,
    }
    _emit(report, config)
    return EXIT_PASS if ok else EXIT_PROPERTY


def _cmd_cone_volume(args, config: RunConfig) -> int:
    cone = _resolve_cone(args.cone, jsonio.cone_from_json)
    v = volume_ke.volume_function(cone)
    report = {
        "check": "cone-volume",
        "g": cone.g,
        "scale": cone.scale,
        "lattice_volume": v.vol,
        "volume_polynomial": poly_to_json(v.F),
        "ok": True,
    }
    _emit(report, config)
    return EXIT_PASS


def _cmd_ma_verify(args, config: RunConfig) -> int:
    cone = _resolve_cone(args.cone, jsonio.cone_from_json)
    v = volume_ke.volume_function(cone)
    mode = "randomized" if args.randomized else "symbolic"
    result = volume_ke.verify_ma_identity(
        v, mode=mode, trials=config.trials, seed=config.seed)
    report = {
        "identity": "monge-ampere",
        "mode": result.mode,
        "holds": result.holds,
        "vol": result.vol,
        "g": result.g,
        "witnesses": [
            {
                "point": [jsonio.fraction_to_json(x) for x in w.point],
                "lhs": jsonio.fraction_to_json(w.lhs),
                "rhs": jsonio.fraction_to_json(w.rhs),
            }
            for w in result.witnesses
        ],
        "seed": result.seed,
    }
    _emit(report, config)
    return EXIT_PASS if result.holds else EXIT_PROPERTY


def _cmd_ke_test(args, config: RunConfig) -> int:
    cone = _resolve_cone(args.cone, jsonio.cone_from_json)
    mats = [
        [[Fraction(v, cone.scale) for v in row] for row in gen]
        for gen in cone.generators
    ]
    member = volume_ke.is_ke_point(mats)
    report = {
        "check": "ke-membership",
        "g": cone.g,
        "member": member,
        "ok": member,
    }
    _emit(report, config)
    return EXIT_PASS if member else EXIT_PROPERTY


def _cmd_residue(args, config: RunConfig) -> int:
    cone = _resolve_cone(args.cone, jsonio.cone_from_json)
    v = volume_ke.volume_function(cone)
    rc = residue_intersect.residue_chain(v, args.d)
    chi = residue_intersect.chi_descriptor(rc)
    report = {
        "d": rc.d,
        "S": [poly_to_json(s) for s in rc.S],
        "g_d": poly_to_json(rc.gd),
        "chi": {
            "constant": jsonio.fraction_to_json(chi.constant),
            "numerator": poly_to_json(chi.numerator),
            "denominator_base": poly_to_json(chi.denominator_base),
            "denominator_exp": chi.denominator_exp,
        },
    }
    _emit(report, config)
    return EXIT_PASS


def _parse_edge_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad --edges list {text!r}") from exc


def _cone_or_fan(obj):
    if isinstance(obj, dict) and "cones" in obj:
        return jsonio.fan_from_json(obj)
    return jsonio.cone_from_json(obj)


def _cmd_intersect(args, config: RunConfig) -> int:
    indices = _parse_edge_list(args.edges)
    target = _resolve_cone(args.target, _cone_or_fan)
    if isinstance(target, cone_lattice.Fan):
        fan = target
        rays = sorted({ray for c in fan.cones for ray in c.rays()})
        if not all(0 <= i < len(rays) for i in indices):
            raise InputError(
                f"edge index out of range; fan has {len(rays)} distinct rays")
        edges = [cone_lattice.matrix_from_coords(
            [fan.scale * v for v in rays[i]], fan.g) for i in indices]
        edges_int = [[[int(x) for x in row] for row in e] for e in edges]
        verdict = residue_intersect.toric_verdict(fan, edges_int)
        report = {
            "check": "toric-intersection",
            "value": verdict.value,
            "reason": verdict.reason,
            "intersection_number": 1 if verdict.value == "one" else 0,
            "rays": [list(r) for r in rays],
            "selected": indices,
        }
        _emit(report, config)
        return EXIT_PASS
    verdict = residue_intersect.intersection_vanishing(target, indices)
    report = {
        "check": "intersection-vanishing",
        "value": verdict.value,
        "reason": verdict.reason,
        "selected": indices,
    }
    if verdict.chi is not None:
        report["chi"] = {
            "constant": jsonio.fraction_to_json(verdict.chi.constant),
            "numerator": poly_to_json(verdict.chi.numerator),
            "denominator_base": poly_to_json(verdict.chi.denominator_base),
            "denominator_exp": verdict.chi.denominator_exp,
        }
    _emit(report, config)
    return EXIT_PASS


def _cmd_fan_check(args, config: RunConfig) -> int:
    fan = _read(args.fan, jsonio.fan_from_json)
    result = cone_lattice.is_fan(fan.cones)
    report = {
        "check": "fan",
        "g": fan.g,
        "scale": fan.scale,
        "num_cones": len(fan.cones),
        "is_fan": result.ok,
        "violations": list(result.violations),
        "ok": result.ok,
    }
    _emit(report, config)
    return EXIT_PASS if result.ok else EXIT_PROPERTY


def _cmd_separable(args, config: RunConfig) -> int:
    fan = _read(args.fan, jsonio.fan_from_json)
    group = _read(args.group, jsonio.group_from_json)
    result = cone_lattice.is_separable(fan.cones, group)
    # canonical report ordering: sort by cone label, then group element
    labels = []
    for idx, cone in enumerate(fan.cones):
        labels.append(cone.labels[0] if cone.labels else f"cone{idx}")
    violations = sorted(
        (
            {
                "cone_index": v.cone_index,
                "cone_label": labels[v.cone_index],
                "group_index": v.group_index,
                "moved_generator": v.moved_generator,
            }
            for v in result.violations
        ),
        key=lambda d: (d["cone_label"], d["group_index"]),
    )
    report = {
        "check": "separable",
        "num_cones": len(fan.cones),
        "num_group_elements": len(group),
        "separable": result.separable,
        "violations": violations,
        "note": "certificate relative to the supplied group elements only",
        "ok": result.separable,
    }
    _emit(report, config)
    return EXIT_PASS if result.separable else EXIT_PROPERTY


def _cmd_hodge(args, config: RunConfig) -> int:
    # the only numeric subcommand: numpy loads here, not at start-up
    from . import period_domain

    obj = _load_json(args.file)
    tol = config.tol
    sub = args.subcheck
    if sub == "siegel":
        tau = jsonio.complex_matrix_from_json(obj)
        ok = period_domain.siegel_membership(tau, tol)
        report = {"check": "hodge-siegel", "tol": tol, "ok": bool(ok)}
    elif sub == "riemann":
        mat = jsonio.complex_matrix_from_json(obj)
        if len(mat) == len(mat[0]):
            mat = period_domain.filtration_from_tau(mat)
        ok = period_domain.riemann_check(mat, tol)
        report = {"check": "hodge-riemann", "tol": tol, "ok": bool(ok)}
    elif sub in ("nilpotent", "weight"):
        g = jsonio.field(obj, "g", jsonio.decode_int)
        k = jsonio.field(obj, "k", jsonio.decode_int, 0)
        u = jsonio.field(obj, "u", jsonio.real_matrix_from_json)
        nilp = period_domain.CuspNilpotent(g=g, k=k, u=u)
        if sub == "weight":
            rank, nullity, _, _ = period_domain.weight_filtration(nilp, tol)
            report = {
                "check": "hodge-weight",
                "dim_image": rank,
                "dim_kernel": nullity,
                "tol": tol,
                "ok": True,
            }
        else:
            tau_cusp = jsonio.field(obj, "tau_cusp", jsonio.complex_matrix_from_json, None)
            fdual = period_domain.dual_cusp_filtration(nilp, tau_cusp)
            ok = period_domain.nilpotent_orbit_check(fdual, nilp, tol)
            report = {"check": "hodge-nilpotent", "tol": tol, "ok": bool(ok)}
    else:  # block-volume
        tau_prime = jsonio.field(obj, "tau_prime", jsonio.complex_matrix_from_json)
        z = jsonio.field(obj, "Z", jsonio.complex_matrix_from_json)
        s = jsonio.field(obj, "S", jsonio.complex_matrix_from_json)
        ok = period_domain.block_volume_identity(tau_prime, z, s, tol)
        report = {"check": "hodge-block-volume", "tol": tol, "ok": bool(ok)}
    _emit(report, config)
    return EXIT_PASS if report["ok"] else EXIT_PROPERTY


def _cmd_catalog_list(args, config: RunConfig) -> int:
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
    _emit({"check": "catalog", "entries": entries, "ok": True}, config)
    return EXIT_PASS


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
        return args.handler(args, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
