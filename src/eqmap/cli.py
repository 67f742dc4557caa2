"""Command-line entry point: every computation in the package, with JSON or
CSV output, plus a one-shot verification suite.

Exit codes: 0 on success, 1 on a domain error (with a diagnostic naming the
failed precondition), 2 when the verification suite reports failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .coefftables import build_c_table
from .correlators import apply_K, correlator_context, w1_leading, w1_subleading, \
    w1_subleading_antiderivative, w2_diag
from .endpoints import PotentialSpec, uz_jets
from .errors import EqmapError, InvalidParameterError, _require_int
from .genfun import e1_series, e1_value
from .hfunc import h_classical, h_even, h_general
from .measure import density, equilibrium_measure, total_mass, variational_report
from .oracle import census

__all__ = ["main", "entry", "build_parser"]


def _t_dict(pairs, source):
    """{int(j): float(v)} of the (j, v) pairs; a valence named twice is refused."""
    t = {}
    for j, v in pairs:
        j = int(j)
        if j in t:
            raise InvalidParameterError("%s names valence %d twice" % (source, j))
        t[j] = float(v)
    return t


def _parse_t(pairs):
    items = []
    for item in pairs or []:
        if "=" not in item:
            raise ValueError("--t expects j=value, got %r" % item)
        items.append(item.split("=", 1))
    return _t_dict(items, "--t")


def _load_potential(args):
    if getattr(args, "potential", None):
        with open(args.potential) as fh:
            data = json.load(fh)
        t = _t_dict(data.get("t", {}).items(), "--potential file %r" % args.potential)
        return PotentialSpec(float(data.get("x", 1.0)), t)
    return PotentialSpec(args.x, _parse_t(args.t))


def _emit(args, obj, rows=None, header=None):
    """JSON by default; CSV when requested and a tabular form exists."""
    fmt = getattr(args, "format", "json") or "json"
    if fmt == "csv":
        if rows is None:
            raise ValueError("this subcommand has no CSV form")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        # NaN and infinities are not JSON: refused, never written
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jet_payload(jet):
    """An x-jet's orders and coefficients; its entries are its coefficients in order."""
    return {"orders": list(jet.orders), "coeffs": [float(v) for v in jet.c]}


def cmd_endpoints(args):
    _require_int("--order", args.order, 1)
    pot = _load_potential(args)
    ep = uz_jets(pot, x_order=args.order)
    _emit(args, {
        "u": ep.u, "z": ep.z,
        "alpha_minus": ep.alpha_minus, "alpha_plus": ep.alpha_plus,
        "residual_norm": ep.residual_norm,
        "u_jet": _jet_payload(ep.u_jet), "z_jet": _jet_payload(ep.z_jet),
    })
    return 0


def cmd_h(args):
    import numpy as np
    pot = _load_potential(args)
    ep = uz_jets(pot, x_order=pot.degree + 1)
    hc = h_classical(pot, ep)
    hg = h_general(pot, ep)
    out = {
        "classical": hc.monomial.tolist(),
        "general": hg.monomial.tolist(),
        "max_route_difference": float(np.max(np.abs(hc.monomial - hg.monomial))),
        "center": hc.center,
    }
    if pot.is_even:
        he = h_even(pot, ep)
        out["even"] = he.monomial.tolist()
        out["max_route_difference"] = max(
            out["max_route_difference"],
            float(np.max(np.abs(hc.monomial - he.monomial))))
    _emit(args, out)
    return 0


def cmd_density(args):
    _require_int("--grid", args.grid, 0)
    import numpy as np
    pot = _load_potential(args)
    em = equilibrium_measure(pot)
    am, ap = em.support
    lam = np.linspace(am, ap, args.grid)
    psi = density(em, lam)
    _emit(args, {"lambda": lam.tolist(), "psi": np.asarray(psi).tolist(),
                 "total_mass": total_mass(em)},
          rows=[(float(l), float(p)) for l, p in zip(lam, psi)],
          header=("lambda", "psi"))
    return 0


def cmd_variational(args):
    pot = _load_potential(args)
    em = equilibrium_measure(pot)
    rep = variational_report(em, grid_size=args.grid)
    _emit(args, {
        "lagrange_constant": rep.lagrange_constant,
        "max_support_deviation": rep.max_support_deviation,
        "min_offsupport_margin": rep.min_offsupport_margin,
        "grid_size": rep.grid_size,
    })
    return 0


def cmd_coeffs(args):
    table = build_c_table(args.order)
    rows = []
    for k in range(table.kmax + 1):
        for m in range(1, k + 2):
            rows.append((k, m, str(table.phi(k, m)), str(table.psi(k, m))))
    obj = {"kmax": table.kmax,
           "entries": [{"k": k, "m": m, "c_phi": p, "c_psi": q}
                       for k, m, p, q in rows]}
    _emit(args, obj, rows=rows, header=("k", "m", "c_phi", "c_psi"))
    return 0


def cmd_e1(args):
    if args.series is not None:
        _require_int("--series", args.series, 1)
    pot = _load_potential(args)
    res = e1_value(pot)
    out = {"e1": res.value, "u": res.u, "z": res.z,
           "ux": res.ux, "zx": res.zx, "x": res.x}
    if args.series:
        family = PotentialSpec(pot.x, {j: 0.0 for j in pot.t})
        ser = e1_series(family, order=args.series)
        out["series"] = {
            "valences": list(ser.valences),
            "order": ser.order,
            "coefficients": {",".join(map(str, key)): val
                             for key, val in sorted(ser.coeffs.items())},
        }
    _emit(args, out)
    return 0


def cmd_census(args):
    out = []
    for spec in args.profile:
        profile = {}
        for part in spec.split(","):
            try:
                j, k = map(int, part.split(":"))
            except ValueError:
                raise InvalidParameterError("--profile part %r is not J:K" % part) from None
            if j in profile:
                raise InvalidParameterError("--profile part %r repeats valence %d" % (part, j))
            profile[j] = k
        cens = census(profile)
        out.append({
            "profile": {str(j): k for j, k in cens.profile.valences},
            "entries": [{"genus": g, "faces": f, "count": c}
                        for (g, f), c in sorted(cens.entries.items())],
            "connected": cens.connected,
            "disconnected": cens.disconnected,
        })
    _emit(args, out if len(out) > 1 else out[0])
    return 0


def cmd_correlators(args):
    pot = _load_potential(args)
    ctx = correlator_context(pot)
    y = complex(args.y)
    ky = apply_K(ctx, lambda s: w1_subleading(ctx, s), y)
    loop_residual = float(abs(w2_diag(ctx, y) + ky))

    def c2l(v):
        v = complex(v)
        return [v.real, v.imag]

    _emit(args, {
        "y": c2l(y),
        "w1_leading": c2l(w1_leading(ctx, y)),
        "w2_diag": c2l(w2_diag(ctx, y)),
        "w1_subleading": c2l(w1_subleading(ctx, y)),
        "w1_subleading_antiderivative": c2l(w1_subleading_antiderivative(ctx, y)),
        "loop_residual": loop_residual,
    })
    return 0


def cmd_verify(args):
    from . import acceptance
    results = acceptance.run_all(report=print)
    failed = [r for r in results if not r.passed]
    print("%d/%d criteria passed" % (len(results) - len(failed), len(results)))
    return 2 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eqmap",
        description="One-cut equilibrium measures and torus map counts for "
                    "polynomially perturbed Gaussian ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)

    pot_parent = argparse.ArgumentParser(add_help=False)
    pot_parent.add_argument("--x", type=float, default=1.0, help="face weight (default 1)")
    pot_parent.add_argument("--t", action="append", metavar="J=V",
                            help="perturbation coefficient, repeatable")
    pot_parent.add_argument("--potential", metavar="FILE",
                            help='JSON file {"x": 1.0, "t": {"4": 0.01}}')

    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--format", choices=("json", "csv"), default="json")
    out_parent.add_argument("--out", metavar="FILE", help="write output here instead of stdout")

    p = sub.add_parser("endpoints", parents=[pot_parent, out_parent],
                       help="solve for (u, z) and report jets")
    p.add_argument("--order", type=int, default=2, help="x-jet order to report")
    p.set_defaults(fn=cmd_endpoints)

    p = sub.add_parser("h", parents=[pot_parent, out_parent],
                       help="density polynomial by every applicable route")
    p.set_defaults(fn=cmd_h)

    p = sub.add_parser("density", parents=[pot_parent, out_parent],
                       help="sample the equilibrium density")
    p.add_argument("--grid", type=int, default=201)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("variational", parents=[pot_parent, out_parent],
                       help="check the variational characterization")
    p.add_argument("--grid", type=int, default=64)
    p.set_defaults(fn=cmd_variational)

    p = sub.add_parser("coeffs", parents=[out_parent],
                       help="exact expansion coefficient tables")
    p.add_argument("--order", type=int, default=8, help="largest k (default 8)")
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("e1", parents=[pot_parent, out_parent],
                       help="torus map generating function")
    p.add_argument("--series", type=int, metavar="ORDER",
                   help="also expand e1 to this order in each valence direction")
    p.set_defaults(fn=cmd_e1)

    p = sub.add_parser("census", parents=[out_parent],
                       help="brute-force connected map census")
    p.add_argument("--profile", action="append", required=True, metavar="J:K",
                   help="vertex profile, e.g. 4:2 or 3:1,4:1; repeatable")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("correlators", parents=[pot_parent, out_parent],
                       help="correlator closed forms and the loop residual")
    p.add_argument("--y", default="3", help="evaluation point (complex accepted)")
    p.set_defaults(fn=cmd_correlators)

    p = sub.add_parser("verify", help="run the full acceptance suite")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (EqmapError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())
