"""Command-line driver: sweeps, single-state estimates, timing, self-checks."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import (
    CSV_HEADER,
    bench_timing,
    default_gamma_grid,
    default_tau_grid,
    sweep,
    write_csv,
    write_manifest,
)
from .golden import dicke_norm_closed, dicke_reference, ds_reference
from .heuristic import x_heuristic
from .optim import OptimConfig
from .phi_scheme import c_phi_estimate, i_phi_from_vector, pair_seeds
from .states import (
    DiagSymParams,
    DickeParams,
    dicke_normalization,
    dicke_steady_state,
    diagonal_symmetric,
    load_json,
    random_density_matrix,
)
from .wootters import verify_dicke2_equality
from .xform import gm_lower_bound_x


def _cmd_sweep(args, cfg) -> int:
    if args.family == "ds":
        grid, span = default_tau_grid(args.points), {}
    else:
        grid = default_gamma_grid(args.gamma_min, args.gamma_max, args.points)
        span = {"gamma_min": args.gamma_min, "gamma_max": args.gamma_max}
    records = sweep(args.family, args.n, grid, cfg, include_phi=args.phi)
    extra = {"command": args.command, "n_qubits": args.n, **span, "points": args.points}
    if args.out:
        out = Path(args.out)
        write_csv(records, out)
        write_manifest(out.with_suffix(".manifest.json"), cfg, extra)
        print(f"wrote {len(records)} rows to {out}")
    else:
        print(CSV_HEADER)
        for rec in records:
            print(rec.csv_row())
    return 0


def _optim_fields(optim) -> dict:
    return {
        "iterations": optim.iterations,
        "converged": optim.converged,
        "restarts_used": optim.restarts_used,
        "wall_time_s": optim.wall_time,
        "value_rows": optim.value_rows,
        "grad_rows": optim.grad_rows,
        "line_search": optim.line_search,
    }


def _cmd_estimate(args, cfg) -> int:
    rho = load_json(args.state)
    out = {"n_qubits": rho.n_qubits, "gm_lower_bound_x": gm_lower_bound_x(rho)}
    # The phi scheme seeds from an X-heuristic run and returns it as ``.x``.
    phi = None if args.method == "x" else c_phi_estimate(rho, cfg)
    if args.method != "phi":
        res = x_heuristic(rho, cfg) if phi is None else phi.x
        out["x_heuristic"] = {"estimate": res.estimate, "f_min": res.f_min, **_optim_fields(res.optim)}
    if phi is not None:
        out["phi_scheme"] = {"estimate": phi.estimate, "kink_rows": phi.kink_rows, **_optim_fields(phi.optim)}
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def _cmd_bench(args, cfg) -> int:
    summary = bench_timing(
        args.family, args.n, args.param, args.method, args.reps, cfg,
        threshold=args.threshold, budget=args.budget,
    )
    doc = {
        "method": summary.method,
        "family": args.family,
        "n_qubits": summary.n_qubits,
        "parameter": args.param,
        "threshold": summary.threshold,
        "five_number_s": list(summary.five_number),
        "median_s": summary.five_number[2],
        "repetitions": summary.repetitions,
        "total_attempts": summary.total_attempts,
        "complete": summary.complete,
    }
    json.dump(doc, sys.stdout, indent=2)
    print()
    if args.out:
        write_manifest(Path(args.out), cfg, {"command": "bench", **doc, "times_s": list(summary.times)})
    return 0


def _check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"  [{'PASS' if ok else 'FAIL'}] {name}" + (f"  {detail}" if detail and not ok else ""))
    return ok


def _pair_seed_bound(rho) -> float:
    """``max(0, 2 max I)`` of the product-state witness over the anti-diagonal pair seeds."""
    n = rho.n_qubits
    return max(0.0, 2.0 * float(np.max(i_phi_from_vector(rho.mat, pair_seeds(np.zeros(2 * n)), n))))


def _cmd_verify() -> int:
    ok = True

    # The witness at the anti-diagonal pair seeds against the X formula, on random mixed states.
    worst = 0.0
    for n in (2, 3, 4, 5):
        for rank in (1, 2, 2 ** n):
            for s in range(20):
                rho = random_density_matrix(n, rank, seed=1000 * n + 10 * rank + s)
                worst = max(worst, abs(_pair_seed_bound(rho) - gm_lower_bound_x(rho)))
    ok &= _check("product-state witness at the pair seeds equals X-projection bound (240 random states)",
                 worst < 1e-12, f"max deviation {worst:.3e}")

    # Golden matrices.
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(5):
            p = rng.dirichlet(np.ones(n + 1))
            got = diagonal_symmetric(DiagSymParams(n, p))
            worst = max(worst, float(np.abs(got.mat - ds_reference(n, p)).max()))
    ok &= _check("diagonal symmetric factory matches reference tables", worst < 1e-12,
                 f"max deviation {worst:.3e}")

    worst = 0.0
    worst_norm = 0.0
    for n in (2, 3, 4):
        for g in (0.1, 0.5, 1.0, 1.652, 3.0):
            got = dicke_steady_state(DickeParams(n, g))
            worst = max(worst, float(np.abs(got.mat - dicke_reference(n, g)).max()))
            dn = dicke_norm_closed(n, g)
            worst_norm = max(worst_norm, abs(dicke_normalization(n, g) - dn) / dn)
    ok &= _check("driven steady-state factory matches reference tables", worst < 1e-12,
                 f"max deviation {worst:.3e}")
    ok &= _check("steady-state normalization matches closed forms", worst_norm < 1e-12,
                 f"max relative deviation {worst_norm:.3e}")

    report = verify_dicke2_equality(np.linspace(0.0, 10.0, 21))
    ok &= _check("two-qubit Wootters = X-projection bound = closed form",
                 report.max_deviation < 1e-10, f"max deviation {report.max_deviation:.3e}")

    print("verify:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gmx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, restarts_default):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=restarts_default)

    p = sub.add_parser("sweep-ds", help="tau sweep over the diagonal symmetric family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--phi", action="store_true", help="also run the product-state scheme")
    p.add_argument("--out", type=str, default=None)
    common(p, restarts_default=8)
    p.set_defaults(func=_cmd_sweep, family="ds")

    p = sub.add_parser("sweep-dicke", help="gamma sweep over the driven steady states")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma-min", type=float, default=0.1)
    p.add_argument("--gamma-max", type=float, default=20.0)
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--phi", action="store_true")
    p.add_argument("--out", type=str, default=None)
    common(p, restarts_default=8)
    p.set_defaults(func=_cmd_sweep, family="dicke")

    p = sub.add_parser("estimate", help="estimate a single density matrix from JSON")
    p.add_argument("--state", type=str, required=True)
    p.add_argument("--method", choices=("x", "phi", "both"), default="both")
    common(p, restarts_default=20)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bench", help="threshold-timing benchmark")
    p.add_argument("--family", choices=("ds", "dicke"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", type=float, required=True, help="tau or gamma")
    p.add_argument("--method", choices=("x", "phi"), required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--budget", type=float, default=None,
                   help="per-repetition time budget in seconds; without one, an unreachable threshold never returns")
    p.add_argument("--threshold", type=float, default=None,
                   help="target estimate; defaults to the warm-started X-heuristic value")
    p.add_argument("--out", type=str, default=None, help="manifest path")
    common(p, restarts_default=1)
    p.set_defaults(func=_cmd_bench)

    sub.add_parser("verify", help="run the built-in identity and golden-matrix checks")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify()
    # Bad input the library rejects ends like an argparse error, not a traceback.
    try:
        return args.func(args, OptimConfig(restarts=args.restarts, seed=args.seed).validate())
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
