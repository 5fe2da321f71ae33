"""Command line front end.

Subcommands: run (one experiment with a chosen stopping rule), compare
(all three stopping rules on the identical trace), hull (the exact hull
agreement protocol on per-node point clouds), lse (distributed least
squares with the per-iteration error bound), funccalc (distributed
function evaluation with a Holder error certificate).

Exit codes: 0 success, 1 configuration error, 2 no halt within k_max,
3 invariant violation.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys

import numpy as np

from .applications import (_design, _payloads, _solve_gram, funccalc_error,
                           funccalc_init, lse_error_bounds, polynomial_basis,
                           registered_function, unflatten_payload)
from .consensus import (_CHUNK_ROWS, _NoStop, _StateRows, _csv_table, _resolve_window,
                        _run_windows, consensus_limit)
from .errors import InvariantViolation
from .geometry import extreme_points, vector_norm
from .graph import MODELS, _integer, generate_digraph, make_weights
from .harness import ExperimentConfig, artifact_dir, compare_criteria, run_experiment, write_json
from .hull import encode_extreme_set, run_hull_consensus
from .termination import _RadiusRule


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the config-error code
    def error(self, message):
        raise _CliError(message)


def _add_common(sp, dim=True, stopping=True):
    sp.add_argument("--nodes", type=int, default=10)
    if dim:
        sp.add_argument("--dim", type=int, default=2)
    else:  # the subcommand fixes its own dimension; callers may still read args.dim
        sp.set_defaults(dim=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--topology", choices=MODELS, default="erdos_renyi")
    sp.add_argument("--edge-prob", type=float, default=0.3)
    sp.add_argument("--out-dir", default="out")
    if stopping:
        sp.add_argument("--rho", type=float, default=None)
        sp.add_argument("--rho-relative", action="store_true",
                        help="treat rho as a fraction of the consensus vector norm")
        sp.add_argument("--norm", choices=["1", "2", "inf"], default="2")
        sp.add_argument("--d-bound", type=int, default=None)
        sp.add_argument("--k-max", type=int, default=100_000)


@functools.cache
def build_parser() -> _Parser:
    """The one parser every `main` call shares; parse_args leaves it unchanged,
    and a fresh one per call leaves its help formatters for the cyclic GC."""
    top = _Parser(prog="hullstop", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="one experiment")
    _add_common(run_p)
    run_p.set_defaults(rho=0.01)
    run_p.add_argument("--stopping", choices=["radius", "box", "hull", "none"],
                       default="radius")
    run_p.add_argument("--engine", choices=["ratio", "row"], default="ratio")

    cmp_p = sub.add_parser("compare", help="radius vs box vs hull stopping")
    _add_common(cmp_p)
    cmp_p.set_defaults(stopping="radius")
    cmp_p.add_argument("--engine", choices=["ratio", "row"], default="ratio")

    hull_p = sub.add_parser("hull", help="exact hull agreement protocol")
    _add_common(hull_p, stopping=False)
    hull_p.add_argument("--points", type=int, default=4,
                        help="points per node in the initial clouds")

    lse_p = sub.add_parser("lse", help="distributed least squares")
    _add_common(lse_p, dim=False, stopping=False)
    lse_p.add_argument("--k-max", type=int, default=300)
    lse_p.add_argument("--degree", type=int, default=2,
                       help="polynomial basis degree")
    lse_p.add_argument("--data", default=None,
                       help="csv of x,y rows; node count follows the file")

    fc_p = sub.add_parser("funccalc", help="distributed function evaluation")
    _add_common(fc_p, dim=False)
    fc_p.set_defaults(rho=0.001)
    fc_p.add_argument("--function", choices=["max", "mean", "sum"], default="max")
    return top


def _config_from(args) -> ExperimentConfig:
    return ExperimentConfig(
        n=_integer("--nodes", args.nodes, 1), dim=args.dim, topology=args.topology,
        edge_prob=args.edge_prob, seed=args.seed, engine=args.engine, stopping=args.stopping,
        rho=args.rho, rho_relative=args.rho_relative, norm=float(args.norm),
        dbound=args.d_bound, k_max=args.k_max, out_dir=args.out_dir,
    )


def _cmd_run(args) -> int:
    cfg = _config_from(args)
    res = run_experiment(cfg)
    print(json.dumps(res.summary))
    if cfg.stopping != "none" and not res.summary["halted"]:
        return 2
    return 0


def _no_file_on_the_way(out_dir):
    """Raise, making nothing, the OSError os.makedirs(out_dir, exist_ok=True)
    would raise for a file at out_dir (File exists) or above it (Not a
    directory). compare makes its directory only after its runs, so that a
    run rejected on its config (a --d-bound below the diameter, say) leaves
    none; this rejects an unusable out_dir before the first step."""
    head = out_dir
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        at = os.path.normpath(head) == os.path.normpath(out_dir)
        code = errno.EEXIST if at else errno.ENOTDIR
        raise OSError(code, os.strerror(code), out_dir)


def _cmd_compare(args) -> int:
    if args.rho is None:
        raise _CliError("compare requires --rho")
    cfg = _config_from(args)
    _no_file_on_the_way(args.out_dir)
    rows = compare_criteria(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    write_json(os.path.join(args.out_dir, "compare.json"), rows)
    print(f"{'method':<8}{'halt_k':>8}{'extra_bits':>12}{'spread_at_halt':>18}")
    for row in rows:
        spread = "-" if row["spread_at_halt"] is None else f"{row['spread_at_halt']:.3e}"
        halt = "-" if row["halt_k"] is None else str(row["halt_k"])
        print(f"{row['method']:<8}{halt:>8}{row['extra_bits']:>12}{spread:>18}")
    if not all(row["halted"] for row in rows):
        return 2
    return 0


def _cmd_hull(args) -> int:
    _integer("--points", args.points, 1)
    _integer("--dim", args.dim, 1)
    _integer("--nodes", args.nodes, 1)
    g = generate_digraph(args.nodes, args.topology, args.seed, args.edge_prob)
    rng = np.random.default_rng([args.seed, 2])
    sets = [rng.random((args.points, args.dim)) for _ in range(g.n)]
    with artifact_dir(args.out_dir, g) as (path, summary):
        final, history = run_hull_consensus(sets, g, return_history=True)
        central = extreme_points(np.vstack(sets))
        if any(e != central for e in final):
            raise InvariantViolation("hull protocol did not reach the centralized extreme set")
        with _csv_table(path("hull_rounds.csv"), "round,node,message", "%d,%d,%s") as write:
            for t, snapshot in enumerate(history):
                msgs = [";".join(f"{v:.17g}" for v in encode_extreme_set(e)) for e in snapshot]
                # as objects: a numpy str array would pad every message to the longest
                write(t, np.arange(g.n), np.array(msgs, dtype=object))
        summary.update({
            "rounds": g.diameter,
            "extreme_count": len(central),
            "agreement": True,
            "hull_points": [list(map(float, q)) for q in central.points],
        })
    print(json.dumps({k: summary[k] for k in ("rounds", "extreme_count", "agreement")}))
    return 0


def _load_dataset(path):
    """x and y arrays of a csv: an optional x,y header in any case, blank
    lines skipped, then exactly two fields per row, each read by float()
    and finite."""
    with open(path) as fh:
        rows = fh.readlines()
    first = 1 if rows and rows[0].strip().lower() == "x,y" else 0
    lines = [i for i in range(first, len(rows)) if rows[i].strip()]
    if not lines:
        raise _CliError("dataset is empty")
    xs, ys = np.loadtxt([rows[i] for i in lines], delimiter=",", ndmin=2, unpack=True,
                        comments=None, converters=float)
    bad = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(ys)))
    if bad.size:
        i = lines[bad[0]]
        raise _CliError(f"{path} line {i + 1}: x and y must be finite, got {rows[i].strip()!r}")
    return xs, ys


def _cmd_lse(args) -> int:
    _integer("--degree", args.degree, 0)
    if args.data is None:  # else the node count follows the file
        _integer("--nodes", args.nodes, 1)
    _integer("--k-max", args.k_max, 0)
    basis = polynomial_basis(args.degree)
    M = len(basis)
    if args.data is not None:
        xs, ys = _load_dataset(args.data)
        design = _design(xs, basis)
    else:
        rng = np.random.default_rng([args.seed, 3])
        xs = rng.uniform(-1.0, 1.0, args.nodes)
        design = _design(xs, basis)
        ys = design @ rng.normal(size=M) + 0.01 * rng.normal(size=xs.size)
    n = xs.size
    g = generate_digraph(n, args.topology, args.seed, args.edge_prob)
    W = make_weights(g, "column")
    payloads = _payloads(design, ys)
    G_true, z_true = unflatten_payload(payloads.mean(axis=0), M)
    theta_hat = _solve_gram(G_true, z_true)

    with artifact_dir(args.out_dir, g) as (path, summary):
        with _csv_table(path("dataset.csv"), "x,y", "%.17g,%.17g") as write:
            write(xs, ys)
        with _csv_table(path("bound.csv"), "n,node,lhs,bound,holds",
                        "%d,%d,%.17g,%.17g,%s") as write:
            # row s of bound.csv is step s // n, node s % n. Whole steps wait
            # until they hold _CHUNK_ROWS rows (a longer step goes alone), then
            # are bounded and written in one kernel call, which bounds the
            # temporaries and what a singular item costs. The engine makes a
            # fresh state each step, so the waiting ones stay as they were
            held, done, lhs = [], 0, None  # waiting steps' states; rows written

            def flush():
                nonlocal done, lhs
                rs = np.concatenate(held)
                held.clear()
                eb = lse_error_bounds(rs[:, :M * M].reshape(-1, M, M), rs[:, M * M:],
                                      G_true, z_true)
                k, node = np.divmod(np.arange(done, done + len(rs)), n)
                write(k, node, eb.lhs, eb.bound,
                      np.where(eb.applicable, eb.holds.astype(int), "na"))
                done, lhs = done + len(rs), eb.lhs

            def sink(k, row, halt):
                held.append(row["rs"])
                if len(held) * n >= _CHUNK_ROWS:
                    flush()

            _run_windows(_NoStop(g, None, 2.0), W, payloads, None, args.k_max, sinks=(sink,))
            if held:
                flush()
        final_err = float(np.nanmax(lhs[-n:], initial=0.0))
        summary.update({
            "theta_hat": [float(v) for v in theta_hat],
            "n": int(n),
            "k_steps": args.k_max,
            "final_max_error": final_err,
            "basis_size": M,
        })
    print(json.dumps(summary))
    return 0


def _cmd_funccalc(args) -> int:
    if not args.rho > 0:
        raise _CliError(f"funccalc needs --rho > 0, got {args.rho}")
    _integer("--k-max", args.k_max, 1)  # with no step the run cannot halt
    n = _integer("--nodes", args.nodes, 1)
    f, C, alpha = registered_function(args.function, n)
    rng = np.random.default_rng([args.seed, 4])
    u = rng.random(n)
    state0 = funccalc_init(u)
    g = generate_digraph(n, args.topology, args.seed, args.edge_prob)
    W = make_weights(g, "column")
    p = float(args.norm)
    rho = args.rho
    if args.rho_relative:
        rho = args.rho * float(vector_norm(u, p))
    D = _resolve_window(g, args.d_bound)  # before the output directory is made
    r_bar = consensus_limit(state0.x, W)

    cert = C * (2.0 * rho) ** alpha
    holder_ok, lhs = True, None  # over every step; the last step's errors
    with artifact_dir(args.out_dir, g) as (path, summary):
        with (open(path("states.csv"), "w", newline="") as fh,
              _csv_table(path("holder.csv"), "k,node,lhs,rhs,holds", "%d,%d,%.17g,%.17g,%d")
              as write):
            def holder(k, row, halt):
                # holder.csv rows of each step as the run makes it
                nonlocal holder_ok, lhs
                lhs, rhs, ok = funccalc_error(f, C, alpha, row["rs"], r_bar)
                holder_ok = holder_ok and bool(ok.all())
                write(k, np.arange(n), lhs, rhs, ok)

            trace = _run_windows(_RadiusRule(g, rho, p), W, state0.x, D, args.k_max,
                                 sinks=(_StateRows(fh), holder))
        worst = float(lhs.max())
        summary.update({
            "function": args.function,
            "halted": trace.halted,
            "halt_k": trace.halt_t,
            "rho": rho,
            "worst_error_at_end": worst,
            "certificate": cert,
            "certificate_ok": bool(worst <= cert + 1e-12) if trace.halted else None,
            "holder_ok_every_step": holder_ok,
            "f_limit": float(f(r_bar)),
        })
    print(json.dumps(summary))
    if not trace.halted:
        return 2
    return 0


_HANDLERS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "hull": _cmd_hull,
    "lse": _cmd_lse,
    "funccalc": _cmd_funccalc,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # every subcommand seeds default_rng with it, which rejects a negative
        _integer("--seed", args.seed, 0)
        return _HANDLERS[args.command](args)
    except InvariantViolation as exc:  # before RuntimeError, its base class
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (_CliError, ValueError, OSError, RuntimeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
