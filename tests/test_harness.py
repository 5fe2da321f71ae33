import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hullstop.applications as applications
import hullstop.cli as cli
import hullstop.consensus as consensus
import hullstop.graph as graph
import hullstop.harness as harness
import hullstop.hull as hull
import hullstop.termination as termination
from hullstop import (
    ExperimentConfig,
    InvariantViolation,
    compare_criteria,
    generate_digraph,
    lse_batch,
    lse_gram,
    lse_payload_states,
    make_weights,
    polynomial_basis,
    run_consensus,
    run_experiment,
    verify_states_file,
)
from oracles import lse_error_bound_reference, write_bound_reference


def cfg_for(tmp_path, **kw):
    base = dict(n=7, dim=2, topology="erdos_renyi", edge_prob=0.4, seed=5,
                engine="ratio", stopping="radius", rho=1e-3,
                out_dir=str(tmp_path / "out"))
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_json_round_trip(tmp_path):
    cfg = cfg_for(tmp_path, norm=float("inf"), dbound=4, rho_relative=True)
    text = cfg.to_json()
    obj = json.loads(text)
    assert obj["norm"] == "inf"
    obj["norm"] = float(obj["norm"])
    assert ExperimentConfig(**obj) == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(dim=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(topology="grid").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(engine="gossip").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(stopping="oracle").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(stopping="radius", rho=None).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(stopping="radius", rho=float("nan")).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(norm=3).validate()
    with pytest.raises(ValueError):  # config.json would record it as "inf"
        ExperimentConfig(norm=float("-inf")).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(k_max=0).validate()
    assert ExperimentConfig().validate() is not None


def test_run_experiment_radius_outputs(tmp_path):
    cfg = cfg_for(tmp_path)
    res = run_experiment(cfg)
    for name in ("graph.json", "config.json", "states.csv", "termination.csv",
                 "summary.json"):
        assert os.path.exists(res.paths[name])
    s = res.summary
    assert s["halted"] and s["halt_k"] == s["k_steps"]
    assert s["guarantee_2rho_ok"] is True
    assert s["final_spread"] <= 2 * s["rho"]
    assert s["bandwidth_bits"] == 33
    assert s["dbound"] >= 1
    # summary on disk matches the returned one
    on_disk = json.loads(Path(res.paths["summary.json"]).read_text())
    assert on_disk == json.loads(json.dumps(s))


def test_run_experiment_is_byte_deterministic(tmp_path):
    cfg = cfg_for(tmp_path, stopping="box", dim=3)
    res1 = run_experiment(cfg)
    blobs = {n: Path(p).read_bytes() for n, p in res1.paths.items()}
    res2 = run_experiment(cfg_for(tmp_path, stopping="box", dim=3))
    for name, path in res2.paths.items():
        assert Path(path).read_bytes() == blobs[name], name


def test_run_experiment_none_stopping(tmp_path):
    cfg = cfg_for(tmp_path, stopping="none", rho=None, k_max=25)
    res = run_experiment(cfg)
    assert "termination.csv" not in res.paths
    s = res.summary
    assert not s["halted"] and s["halt_k"] is None and s["k_steps"] == 25
    assert s["bandwidth_bits"] == 0 and s["guarantee_2rho_ok"] is None


# ROADMAP item 2: on nearly flat start states a point within geometry's 1e-9
# of the hull's boundary is kept by one node and dropped by another, and the
# hull rule raises "extreme sets disagree" instead of halting; the ER n=12,
# d=3 case shows the fault is not limited to tiny rho
@pytest.mark.xfail(strict=True, raises=InvariantViolation,
                   reason="hull rule's extreme sets disagree (ROADMAP item 2)")
@pytest.mark.parametrize("kw", [
    dict(n=10, dim=2, seed=1, rho=1e-6, edge_prob=0.3),
    dict(n=8, dim=2, seed=3, rho=1e-8, topology="ring"),
    dict(n=12, dim=3, seed=9, rho=1e-4, edge_prob=0.3),
], ids=["er10-t27", "ring8-t224", "er12-d3-t35"])
def test_hull_rule_halts_within_2rho_on_flat_start_states(tmp_path, kw):
    res = run_experiment(cfg_for(tmp_path, stopping="hull", **kw))
    assert res.summary["halted"] and res.summary["guarantee_2rho_ok"]


def test_run_experiment_relative_rho(tmp_path):
    cfg = cfg_for(tmp_path, rho=0.05, rho_relative=True)
    res = run_experiment(cfg)
    assert res.rho_abs != pytest.approx(0.05)
    assert res.summary["rho"] == res.rho_abs
    assert res.summary["final_spread"] <= 2 * res.rho_abs


def test_verify_states_file_matches_run(tmp_path):
    cfg = cfg_for(tmp_path)
    res = run_experiment(cfg)
    checked = verify_states_file(res.paths["states.csv"], 2.0)
    assert checked["k_steps"] == res.summary["k_steps"]
    assert checked["final_spread"] == res.summary["final_spread"]


def test_states_file_cut_at_a_step_boundary_is_a_length_mismatch(tmp_path, monkeypatch):
    # read_state_csv reads a file missing its last step's rows as a valid
    # shorter trace; the run's own step count is what catches it
    real = harness._run_windows

    def drop_last_step(*args, sinks):
        def short(k, row, halt):
            if not halt:
                for sink in sinks:
                    sink(k, row, halt)
        return real(*args, sinks=(short,))

    monkeypatch.setattr(harness, "_run_windows", drop_last_step)
    with pytest.raises(InvariantViolation, match="trace length mismatch"):
        run_experiment(cfg_for(tmp_path))


def test_halt_before_the_end_of_the_written_trace_is_an_invariant_violation(tmp_path,
                                                                             monkeypatch):
    # a stopping run whose halt step is not its last written step
    real = harness._run_windows

    def early_halt(*args, **kw):
        trace = real(*args, **kw)
        trace.halt_t -= 1
        return trace

    monkeypatch.setattr(harness, "_run_windows", early_halt)
    with pytest.raises(InvariantViolation, match="^halt iteration .* does not close the "
                                                 "written trace$"):
        run_experiment(cfg_for(tmp_path))


def test_failed_run_leaves_no_artifact_and_keeps_the_previous_set(tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = ["run", "--nodes", "7", "--seed", "5", "--rho", "1e-3", "--out-dir", str(out)]
    assert cli.main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real = termination._RadiusRule.boundary
    calls = []

    def second_boundary_fails(self, index, start_t, t):
        calls.append(t)
        if len(calls) == 2:
            raise InvariantViolation(f"forced at boundary t={t}")
        return real(self, index, start_t, t)

    monkeypatch.setattr(termination._RadiusRule, "boundary", second_boundary_fails)
    assert cli.main(argv) == 3
    assert len(calls) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    calls.clear()
    fresh = tmp_path / "fresh"
    assert cli.main(argv[:-1] + [str(fresh)]) == 3
    assert len(calls) == 2 and list(fresh.iterdir()) == []


def test_non_halting_experiment_keeps_memory_flat(tmp_path, traced_peak):
    # no history, one kept window and a read-back in step blocks: nothing grows
    warm_up = cfg_for(tmp_path, n=8, dim=1, topology="ring", k_max=5)

    def peak(k_max):
        cfg = cfg_for(tmp_path, n=8, dim=1, topology="ring", rho=1e-300, k_max=k_max)
        runs = []
        top = traced_peak(lambda: runs.append(run_experiment(cfg)),
                          warm_up=lambda: run_experiment(warm_up))
        assert not runs[0].summary["halted"] and runs[0].summary["k_steps"] == k_max
        return top

    assert peak(4000) - peak(500) < graph._BLOCK_BYTES


def test_bench_experiment_peaks_below_one_megabyte(tmp_path, traced_peak):
    # run_experiment at the bench's config (n=300, d=10, edge probability
    # 4 ln n / n, radius rule), after a warm-up run. Each transient block
    # keeps within the byte budget, the weights' slot order is made before
    # the first step, and the states.csv read-back holds one block at a
    # time: about 0.78 MB, where row-counted blocks had peaked at 1.25 MB
    cfg = cfg_for(tmp_path, n=300, dim=10, edge_prob=4 * math.log(300) / 300, seed=41,
                  rho=0.01)
    assert traced_peak(lambda: run_experiment(cfg)) < 1.0e6


def test_row_engine_experiment(tmp_path):
    cfg = cfg_for(tmp_path, engine="row", stopping="radius")
    res = run_experiment(cfg)
    assert res.summary["halted"] and res.summary["engine"] == "row"


def test_compare_criteria_rows(tmp_path):
    cfg = cfg_for(tmp_path, dim=3, rho=1e-3)
    rows = compare_criteria(cfg)
    assert [r["method"] for r in rows] == ["radius", "box", "hull"]
    by = {r["method"]: r for r in rows}
    assert all(r["halted"] for r in rows)
    assert all(r["within_2rho"] for r in rows)
    assert by["radius"]["extra_bits"] == 33
    assert by["box"]["extra_bits"] == 2 * 32 * 3
    assert by["hull"]["extra_bits"] >= 32 * 3
    assert by["box"]["extra_bits"] > by["radius"]["extra_bits"]
    # box and hull decide on exact global quantities, radius is conservative
    assert by["box"]["halt_k"] <= by["radius"]["halt_k"]
    with pytest.raises(ValueError):
        compare_criteria(cfg_for(tmp_path, stopping="none", rho=None))


# --- command line ---


def test_cli_run_and_artifacts(tmp_path, capsys):
    out = str(tmp_path / "r")
    rc = cli.main(["run", "--nodes", "8", "--dim", "2", "--seed", "3",
                   "--rho", "0.001", "--out-dir", out])
    assert rc == 0
    summary = json.loads(Path(out, "summary.json").read_text())
    assert summary["halted"] is True
    assert capsys.readouterr().out.strip() != ""


def test_cli_exit_code_config_error(tmp_path):
    assert cli.main(["run", "--nodes", "0", "--out-dir", str(tmp_path)]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["run", "--norm", "7"]) == 1


def test_cli_missing_data_file_is_config_error(tmp_path, capsys):
    rc = cli.main(["lse", "--data", str(tmp_path / "missing.csv"),
                   "--out-dir", str(tmp_path / "l")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_cli_out_dir_on_a_file_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc = cli.main(["hull", "--nodes", "4", "--out-dir", str(blocker)])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, module, step", [
    (["run"], consensus._Engine, "step"),
    (["funccalc"], consensus._Engine, "step"),
    (["lse", "--k-max", "3000"], consensus._Engine, "step"),
    (["hull", "--dim", "3", "--points", "6"], hull, "hull_round"),
    (["compare", "--rho", "0.01"], consensus._Engine, "step"),
], ids=["run", "funccalc", "lse", "hull", "compare"])
def test_cli_out_dir_on_a_file_is_rejected_before_any_step(tmp_path, capsys, spy_calls,
                                                           argv, module, step):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    steps = spy_calls(module, step)
    assert cli.main(argv + ["--nodes", "6", "--out-dir", str(blocker)]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert steps == []


@pytest.mark.parametrize("below", ["", "sub", "sub/deeper/"], ids=["file", "sub", "deeper"])
def test_cli_compare_out_dir_under_a_file_fails_as_makedirs_would(tmp_path, capsys, spy_calls,
                                                                  below):
    # compare makes its directory only after its runs, so it checks the
    # path first for the error os.makedirs would raise there
    out = tmp_path / "blocker"
    out.write_text("")
    out = os.path.join(out, below)
    with pytest.raises(OSError) as made:
        os.makedirs(out, exist_ok=True)
    steps = spy_calls(consensus._Engine, "step")
    assert cli.main(["compare", "--rho", "0.01", "--nodes", "6", "--out-dir", out]) == 1
    assert f"configuration error: [Errno {made.value.errno}] {made.value.strerror}: " in \
        capsys.readouterr().err
    assert steps == []


@pytest.mark.parametrize("argv", [["run"], ["run", "--stopping", "box"], ["funccalc"],
                                  ["compare", "--rho", "0.01"]], ids=" ".join)
def test_cli_window_below_the_diameter_is_rejected_before_the_out_dir(tmp_path, argv):
    out = tmp_path / "o"
    rc = cli.main(argv + ["--nodes", "8", "--topology", "ring", "--d-bound", "3",
                          "--out-dir", str(out)])
    assert rc == 1
    assert not out.exists()


def test_cli_graph_draw_budget_exhausted_is_config_error(tmp_path, capsys):
    out = tmp_path / "g"
    rc = cli.main(["run", "--nodes", "30", "--edge-prob", "1e-9", "--out-dir", str(out)])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_funccalc_nan_rho_is_config_error(tmp_path):
    rc = cli.main(["funccalc", "--nodes", "5", "--rho", "nan", "--k-max", "30",
                   "--out-dir", str(tmp_path / "f")])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["run", "--nodes", "0"],
    ["compare", "--nodes", "0", "--rho", "0.01"],
    ["hull", "--nodes", "0"],
    ["funccalc", "--nodes", "-1"],
    ["lse", "--nodes", "0"],
    ["lse", "--nodes", "-2"],
    ["hull", "--dim", "0"],
    ["hull", "--dim", "-1"],
])
def test_cli_rejects_sizes_below_one_by_flag(tmp_path, capsys, argv):
    out = tmp_path / "o"
    rc = cli.main(argv + ["--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"configuration error: {argv[1]} must be >= 1, got {argv[2]}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["compare", "--rho", "0.01", "--stopping", "box"],
    ["hull", "--rho", "0.1"],
    ["hull", "--rho-relative"],
    ["hull", "--norm", "1"],
    ["hull", "--d-bound", "5"],
    ["hull", "--k-max", "10"],
    ["hull", "--stopping", "box"],
    ["lse", "--dim", "3"],
    ["lse", "--rho", "0.1"],
    ["lse", "--rho-relative"],
    ["lse", "--norm", "1"],
    ["lse", "--d-bound", "5"],
    ["lse", "--stopping", "box"],
    ["funccalc", "--dim", "3"],
    ["funccalc", "--stopping", "box"],
], ids=" ".join)
def test_cli_rejects_flags_the_subcommand_ignores(tmp_path, argv):
    assert cli.main(argv + ["--out-dir", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--nodes", "6", "--rho", "1e-15", "--k-max", "15"],
    ["compare", "--nodes", "6", "--dim", "2", "--rho", "1e-3", "--k-max", "5"],
    ["funccalc", "--nodes", "6", "--k-max", "2", "--rho", "1e-9"],
], ids=lambda argv: argv[0])
def test_cli_exit_code_non_halt(tmp_path, argv):
    assert cli.main(argv + ["--out-dir", str(tmp_path / "nh")]) == 2


def test_cli_exit_code_invariant_violation(tmp_path, monkeypatch):
    def boom(cfg):
        raise InvariantViolation("forced")
    monkeypatch.setattr(cli, "run_experiment", boom)
    rc = cli.main(["run", "--nodes", "6", "--out-dir", str(tmp_path / "iv")])
    assert rc == 3


def test_cli_hull_off_the_central_extreme_set_is_an_invariant_violation(tmp_path, monkeypatch,
                                                                        capsys):
    # one node ends on its own cloud's extreme set, not the union's
    real = cli.run_hull_consensus

    def wrong(sets, g, **kw):
        final, history = real(sets, g, **kw)
        return final[:-1] + [cli.extreme_points(sets[-1])], history

    monkeypatch.setattr(cli, "run_hull_consensus", wrong)
    out = tmp_path / "h"
    rc = cli.main(["hull", "--nodes", "6", "--dim", "2", "--seed", "4", "--points", "3",
                   "--out-dir", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == ("invariant violation: hull protocol did not reach the "
                                       "centralized extreme set\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, code", [
    (["run", "--nodes", "4", "--dim", "1"], 0),
    (["run", "--frobnicate"], 1),
    (["run", "--nodes", "5", "--k-max", "1"], 2),
], ids=["ok", "config-error", "no-halt"])
def test_cli_runs_as_a_module(tmp_path, argv, code):
    # README calls `python -m hullstop.cli` equivalent to the `hullstop` script
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hullstop.cli", *argv,
                           "--out-dir", str(tmp_path / "o")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 1:
        assert proc.stdout == ""
        assert proc.stderr.startswith("configuration error: ")
    else:
        assert proc.stderr == ""
        assert len(proc.stdout.splitlines()) == 1
        assert json.loads(proc.stdout)["halted"] is (code == 0)


def test_cli_compare(tmp_path, capsys):
    out = str(tmp_path / "c")
    rc = cli.main(["compare", "--nodes", "7", "--dim", "3", "--seed", "2",
                   "--rho", "0.001", "--out-dir", out])
    assert rc == 0
    rows = json.loads(Path(out, "compare.json").read_text())
    assert [r["method"] for r in rows] == ["radius", "box", "hull"]
    text = capsys.readouterr().out
    assert "radius" in text and "box" in text and "hull" in text


def test_cli_hull(tmp_path):
    out = str(tmp_path / "h")
    rc = cli.main(["hull", "--nodes", "6", "--dim", "2", "--seed", "4",
                   "--points", "3", "--out-dir", out])
    assert rc == 0
    summary = json.loads(Path(out, "summary.json").read_text())
    assert summary["agreement"] is True
    lines = Path(out, "hull_rounds.csv").read_text().splitlines()
    assert lines[0] == "round,node,message"
    assert len(lines) > 6


def test_cli_lse(tmp_path):
    out = str(tmp_path / "l")
    rc = cli.main(["lse", "--nodes", "10", "--degree", "2", "--seed", "1",
                   "--out-dir", out])
    assert rc == 0
    summary = json.loads(Path(out, "summary.json").read_text())
    assert summary["final_max_error"] < 1e-6
    assert os.path.exists(os.path.join(out, "bound.csv"))
    assert os.path.exists(os.path.join(out, "dataset.csv"))


def test_cli_lse_makes_one_kernel_call_per_block(tmp_path, spy_calls):
    per_item = spy_calls(applications, "lse_error_bound")
    calls = spy_calls(cli, "lse_error_bounds")
    rc = cli.main(["lse", "--nodes", "10", "--k-max", "60", "--out-dir", str(tmp_path / "l")])
    assert rc == 0
    assert per_item == [] and "lse_error_bound" not in vars(cli)
    # 61 steps of 10 rows: whole steps gather until they reach _CHUNK_ROWS
    # rows (26 steps, 260 rows), and the last 9 steps go at the end
    assert [len(args[0]) for args, _ in calls] == [260, 260, 90]
    # a step longer than _CHUNK_ROWS is a call of its own
    calls.clear()
    extra, _ = LSE_STREAMED["n300"]
    assert cli.main(["lse", *extra, "--out-dir", str(tmp_path / "n300")]) == 0
    assert [len(args[0]) for args, _ in calls] == [300, 300, 300]


# (argv, bound.csv rows): one step, two steps, a step of 300 rows (longer
# than a 256-row block), 378 rows (no multiple of 256) and a degree-5 basis
# whose early rows are singular or out of the bound's reach
LSE_STREAMED = {
    "k0": (["--k-max", "0"], 10),
    "k1": (["--k-max", "1", "--seed", "4"], 20),
    "n300": (["--nodes", "300", "--k-max", "2", "--edge-prob", "0.05"], 900),
    "n7": (["--nodes", "7", "--k-max", "53", "--seed", "2"], 378),
    "deg5": (["--nodes", "9", "--degree", "5", "--k-max", "30", "--seed", "1"], 279),
}


@pytest.mark.parametrize("name", sorted(LSE_STREAMED))
def test_cli_lse_streamed_bounds_match_the_whole_run(tmp_path, name):
    # bound.csv and summary.json from the whole run_consensus history, one
    # reference bound per (step, node)
    extra, count = LSE_STREAMED[name]
    out = tmp_path / "l"
    assert cli.main(["lse", *extra, "--out-dir", str(out)]) == 0
    args = cli.build_parser().parse_args(["lse", *extra])
    xs, ys = np.loadtxt(out / "dataset.csv", delimiter=",", skiprows=1, unpack=True, ndmin=2)
    basis = polynomial_basis(args.degree)
    M, n = len(basis), len(xs)
    g = generate_digraph(n, args.topology, args.seed, args.edge_prob)
    trace = run_consensus(make_weights(g, "column"), lse_payload_states(xs, ys, basis).x,
                          args.k_max)
    G, z = lse_gram(xs, ys, basis)
    rows = []
    for k, step in enumerate(trace.rs):
        for i, payload in enumerate(step):
            try:
                eb = lse_error_bound_reference(payload[:M * M].reshape(M, M), payload[M * M:],
                                               G, z)
            except np.linalg.LinAlgError:
                rows.append((k, i, np.nan, np.nan, None))
                continue
            rows.append((k, i, np.nan if eb.lhs is None else eb.lhs, eb.bound, eb.holds))
    assert len(rows) == count
    if name == "deg5":
        assert rows[n][4] is None and rows[-1][4] is not None
    write_bound_reference(rows, tmp_path / "ref.csv")
    assert (out / "bound.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    last = np.array([row[2] for row in rows[-n:]])
    assert json.loads((out / "summary.json").read_text()) == {
        "theta_hat": lse_batch(xs, ys, basis).tolist(), "n": n, "k_steps": args.k_max,
        "final_max_error": float(np.nanmax(last, initial=0.0)), "basis_size": M}


def test_cli_lse_memory_is_flat_in_the_step_count(tmp_path, traced_peak):
    # the run streams its bound rows a block at a time; a whole history of
    # 3001 steps had added 12.6 MB over that of 301
    def lse(k_max):
        assert cli.main(["lse", "--k-max", str(k_max), "--out-dir", str(tmp_path / "l")]) == 0

    def peak(k_max):
        return traced_peak(lambda: lse(k_max), warm_up=lambda: lse(5))

    assert peak(3000) - peak(300) < 0.5e6


def test_cli_lse_reads_dataset(tmp_path):
    data = tmp_path / "d.csv"
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2, 2, 12)
    ys = 1.0 + 2.0 * xs + rng.normal(0, 0.01, 12)
    data.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in zip(xs, ys)))
    out = str(tmp_path / "l2")
    rc = cli.main(["lse", "--degree", "1", "--data", str(data), "--seed", "2",
                   "--out-dir", out])
    assert rc == 0
    summary = json.loads(Path(out, "summary.json").read_text())
    assert summary["n"] == 12


def test_cli_lse_with_data_ignores_nodes(tmp_path):
    # the node count follows the file, so --nodes is not checked
    data = tmp_path / "d.csv"
    data.write_text("x,y\n0.5,1.0\n-0.5,2.0\n")
    written = []
    for extra in ([], ["--nodes", "0"], ["--nodes", "-3"]):
        out = tmp_path / f"o{len(written)}"
        rc = cli.main(["lse", "--data", str(data), "--degree", "1", "--k-max", "5",
                       "--out-dir", str(out)] + extra)
        assert rc == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[1] == written[0] and written[2] == written[0]


def test_cli_lse_dataset_without_header_or_with_blank_lines(tmp_path):
    xs = np.random.default_rng(5).uniform(-1, 1, 7).tolist()
    rows = [f"{a!r},{1.0 - 0.5 * a!r}\n" for a in xs]
    texts = {"header": "x,y\n" + "".join(rows),
             "bare": rows[0] + "\n" + "".join(rows[1:4]) + "\n\n" + "".join(rows[4:]),
             "crlf": "x,y\r\n" + "".join(rows).replace("\n", "\r\n"),
             "upper": "X,Y\n" + "".join(rows),
             "padded": "x,y\n" + "".join(f" {a!r} ,\t{1.0 - 0.5 * a!r} \n" for a in xs)}
    written = {}
    for name, text in texts.items():
        data = tmp_path / f"{name}.csv"
        data.write_text(text, newline="")
        out = tmp_path / name
        rc = cli.main(["lse", "--data", str(data), "--degree", "1", "--k-max", "20",
                       "--seed", "3", "--out-dir", str(out)])
        assert rc == 0
        written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(written["bare"]) == ["bound.csv", "dataset.csv", "graph.json", "summary.json"]
    for name, files in written.items():
        assert files == written["header"], name


def test_cli_lse_identity_gram(tmp_path):
    # x = +-1 under a degree-1 basis makes the Gram matrix the identity, so
    # the late M_i^{-1} have nearly tied singular values
    data = tmp_path / "eye.csv"
    xs = np.tile([1.0, -1.0], 4)
    data.write_text("x,y\n" + "".join(f"{a},{0.5 + 2.0 * a}\n" for a in xs))
    out = tmp_path / "le"
    rc = cli.main(["lse", "--data", str(data), "--degree", "1", "--k-max", "30",
                   "--out-dir", str(out)])
    assert rc == 0
    rows = (out / "bound.csv").read_text().splitlines()
    assert rows[0] == "n,node,lhs,bound,holds"
    assert len(rows) == 1 + 31 * 8
    assert {row.rsplit(",", 1)[1] for row in rows[1:]} <= {"1", "na"}


def test_cli_funccalc(tmp_path):
    out = str(tmp_path / "f")
    rc = cli.main(["funccalc", "--nodes", "5", "--function", "max",
                   "--seed", "6", "--out-dir", out])
    assert rc == 0
    summary = json.loads(Path(out, "summary.json").read_text())
    assert summary["certificate_ok"] is True
    assert summary["holder_ok_every_step"] is True


def test_cli_funccalc_relative_rho(tmp_path):
    out = tmp_path / "fr"
    rc = cli.main(["funccalc", "--nodes", "6", "--function", "mean", "--seed", "2",
                   "--rho", "0.01", "--rho-relative", "--out-dir", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    u = np.random.default_rng([2, 4]).random(6)
    assert summary["halted"] is True
    assert summary["rho"] == pytest.approx(0.01 * float(np.linalg.norm(u)), rel=1e-14)


def test_cli_byte_identical_reruns(tmp_path):
    out = str(tmp_path / "det")
    args = ["run", "--nodes", "7", "--dim", "3", "--seed", "9",
            "--stopping", "box", "--rho", "0.001", "--out-dir", out]
    assert cli.main(args) == 0
    blobs = {}
    for name in os.listdir(out):
        blobs[name] = Path(out, name).read_bytes()
    assert cli.main(args) == 0
    for name, blob in blobs.items():
        assert Path(out, name).read_bytes() == blob, name
