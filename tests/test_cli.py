import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from landscaper import cli, inference
from landscaper.derived import CurvePair
from landscaper.errors import ConvergenceWarning
from landscaper.inference import FitConfig, HYPER_NAMES, Posterior, TargetContext
from landscaper.tsdata import dump_json, load_json, read_observations_csv


def run(args):
    return cli.main([str(a) for a in args])


def read_bytes(path):
    return Path(path).read_bytes()


def simulate_args(out, seed=11, n=30, points=3, dt=0.1):
    return ["simulate", "--model", "cusp", "--alpha", 0, "--beta", 1, "--lam", 0,
            "--r", 1, "--epsilon", 0.5, "--n-series", n, "--points", points,
            "--dt", dt, "--seed", seed, "--out", out]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert run(simulate_args(out)) == 0
    return out


CUSP_SPEC = {"name": "cusp", "alpha": 0, "beta": 1, "lam": 0, "r": 1, "epsilon": 0.5}


def synthetic_posterior(bistable: bool, n_draws=40) -> Posterior:
    """Latent draws whose curves follow a cusp-like (or linear) drift and a
    near-constant diffusion on data over [-2, 2]: the latents are the least
    squares fit of the target curves on the grid at fixed hyperparameters,
    where each latent's curve is `curves_on` of its unit vector. The
    default layout puts the grid on [-2.4, 2.4] with centre 0."""
    config = FitConfig()
    m = config.n_anchors
    grid, center, half_width = config.layout(-2.0, 2.0)
    rng = np.random.default_rng(8)
    base = grid - grid**3 if bistable else -grid
    drift = base + 0.02 * rng.standard_normal((n_draws, grid.size))
    ghat = np.log(0.5 + 0.05 * rng.random((n_draws, grid.size)))
    eta = np.log([2.0, 1.0, 2.0, 2.0, 2.0, 1.0])
    units = np.column_stack([np.eye(2 * m), np.tile(eta, (2 * m, 1))])
    unit_drift, unit_diffusion = TargetContext((), (), (), m, center, half_width).curves_on(
        grid, units)
    theta = np.column_stack([np.linalg.lstsq(unit_drift[:m].T, drift.T, rcond=None)[0].T,
                             np.linalg.lstsq(np.log(unit_diffusion[m:]).T, ghat.T,
                                             rcond=None)[0].T,
                             np.tile(eta, (n_draws, 1))])
    return Posterior(theta.reshape(2, n_draws // 2, -1), 0, (-2.0, 2.0), config)


# The key that marks each layout earlier versions wrote: stored diagnostics,
# a stored grid, anchors and centre, each config key that has been retired,
# the anchor model's draws, and stored curves without the draws.
OLDER_LAYOUT_KEYS = ("diagnostics", "grid", "anchors_at_observations", "target_accept",
                     "padding", "grid_size", "chain_draws", "drift_draws")


def older_layout(post: Posterior, key: str) -> dict:
    """`post` as a document in the older layout that `key` marks, the retired
    config keys at the values they were fixed to."""
    doc = post.to_json()
    retired = {"anchors_at_observations": False, "target_accept": 0.8, "padding": 0.1,
               "grid_size": 200}
    if key in retired:
        return {**doc, "config": {**doc["config"], key: retired[key]}}
    if key == "diagnostics":
        stored = {kind: {name: v if math.isfinite(v) else None for name, v in values.items()}
                  for kind, values in post.diagnostics.items()}
        return {**doc, "diagnostics": stored, "converged": post.converged}
    if key == "chain_draws":
        # The anchor model's latents, of the same shape as the basis's.
        doc["chain_draws"] = doc.pop("basis_draws")
        return doc
    anchors = np.linspace(post.grid[0], post.grid[-1], post.config.n_anchors)
    layout = {**doc, "grid": post.grid.tolist(), "anchors": anchors.tolist(),
              "center": 0.5 * sum(post.data_range)}
    if key == "grid":
        return layout
    del layout["basis_draws"]
    return {**layout, "drift_draws": post.drift_draws.tolist(),
            "diffusion_draws": post.diffusion_draws.tolist()}


class TestSimulate:
    def test_row_count(self, dataset):
        lines = (dataset / "dataset.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 30 * 3  # header + rows

    def test_truth_sidecar(self, dataset):
        truth = load_json(dataset / "dataset_truth.json")
        assert truth["model"] == "cusp"
        assert truth["label"] == 2
        assert truth["seed"] == 11

    def test_seeded_repeat_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(simulate_args(a)) == 0
        assert run(simulate_args(b)) == 0
        assert read_bytes(a / "dataset.csv") == read_bytes(b / "dataset.csv")
        assert read_bytes(a / "dataset_truth.json") == read_bytes(b / "dataset_truth.json")

    def test_unset_cusp_parameters_take_their_defaults(self, tmp_path):
        # alpha 0, beta 1, lam 0 and r 1 are the CuspParams defaults.
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(simulate_args(a)) == 0
        assert run(["simulate", "--model", "cusp", "--epsilon", 0.5, "--n-series", 30,
                    "--points", 3, "--dt", 0.1, "--seed", 11, "--out", b]) == 0
        assert read_bytes(a / "dataset.csv") == read_bytes(b / "dataset.csv")
        assert read_bytes(a / "dataset_truth.json") == read_bytes(b / "dataset_truth.json")

    def test_unknown_model_is_parse_error(self, tmp_path, capsys):
        args = simulate_args(tmp_path / "x")
        args[2] = "wiggle"
        assert run(args) == cli.EXIT_PARSE
        assert "wiggle" in capsys.readouterr().err

    def test_dt_frac_resolves_step(self, tmp_path):
        out = tmp_path / "frac"
        args = simulate_args(out)
        i = args.index("--dt")
        args[i : i + 2] = ["--dt-frac", "0.01"]
        assert run(args) == 0
        truth = load_json(out / "dataset_truth.json")
        assert truth["dt_target"] > 0.01

    @pytest.mark.parametrize("steps", [[], ["--dt", 0.1, "--dt-frac", 0.01]])
    def test_step_flags_other_than_exactly_one_are_a_usage_error(self, tmp_path, steps):
        args = simulate_args(tmp_path / "o")
        i = args.index("--dt")
        args[i : i + 2] = steps
        with pytest.raises(SystemExit) as exit_info:
            run(args)
        assert exit_info.value.code == cli.EXIT_PARSE
        assert not (tmp_path / "o" / "dataset.csv").exists()


class TestFit:
    @pytest.fixture(scope="class")
    def fitted(self, dataset, tmp_path_factory):
        out = tmp_path_factory.mktemp("fit")
        cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
        dump_json({"n_chains": 2, "n_iterations": 200, "max_leapfrog": 8}, cfg)
        code = run(["fit", "--data", dataset / "dataset.csv", "--config", cfg,
                    "--seed", 3, "--allow-nonconverged", "--out", out])
        assert code == 0
        return out

    def test_outputs_present(self, fitted):
        for name in ("posterior.json", "summary.csv", "diagnostics.csv", "manifest.json"):
            assert (fitted / name).exists()

    def test_diagnostics_table_has_hypers(self, fitted):
        text = (fitted / "diagnostics.csv").read_text()
        for name in HYPER_NAMES:
            assert name in text

    def test_saved_draws_give_the_diagnostics_table(self, fitted):
        post = Posterior.from_json(load_json(fitted / "posterior.json"))
        with open(fitted / "diagnostics.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["parameter"] for r in rows] == list(post.diagnostics["rhat"])
        for r in rows:
            assert r["rhat"] == repr(post.diagnostics["rhat"][r["parameter"]])
            assert r["ess"] == repr(post.diagnostics["ess"][r["parameter"]])

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("unit_id,time,value\na,0,1\na,nope,2\n")
        code = run(["fit", "--data", bad, "--out", tmp_path / "o"])
        assert code == cli.EXIT_PARSE
        assert "line 3" in capsys.readouterr().err

    def test_too_few_transitions_precondition(self, tmp_path, capsys):
        small = tmp_path / "small.csv"
        small.write_text("unit_id,time,value\na,0,1.0\na,1,2.0\n")
        code = run(["fit", "--data", small, "--out", tmp_path / "o2"])
        assert code == cli.EXIT_PRECONDITION

    def test_max_dt_reduces_transitions(self, tmp_path, dataset):
        cfg = tmp_path / "cfg.json"
        dump_json({"n_chains": 2, "n_iterations": 100, "max_leapfrog": 4}, cfg)
        out1 = tmp_path / "full"
        out2 = tmp_path / "filtered"
        data = tmp_path / "gappy.csv"
        rows = ["unit_id,time,value"]
        rng = np.random.default_rng(0)
        for u in range(12):
            # middle gap of 10 time units splits each series
            for t in (0.0, 0.5, 1.0, 11.0, 11.5, 12.0):
                rows.append(f"u{u},{t},{rng.normal():.6f}")
        data.write_text("\n".join(rows) + "\n")
        assert run(["fit", "--data", data, "--config", cfg, "--allow-nonconverged",
                    "--out", out1]) == 0
        assert run(["fit", "--data", data, "--config", cfg, "--allow-nonconverged",
                    "--max-dt", 5.0, "--out", out2]) == 0
        m1 = load_json(out1 / "manifest.json")
        m2 = load_json(out2 / "manifest.json")
        # 12 series x 5 transitions unfiltered; the gap removes one per series
        assert m1["details"]["n_transitions"] == 60
        assert m2["details"]["n_transitions"] == 48
        assert m2["config_hash"] != m1["config_hash"]

    def test_nonconverged_exit_code(self, monkeypatch, tmp_path, dataset):
        fake = synthetic_posterior(bistable=True)
        object.__setattr__(fake, "converged", False)
        monkeypatch.setattr(cli, "fit", lambda c, cfg: fake)
        out = tmp_path / "nc"
        code = run(["fit", "--data", dataset / "dataset.csv", "--out", out])
        assert code == cli.EXIT_CONVERGENCE
        # The outputs and the manifest listing them are written all the same.
        outputs = load_json(out / "manifest.json")["outputs"]
        assert set(outputs) == {"posterior.json", "summary.csv", "diagnostics.csv"}
        assert all((out / name).exists() for name in outputs)
        code = run(["fit", "--data", dataset / "dataset.csv",
                    "--allow-nonconverged", "--out", out])
        assert code == 0

    def test_fit_warnings_are_not_silenced(self, tmp_path, dataset):
        cfg = tmp_path / "cfg.json"
        dump_json({"n_chains": 2, "n_iterations": 100, "max_leapfrog": 4}, cfg)
        with pytest.warns(ConvergenceWarning):
            code = run(["fit", "--data", dataset / "dataset.csv", "--config", cfg,
                        "--seed", 3, "--allow-nonconverged", "--out", tmp_path / "w"])
        assert code == 0

    def test_one_chain_fit_says_rhat_needs_two_chains(self, tmp_path, dataset, capsys):
        cfg = tmp_path / "cfg.json"
        dump_json({"n_chains": 1, "n_iterations": 100, "max_leapfrog": 4}, cfg)
        with pytest.warns(ConvergenceWarning, match="Rhat needs at least 2 chains"):
            code = run(["fit", "--data", dataset / "dataset.csv", "--config", cfg,
                        "--out", tmp_path / "one"])
        assert code == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "Rhat needs at least 2 chains" in err and "nan" not in err
        assert not Posterior.from_json(load_json(tmp_path / "one" / "posterior.json")).converged


class TestWideCsvAndClr:
    def make_wide(self, path, cell=None, column="taxa_a", long=False):
        """A wide CSV of three positive variables, or with `long` the long
        file of taxa_a as `value`; `cell`, if given, is `column` on line 6."""
        header = ["unit_id", "time", "value"] if long else ["unit_id", "time", "taxa_a",
                                                             "taxa_b", "taxa_c"]
        rows = [header]
        rng = np.random.default_rng(5)
        for u in range(8):
            for t in range(4):
                a, b, c = rng.uniform(1, 10, 3)
                rows.append(f"u{u},{t},{a:.4f},{b:.4f},{c:.4f}".split(",")[:len(header)])
        if cell is not None:
            rows[5][header.index(column)] = cell
        Path(path).write_text("".join(",".join(row) + "\n" for row in rows))

    def test_clr_requires_column(self, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        self.make_wide(wide)
        code = run(["fit", "--data", wide, "--clr", "--out", tmp_path / "o"])
        assert code == cli.EXIT_PRECONDITION

    def test_clr_column_fit(self, tmp_path):
        wide = tmp_path / "wide.csv"
        self.make_wide(wide)
        cfg = tmp_path / "cfg.json"
        dump_json({"n_chains": 2, "n_iterations": 100, "max_leapfrog": 4}, cfg)
        code = run(["fit", "--data", wide, "--clr", "--column", "taxa_b",
                    "--config", cfg, "--allow-nonconverged", "--out", tmp_path / "o"])
        assert code == 0

    @pytest.mark.parametrize("clr", [False, True])
    @pytest.mark.parametrize("long, column, cell", [
        pytest.param(False, "taxa_a", "nan", id="nan"),
        pytest.param(False, "taxa_a", "inf", id="inf"),
        pytest.param(True, "value", "nan", id="long-nan"),
        pytest.param(False, "time", "inf", id="time-inf"),
        pytest.param(True, "time", "-inf", id="long-time-inf"),
    ])
    def test_non_finite_cell_is_parse_error(self, tmp_path, capsys, long, column, cell, clr):
        # In a wide file taxa_a is fitted without --clr; with it, taxa_b is,
        # and every variable goes into the transform. A long file is fitted
        # by its default column, value.
        data = tmp_path / "data.csv"
        self.make_wide(data, cell, column, long)
        if long:
            args = ["--clr", "--column", "value"] if clr else []
        else:
            args = ["--clr", "--column", "taxa_b"] if clr else ["--column", "taxa_a"]
        assert run(["fit", "--data", data, *args, "--out", tmp_path / "o"]) == cli.EXIT_PARSE
        assert f"{data}: line 6: {column} is {float(cell)}, not finite" in capsys.readouterr().err

    def test_negative_cell_is_parse_error_under_clr(self, tmp_path, capsys):
        # With --clr every variable is an abundance; without it, a negative
        # value of the fitted column is an ordinary value.
        wide = tmp_path / "wide.csv"
        self.make_wide(wide, "-1")
        code = run(["fit", "--data", wide, "--clr", "--column", "taxa_b", "--out", tmp_path / "o"])
        assert code == cli.EXIT_PARSE
        assert f"{wide}: line 6: taxa_a is -1.0, negative" in capsys.readouterr().err
        assert -1.0 in read_observations_csv(wide, "taxa_a", clr=False).all_values()

    def test_variable_named_twice_is_parse_error(self, tmp_path, capsys):
        # Two columns named a: the fit must not pick one of them.
        wide = tmp_path / "wide.csv"
        wide.write_text("unit_id,time,a,a\n" + "".join(
            f"u{u},{t},{1 + t + u / 10},{5 + t}\n" for u in range(8) for t in range(2)))
        cfg = tmp_path / "cfg.json"
        dump_json({"n_chains": 2, "n_iterations": 100, "max_leapfrog": 4}, cfg)
        code = run(["fit", "--data", wide, "--column", "a", "--config", cfg,
                    "--allow-nonconverged", "--out", tmp_path / "o"])
        assert code == cli.EXIT_PARSE
        assert "variable 'a' is named more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("clr", [[], ["--clr"]])
    def test_wide_file_without_data_rows_is_parse_error(self, tmp_path, capsys, clr):
        wide = tmp_path / "wide.csv"
        wide.write_text("unit_id,time,a\n")
        code = run(["fit", "--data", wide, *clr, "--column", "a", "--out", tmp_path / "o"])
        assert code == cli.EXIT_PARSE
        assert f"{wide}: no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("column", [[], ["--column", "value"]])
    @pytest.mark.parametrize("body", [
        "café,0,1\ncafé,1,2\n".encode("latin-1"),
        b"a,0," + b"1" * 200_000 + b"\na,1,2\n",
    ], ids=["latin-1", "oversized-field"])
    def test_unreadable_csv_is_parse_error(self, tmp_path, capsys, body, column):
        data = tmp_path / "data.csv"
        data.write_bytes(b"unit_id,time,value\n" + body)
        assert run(["fit", "--data", data, *column, "--out", tmp_path / "o"]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: line 2: ") and err.count("\n") == 1

    @pytest.mark.parametrize("column", [[], ["--column", "value"]])
    def test_file_without_a_two_point_unit_is_precondition_error(self, tmp_path, capsys,
                                                                  column):
        data = tmp_path / "data.csv"
        data.write_text("unit_id,time,value\na,0.0,1.0\nb,0.0,2.0\n")
        code = run(["fit", "--data", data, *column, "--out", tmp_path / "o"])
        assert code == cli.EXIT_PRECONDITION
        assert f"{data}: no unit has two or more points" in capsys.readouterr().err

    def test_missing_column_is_parse_error(self, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        self.make_wide(wide)
        code = run(["fit", "--data", wide, "--column", "nope", "--out", tmp_path / "o"])
        assert code == cli.EXIT_PARSE


class TestDerive:
    def test_bistable_posterior_full_bundle(self, tmp_path):
        post_path = tmp_path / "posterior.json"
        dump_json(synthetic_posterior(bistable=True).to_json(), post_path)
        out = tmp_path / "bundle"
        assert run(["derive", "--posterior", post_path, "--out", out]) == 0
        for name in ("stationary_density", "potential", "effective_potential",
                     "multistability", "tipping_region", "exit_time_band"):
            assert (out / f"{name}.csv").exists(), name
            assert (out / f"{name}.json").exists(), name
        # A stable-state count reads back as an integer.
        with open(out / "multistability.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["n_stable"] == str(int(r["n_stable"])) for r in rows)
        assert math.fsum(float(r["probability"]) for r in rows) == pytest.approx(1.0)

    def test_unistable_posterior_skips_band_with_notice(self, tmp_path):
        post_path = tmp_path / "posterior.json"
        dump_json(synthetic_posterior(bistable=False).to_json(), post_path)
        out = tmp_path / "bundle"
        assert run(["derive", "--posterior", post_path, "--out", out]) == 0
        assert (out / "exit_time_band_notice.json").exists()
        assert not (out / "exit_time_band.csv").exists()
        assert (out / "stationary_density.csv").exists()

    def test_reloaded_posterior_derives_the_same_bytes(self, tmp_path, monkeypatch):
        post = synthetic_posterior(bistable=True)
        post_path = tmp_path / "posterior.json"
        dump_json(post.to_json(), post_path)
        loaded, in_memory = tmp_path / "loaded", tmp_path / "in_memory"
        assert run(["derive", "--posterior", post_path, "--out", loaded]) == 0
        monkeypatch.setattr(cli, "Posterior", SimpleNamespace(from_json=lambda doc: post))
        assert run(["derive", "--posterior", post_path, "--out", in_memory]) == 0
        outputs = load_json(loaded / "manifest.json")["outputs"]
        assert outputs == load_json(in_memory / "manifest.json")["outputs"]
        assert "exit_time_band.csv" in outputs
        for name in outputs:
            assert read_bytes(loaded / name) == read_bytes(in_memory / name), name

    @pytest.mark.parametrize("key", OLDER_LAYOUT_KEYS)
    def test_posterior_in_an_older_layout_exits_parse(self, tmp_path, capsys, key):
        post_path = tmp_path / "posterior.json"
        dump_json(older_layout(synthetic_posterior(bistable=True), key), post_path)
        out = tmp_path / "o"
        assert run(["derive", "--posterior", post_path, "--out", out]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback
        assert key in err and "re-fitted" in err and str(post_path) in err
        assert not (out / "manifest.json").exists()

    def test_derive_computes_no_diagnostics(self, tmp_path, monkeypatch):
        def refuse(series):
            raise AssertionError("derive computed a diagnostic")

        post_path = tmp_path / "posterior.json"
        dump_json(synthetic_posterior(bistable=True).to_json(), post_path)
        monkeypatch.setattr(inference, "rhat", refuse)
        monkeypatch.setattr(inference, "ess", refuse)
        assert run(["derive", "--posterior", post_path, "--out", tmp_path / "o"]) == 0

    def test_rerun_identical(self, tmp_path):
        post_path = tmp_path / "posterior.json"
        dump_json(synthetic_posterior(bistable=True).to_json(), post_path)
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert run(["derive", "--posterior", post_path, "--out", out1]) == 0
        assert run(["derive", "--posterior", post_path, "--out", out2]) == 0
        for f in sorted(out1.iterdir()):
            if f.name == "manifest.json":
                continue
            assert read_bytes(f) == read_bytes(out2 / f.name), f.name


class TestMalformedJson:
    def test_derive_on_non_json_posterior(self, tmp_path, capsys):
        post_path = tmp_path / "posterior.json"
        post_path.write_text("grid,drift\n0,1\n")
        assert run(["derive", "--posterior", post_path, "--out", tmp_path / "o"]) == cli.EXIT_PARSE
        assert capsys.readouterr().err.count(str(post_path)) == 1

    def test_derive_on_posterior_without_chain_draws(self, tmp_path, capsys):
        # The anchor model stored its draws as chain_draws, in the same shape
        # and with another meaning: such a file must be re-fitted.
        doc = older_layout(synthetic_posterior(bistable=True), "chain_draws")
        post_path = tmp_path / "posterior.json"
        dump_json(doc, post_path)
        assert run(["derive", "--posterior", post_path, "--out", tmp_path / "o"]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert "chain_draws" in err and "basis_draws" in err and "re-fitted" in err

    @pytest.mark.parametrize("column, value", [(-5, -400.0), (-6, 400.0),
                                               (-1, inference.HYPER_BOUND + 1.0)])
    def test_derive_on_log_hyper_outside_the_bound(self, tmp_path, capsys, column, value):
        # A log length scale of -400 (drift) and a log amplitude of +400
        # (drift EQ) overflow the kernel constants; a log length scale
        # (diffusion) just past HYPER_BOUND is outside the sampler's support.
        doc = synthetic_posterior(bistable=True).to_json()
        doc["basis_draws"][1][3][column] = value
        post_path = tmp_path / "posterior.json"
        dump_json(doc, post_path)
        assert run(["derive", "--posterior", post_path, "--out", tmp_path / "o"]) == cli.EXIT_PARSE
        assert "HYPER_BOUND" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["fit", "--data", "data.csv", "--config", "{bad}"],
        ["experiment", "--name", "tpr-grid", "--config", "{bad}"],
        ["replay", "--manifest", "{bad}"],
    ])
    def test_non_json_document_is_parse_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_chains": 2,')
        argv = [str(bad) if a == "{bad}" else a for a in argv]
        assert run(argv + ["--out", tmp_path / "o"]) == cli.EXIT_PARSE
        assert capsys.readouterr().err.count(str(bad)) == 1


class TestExperimentCommand:
    def test_coverage_csv(self, tmp_path):
        cfg = tmp_path / "exp.json"
        dump_json({"model": CUSP_SPEC, "total_time": 20, "replicates": 1, "seed": 4}, cfg)
        out = tmp_path / "cov"
        assert run(["experiment", "--name", "coverage", "--config", cfg, "--out", out]) == 0
        header = (out / "coverage.csv").read_text().splitlines()[0]
        assert header == "budget,agreement_short,agreement_long"

    def test_tpr_grid_matrix(self, tmp_path):
        cfg = tmp_path / "exp.json"
        dump_json({"model": CUSP_SPEC, "series_counts": [12, 15], "timesteps": [0.1, 0.05],
                   "replicates": 2, "seed": 4,
                   "fit": {"n_chains": 2, "n_iterations": 150, "max_leapfrog": 8}}, cfg)
        out = tmp_path / "tpr"
        assert run(["experiment", "--name", "tpr-grid", "--config", cfg, "--out", out]) == 0
        lines = (out / "tpr.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 series-count rows
        assert len(lines[1].split(",")) == 3  # n_series + 2 timestep columns

    @pytest.mark.parametrize("name, doc, jobs", [
        ("coverage", {"model": CUSP_SPEC, "total_time": 20, "replicates": 3, "seed": 6}, 3),
        ("tpr-grid", {"model": CUSP_SPEC, "series_counts": [12, 30], "timesteps": [0.1],
                      "replicates": 3, "seed": 3,
                      "fit": {"n_chains": 2, "n_iterations": 150, "max_leapfrog": 8,
                              "n_anchors": 12}}, 6),
    ])
    def test_outputs_independent_of_cpu_count(self, tmp_path, set_cpus, name, doc, jobs):
        # One replicate process per usable CPU; the manifest records the
        # count under `timings`, and the outputs are the same for any count.
        cfg = tmp_path / "exp.json"
        dump_json(doc, cfg)
        manifests = []
        for cpus in (1, 4):
            set_cpus(cpus)
            out = tmp_path / f"cpus{cpus}"
            assert run(["experiment", "--name", name, "--config", cfg, "--out", out]) == 0
            manifest = load_json(out / "manifest.json")
            assert manifest["timings"]["workers"] == min(cpus, jobs)
            manifests.append(manifest)
        assert manifests[0]["outputs"] == manifests[1]["outputs"]

    def test_replay_identical_outside_timings(self, tmp_path):
        cfg = tmp_path / "exp.json"
        dump_json({"model": CUSP_SPEC, "total_time": 10, "replicates": 2, "seed": 4}, cfg)
        out = tmp_path / "cov"
        assert run(["experiment", "--name", "coverage", "--config", cfg, "--out", out]) == 0
        first = (out / "manifest.json").read_text()
        recorded = tmp_path / "manifest.json"
        recorded.write_text(first)
        assert run(["replay", "--manifest", recorded]) == 0
        untimed = [{k: v for k, v in json.loads(m).items() if k != "timings"}
                   for m in (first, (out / "manifest.json").read_text())]
        assert untimed[0] == untimed[1]

    def test_unknown_name_usage_error(self, tmp_path):
        cfg = tmp_path / "exp.json"
        dump_json({"model": {"name": "cusp"}}, cfg)
        assert run(["experiment", "--name", "nope", "--config", cfg,
                    "--out", tmp_path / "x"]) == cli.EXIT_PARSE


class TestMalformedDocuments:
    """Documents that parse as JSON but are not what the command reads."""

    @pytest.mark.parametrize("manifest", [
        {"command": "fit"},
        {"command": "simulate", "argv": "simulate --out x"},
        {"command": "simulate", "argv": ["simulate", 3]},
        ["simulate", "--out", "x"],
        # a manifest that replays itself
        {"command": "replay", "argv": ["replay", "--manifest", "manifest.json"]},
    ])
    def test_replay_needs_argv_list_of_strings(self, tmp_path, capsys, monkeypatch,
                                               manifest):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "manifest.json"
        dump_json(manifest, path)
        assert run(["replay", "--manifest", path, "--out", tmp_path / "o"]) == cli.EXIT_PARSE
        assert "argv" in capsys.readouterr().err

    @pytest.mark.parametrize("name, doc, names", [
        # not a JSON object
        ("tpr-grid", [1, 2], "list"),
        # a misspelt key, which must not fall back to the default
        ("coverage", {"model": CUSP_SPEC, "total_time": 2, "replicate": 3}, "replicate"),
        ("tpr-grid", {"model": CUSP_SPEC, "series_counts": [12], "replicates": 1,
                      "fit": {"n_chains": 1, "n_iterations": 100}, "seeds": 3}, "seeds"),
        # model specs
        ("coverage", {"model": {**CUSP_SPEC, "betta": 1}, "total_time": 2,
                      "replicates": 1}, "betta"),
        ("coverage", {"model": "cusp", "total_time": 2, "replicates": 1}, "str"),
        # wrong-typed values
        ("coverage", {"model": CUSP_SPEC, "total_time": 2, "replicates": "many"}, "replicates"),
        ("coverage", {"model": {**CUSP_SPEC, "beta": "x"}, "total_time": 2,
                      "replicates": 1}, "beta"),
        ("coverage", {"model": {**CUSP_SPEC, "name": 3}, "total_time": 2,
                      "replicates": 1}, "name"),
        ("tpr-grid", {"model": CUSP_SPEC, "series_counts": ["a"], "replicates": 1},
         "series_counts"),
        ("tpr-grid", {"model": CUSP_SPEC, "series_counts": [12], "replicates": 1,
                      "fit": {"n_chains": "2", "n_iterations": 100}}, "n_chains"),
        # no model spec
        ("coverage", {"total_time": 2, "replicates": 1}, "model"),
        # there is no thread setting: every fit runs in one process
        ("tpr-grid", {"model": CUSP_SPEC, "series_counts": [12], "replicates": 1,
                      "fit": {"n_chains": 2, "n_iterations": 100, "threads": 2}}, "threads"),
        # the experiment seed sets every replicate's fit seed
        ("tpr-grid", {"model": CUSP_SPEC, "series_counts": [12], "replicates": 1,
                      "fit": {"n_chains": 2, "n_iterations": 100, "seed": 5}}, "seed"),
        ("tpr-grid", {"model": CUSP_SPEC, "series_counts": [12], "replicates": 1,
                      "fit": {"n_chains": 2, "n_iterations": 100,
                              "anchors_at_observations": False}}, "anchors_at_observations"),
        # numbers must be finite: json.load reads NaN and Infinity tokens
        ("tpr-grid", {"model": CUSP_SPEC, "series_counts": [12], "timesteps": [math.nan],
                      "replicates": 1}, "timesteps"),
        ("coverage", {"model": CUSP_SPEC, "total_time": math.inf, "replicates": 1},
         "total_time"),
        ("coverage", {"model": {**CUSP_SPEC, "alpha": math.nan}, "total_time": 2,
                      "replicates": 1}, "alpha"),
        # settings that are now module constants
        ("coverage", {"model": CUSP_SPEC, "total_time": 2, "replicates": 1, "n_bins": 50},
         "n_bins"),
        ("tpr-grid", {"model": CUSP_SPEC, "series_counts": [12], "replicates": 1,
                      "fit": {"n_chains": 2, "n_iterations": 100, "padding": 0.1}}, "padding"),
    ])
    def test_experiment_config_keys_are_checked(self, tmp_path, capsys, name, doc, names):
        path = tmp_path / "exp.json"
        # Raw text, as dump_json refuses NaN.
        path.write_text(json.dumps(doc))
        assert run(["experiment", "--name", name, "--config", path,
                    "--out", tmp_path / "o"]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.count(str(path)) == 1 and names in err

    @pytest.mark.parametrize("doc, names", [
        ({"n_iterations": "many"}, "n_iterations"),
        ({"seed": "x"}, "seed"),
        ({"n_chains": 2.5}, "n_chains"),
        ({"n_chains": True}, "n_chains"),
        ({"n_chains": 2, "bogus": 1}, "bogus"),
        ([2, 150], "list"),
        ({"n_chains": 2, "threads": 2}, "threads"),
        # there is one anchor layout, so no switch selects it
        ({"anchors_at_observations": False}, "anchors_at_observations"),
        # the sampler target and the grid are module constants
        ({"target_accept": 1.5}, "target_accept"),
        ({"grid_size": 2}, "grid_size"),
    ])
    def test_fit_config_values_are_typed(self, tmp_path, capsys, dataset, doc, names):
        path = tmp_path / "fit.json"
        dump_json(doc, path)
        assert run(["fit", "--data", dataset / "dataset.csv", "--config", path,
                    "--out", tmp_path / "o"]) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert str(path) in err and names in err

    @pytest.mark.parametrize("doc", [{"max_leapfrog": 0}, {"n_anchors": 1},
                                     {"n_iterations": 99}])
    def test_fit_setting_out_of_range_exits_precondition(self, tmp_path, capsys, dataset,
                                                         doc):
        path = tmp_path / "fit.json"
        dump_json({"n_chains": 2, "n_iterations": 100, **doc}, path)
        assert run(["fit", "--data", dataset / "dataset.csv", "--config", path,
                    "--out", tmp_path / "o"]) == cli.EXIT_PRECONDITION
        assert next(iter(doc)) in capsys.readouterr().err
        assert not (tmp_path / "o" / "posterior.json").exists()

    @pytest.mark.parametrize("step, value", [("--dt", "nan"), ("--dt", "inf"),
                                             ("--dt-frac", "nan"), ("--dt-frac", "inf"),
                                             ("--dt-frac", 0), ("--dt-frac", -1)])
    def test_step_not_finite_and_positive_exits_precondition(self, tmp_path, capsys, step,
                                                             value):
        args = simulate_args(tmp_path / "o")
        i = args.index("--dt")
        args[i : i + 2] = [step, value]
        assert run(args) == cli.EXIT_PRECONDITION
        assert "dt" in capsys.readouterr().err
        assert not (tmp_path / "o" / "dataset.csv").exists()

    @pytest.mark.parametrize("case", ["simulate", "fit", "fit config", "experiment",
                                      "experiment config"])
    def test_negative_seed_exits_precondition(self, tmp_path, capsys, dataset, case):
        out = tmp_path / "o"
        fit_cfg, exp_cfg = tmp_path / "fit.json", tmp_path / "exp.json"
        dump_json({"seed": -1}, fit_cfg)
        coverage = {"model": CUSP_SPEC, "total_time": 2, "replicates": 1}
        dump_json({**coverage, "seed": -1} if case == "experiment config" else coverage,
                  exp_cfg)
        argv = {
            "simulate": simulate_args(out, seed=-3),
            "fit": ["fit", "--data", dataset / "dataset.csv", "--seed", -1, "--out", out],
            "fit config": ["fit", "--data", dataset / "dataset.csv", "--config", fit_cfg,
                           "--out", out],
            "experiment": ["experiment", "--name", "coverage", "--config", exp_cfg,
                           "--seed", -1, "--out", out],
            "experiment config": ["experiment", "--name", "coverage", "--config", exp_cfg,
                                  "--out", out],
        }[case]
        assert run(argv) == cli.EXIT_PRECONDITION
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("total_time", 0.5), ("total_time", 1e19)])
    def test_coverage_range_exits_precondition(self, tmp_path, capsys, key, value):
        path = tmp_path / "exp.json"
        dump_json({"model": CUSP_SPEC, "total_time": 2, "replicates": 1, key: value}, path)
        assert run(["experiment", "--name", "coverage", "--config", path,
                    "--out", tmp_path / "o"]) == cli.EXIT_PRECONDITION
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("counts", [[0], [12, -1]])
    def test_tpr_series_count_below_one_exits_precondition(self, tmp_path, capsys, counts):
        path = tmp_path / "exp.json"
        dump_json({"model": CUSP_SPEC, "series_counts": counts, "replicates": 2,
                   "fit": {"n_chains": 1, "n_iterations": 100}}, path)
        assert run(["experiment", "--name", "tpr-grid", "--config", path,
                    "--out", tmp_path / "o"]) == cli.EXIT_PRECONDITION
        assert "series_counts" in capsys.readouterr().err
        assert not (tmp_path / "o" / "tpr.json").exists()

    @pytest.mark.parametrize("key", ["series_counts", "timesteps"])
    def test_tpr_empty_grid_exits_precondition(self, tmp_path, capsys, key):
        path = tmp_path / "exp.json"
        dump_json({"model": CUSP_SPEC, key: [], "replicates": 2}, path)
        assert run(["experiment", "--name", "tpr-grid", "--config", path,
                    "--out", tmp_path / "o"]) == cli.EXIT_PRECONDITION
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o" / "tpr.csv").exists()

    @pytest.mark.parametrize("dt, message", [("1e20", "exceed any array"),
                                             ("1e15", "Unable to allocate")])
    def test_step_count_beyond_memory_exits_precondition(self, tmp_path, capsys, dt, message):
        # 1e20 gives more internal steps than an array can index and is
        # refused before anything is allocated; 1e15 gives 1e17 steps per
        # series, whose allocation fails at once. Either is one error line.
        args = simulate_args(tmp_path / "o", n=1, points=2)
        args[args.index("--dt") + 1] = dt
        assert run(args) == cli.EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def test_memory_error_without_a_message_exits_precondition(self, tmp_path, capsys,
                                                               monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "generate_short_series", no_memory)
        assert run(simulate_args(tmp_path / "o")) == cli.EXIT_PRECONDITION
        assert capsys.readouterr().err == "error: out of memory\n"

    @pytest.mark.parametrize("max_dt", ["nan", "inf"])
    def test_max_dt_not_finite_exits_precondition_before_fitting(self, tmp_path, capsys,
                                                                 dataset, max_dt):
        out = tmp_path / "o"
        assert run(["fit", "--data", dataset / "dataset.csv", "--max-dt", max_dt,
                    "--out", out]) == cli.EXIT_PRECONDITION
        assert "max_dt" in capsys.readouterr().err
        assert not (out / "posterior.json").exists()

    @pytest.mark.parametrize("model, param, value", [
        ("cusp", "--alpha", "nan"), ("cusp", "--beta", "inf"),
        # ignored by the model, but recorded in the manifest
        ("bimodal-unistable", "--alpha", "nan"),
    ])
    def test_cusp_parameter_not_finite_exits_precondition(self, tmp_path, capsys, model,
                                                          param, value):
        args = simulate_args(tmp_path / "o")
        args[args.index("--model") + 1] = model
        args[args.index(param) + 1] = value
        assert run(args) == cli.EXIT_PRECONDITION
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "dataset.csv").exists()

    def test_dt_frac_below_one_internal_step_exits_precondition(self, tmp_path, capsys):
        args = simulate_args(tmp_path / "o")
        i = args.index("--dt")
        args[i : i + 2] = ["--dt-frac", "1e-9"]
        assert run(args) == cli.EXIT_PRECONDITION
        assert "internal step 0.01" in capsys.readouterr().err
        assert not (tmp_path / "o" / "dataset.csv").exists()

    def test_unresolvable_stationary_density_exits_precondition(self, tmp_path, capsys):
        # At epsilon 1e-12 the running integral of 2f/g reaches about 3e14, and
        # a start table from that quadrature would follow its grid, not the model.
        args = simulate_args(tmp_path / "o")
        args[args.index("--epsilon") + 1] = 1e-12
        assert run(args) == cli.EXIT_PRECONDITION
        assert "2f/g" in capsys.readouterr().err
        assert not (tmp_path / "o" / "dataset.csv").exists()

    def test_replay_of_argv_ending_in_out(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        dump_json({"command": "simulate", "argv": ["simulate", "--out"]}, path)
        assert run(["replay", "--manifest", path, "--out", tmp_path / "o"]) == cli.EXIT_PARSE
        assert "ends in --out" in capsys.readouterr().err

    def test_bimodal_unistable_takes_cusp_parameters(self, tmp_path):
        # `simulate` passes all five cusp parameters whatever the model.
        path = tmp_path / "exp.json"
        dump_json({"model": {**CUSP_SPEC, "name": "bimodal-unistable"},
                   "total_time": 2, "replicates": 1}, path)
        assert run(["experiment", "--name", "coverage", "--config", path,
                    "--out", tmp_path / "o"]) == 0


class TestManifest:
    @pytest.mark.parametrize("command, timings", [
        ("simulate", set()), ("fit", {"fit_seconds"}), ("derive", set()),
        ("experiment", {"workers"}),
    ])
    def test_every_writing_command_gets_the_same_manifest(self, tmp_path, dataset, command,
                                                           timings):
        # `main` writes every manifest: the nine keys, and the outputs are the
        # files the command wrote.
        fit_cfg, exp_cfg = tmp_path / "fit.json", tmp_path / "exp.json"
        dump_json({"n_chains": 2, "n_iterations": 100, "max_leapfrog": 4}, fit_cfg)
        dump_json({"model": CUSP_SPEC, "total_time": 2, "replicates": 1}, exp_cfg)
        post_path = tmp_path / "posterior.json"
        dump_json(synthetic_posterior(bistable=True).to_json(), post_path)
        out = tmp_path / "o"
        argv = {
            "simulate": simulate_args(out),
            "fit": ["fit", "--data", dataset / "dataset.csv", "--config", fit_cfg,
                    "--allow-nonconverged", "--out", out],
            "derive": ["derive", "--posterior", post_path, "--out", out],
            "experiment": ["experiment", "--name", "coverage", "--config", exp_cfg,
                           "--out", out],
        }[command]
        assert run(argv) == 0
        manifest = load_json(out / "manifest.json")
        assert sorted(manifest) == ["argv", "command", "config_hash", "details", "inputs",
                                    "outputs", "seed", "timings", "tool_version"]
        assert manifest["command"] == command and manifest["argv"] == [str(a) for a in argv]
        assert set(manifest["timings"]) == {"seconds"} | timings
        assert set(manifest["outputs"]) == {p.name for p in out.iterdir()} - {"manifest.json"}


class TestReplayAndThreads:
    def test_replay_of_a_removed_flag_is_a_usage_error(self, tmp_path):
        # The internal step is fixed, so a manifest recording --internal-dt
        # does not replay.
        path = tmp_path / "manifest.json"
        argv = simulate_args(tmp_path / "o") + ["--internal-dt", "0.01"]
        dump_json({"command": "simulate", "argv": [str(a) for a in argv]}, path)
        with pytest.raises(SystemExit) as exit_info:
            run(["replay", "--manifest", path])
        assert exit_info.value.code == cli.EXIT_PARSE
        assert not (tmp_path / "o" / "dataset.csv").exists()
        # The exit-time band is always pointwise, so --band-mode is gone too.
        post_path = tmp_path / "posterior.json"
        dump_json(synthetic_posterior(bistable=True).to_json(), post_path)
        argv = ["derive", "--posterior", str(post_path), "--band-mode", "pointwise",
                "--out", str(tmp_path / "d")]
        dump_json({"command": "derive", "argv": argv}, path)
        with pytest.raises(SystemExit) as exit_info:
            run(["replay", "--manifest", path])
        assert exit_info.value.code == cli.EXIT_PARSE
        assert not (tmp_path / "d").exists()
        # Every fit runs its chains in one process, so --threads is gone as well.
        argv = ["fit", "--data", str(tmp_path / "o" / "dataset.csv"), "--threads", "2",
                "--out", str(tmp_path / "f")]
        dump_json({"command": "fit", "argv": argv}, path)
        with pytest.raises(SystemExit) as exit_info:
            run(["replay", "--manifest", path])
        assert exit_info.value.code == cli.EXIT_PARSE
        assert not (tmp_path / "f").exists()

    def test_replay_byte_identical(self, tmp_path):
        out1 = tmp_path / "r1"
        assert run(simulate_args(out1, seed=77)) == 0
        out2 = tmp_path / "r2"
        assert run(["replay", "--manifest", out1 / "manifest.json", "--out", out2]) == 0
        assert read_bytes(out1 / "dataset.csv") == read_bytes(out2 / "dataset.csv")
        m1 = load_json(out1 / "manifest.json")
        m2 = load_json(out2 / "manifest.json")
        assert m1["outputs"] == m2["outputs"]

    def test_fit_outputs_independent_of_threads(self, tmp_path, dataset):
        # The same fit in fresh processes with one and with two BLAS threads
        # writes the same bytes; the manifest times the fit and nothing else.
        cfg = tmp_path / "cfg.json"
        dump_json({"n_chains": 2, "n_iterations": 150, "max_leapfrog": 8}, cfg)
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            done = subprocess.run(
                [sys.executable, "-m", "landscaper.cli", "fit", "--data",
                 str(dataset / "dataset.csv"), "--config", str(cfg), "--seed", "2",
                 "--allow-nonconverged", "--out", str(out)],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
                capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            timings = load_json(out / "manifest.json")["timings"]
            assert set(timings) == {"seconds", "fit_seconds"}
            assert 0 < timings["fit_seconds"] < timings["seconds"]
            outs.append(out)
        for name in ("posterior.json", "summary.csv", "diagnostics.csv"):
            assert read_bytes(outs[0] / name) == read_bytes(outs[1] / name), name
