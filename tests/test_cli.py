"""CLI subcommands, recipes, output files, manifests and exit codes."""

import argparse
import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import augoverlap
from augoverlap import auggraph, cli, data, geomsim, metrics, synth
from augoverlap.cli import _float_grid, _int_grid, main
from augoverlap.data import LabelSet, ViewSet, save_embeddings, save_labels, save_views

README = Path(__file__).resolve().parents[1] / "README.md"
TINY_TRAIN = ["--n-train", "60", "--n-test", "30", "--epochs", "2", "--batch-size", "32", "--hidden-size", "8", "--out-dim", "4"]


def _read_csv(path):
    with path.open() as fh:
        return list(csv.reader(fh))


def _read_json(path):
    return json.loads(path.read_text())


class TestGridParsing:
    def test_int_grid(self):
        assert _int_grid("1,2,3") == [1, 2, 3]
        with pytest.raises(Exception, match="integers"):
            _int_grid("1,x")
        with pytest.raises(Exception, match="empty"):
            _int_grid(",")

    def test_float_grid(self):
        assert _float_grid("0,0.5") == [0.0, 0.5]
        with pytest.raises(Exception, match="floats"):
            _float_grid("a")


class TestBoundsCommand:
    def test_csv_and_manifest(self, tmp_path):
        rc = main(["bounds", "--m-grid", "2,4,8", "--l-unsup", "1.0", "--out", str(tmp_path)])
        assert rc == 0
        rows = _read_csv(tmp_path / "bounds.csv")
        assert rows[0] == ["M", "ours_upper", "ours_lower", "arora", "nozawa", "ash", "bao"]
        assert len(rows) == 4
        manifest = _read_json(tmp_path / "manifest.json")
        assert manifest["command"] == "bounds"
        assert manifest["config"]["m_grid"] == [2, 4, 8]


class TestGraphCommand:
    def test_outputs(self, tmp_path):
        views = geomsim.augment(synth.ci_pairs(20, 2, 3, seed=0).left, 0.3, 2, seed=0)
        save_views(views, tmp_path / "v.views")
        save_labels(synth.ci_pairs(20, 2, 3, seed=0).left_labels, tmp_path / "y.lab")
        rc = main(
            [
                "graph",
                "--views",
                str(tmp_path / "v.views"),
                "--labels",
                str(tmp_path / "y.lab"),
                "--threshold",
                "0.5",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        report = _read_json(tmp_path / "out" / "graph_stats.json")
        assert report["n"] == 20 and "components" in report
        edges = _read_csv(tmp_path / "out" / "edges.csv")
        assert edges[0] == ["i", "j", "min_view_distance"]
        assert len(edges) - 1 == report["edges"]

    def test_cosine_from_saved_normalized_views(self, tmp_path):
        pairs = synth.ci_pairs(20, 2, 3, seed=0)
        save_views(data.normalize(geomsim.augment(pairs.left, 0.3, 2, seed=0)), tmp_path / "v.views")
        save_labels(pairs.left_labels, tmp_path / "y.lab")
        argv = ["graph", "--views", str(tmp_path / "v.views"), "--labels", str(tmp_path / "y.lab")]
        rc = main([*argv, "--threshold", "0.9", "--metric", "cosine", "--out", str(tmp_path / "out")])
        assert rc == 0
        views = data.normalize(data.load_views(tmp_path / "v.views"))
        g = auggraph.build_graph(views, 0.9, "cosine")
        expected = [[str(i), str(j), str(float(g.scores[i, j]))] for i, j in sorted(g.edges)]
        assert 0 < len(expected) < 190
        edges = _read_csv(tmp_path / "out" / "edges.csv")
        assert edges[0] == ["i", "j", "max_view_similarity"]
        assert edges[1:] == expected

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        rc = main(["graph", "--views", "nope.views", "--labels", "nope.lab", "--threshold", "0.5", "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestMetricsCommand:
    def test_outputs(self, tmp_path, rng):
        from augoverlap.data import ViewSet

        # clustered views so the initial confusion stays below 1 and ARC is defined
        centers = np.repeat(np.arange(4.0)[:, None] * 10.0, 3, axis=0) + np.zeros((12, 3))
        final = ViewSet(centers + 0.1 * rng.standard_normal((12, 3)), n=4, c=3)
        init = ViewSet(centers + 2.0 * rng.standard_normal((12, 3)), n=4, c=3)
        save_views(final, tmp_path / "f.views")
        save_views(init, tmp_path / "i.views")
        rc = main(
            [
                "metrics",
                "--views-final",
                str(tmp_path / "f.views"),
                "--views-init",
                str(tmp_path / "i.views"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        report = _read_json(tmp_path / "out" / "metrics.json")
        assert {"acr_final", "acr_init", "arc", "gacr_variants", "garc_variants"} <= set(report)
        assert "max,min,k=1" in report["gacr_variants"]

    def test_one_distance_matrix_per_view_set(self, tmp_path, monkeypatch):
        _write_inputs(tmp_path)
        calls = []

        def counting(*args):
            calls.append(args[0].shape)
            return data.sq_distances(*args)

        monkeypatch.setattr(metrics, "sq_distances", counting)
        argv = ["--views-final", f"{tmp_path}/f.views", "--views-init", f"{tmp_path}/i.views", "--a1", "mean"]
        assert main(["metrics", *argv, "--out", str(tmp_path / "out")]) == 0
        assert calls == [(12, 3), (12, 3)]


class TestSimulateCommand:
    def test_outputs(self, tmp_path):
        rc = main(
            ["simulate", "--d", "2", "--n", "30", "--noise-r", "0,0.5", "--trials", "3", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = _read_csv(tmp_path / "simulate.csv")
        assert rows[0] == ["r", "connected_fraction", "mean_components", "D_max"]
        # r = 0 leaves every point isolated
        assert float(rows[1][1]) == 0.0 and float(rows[1][2]) == 30.0

    def test_disconnected_trials_give_no_diameter(self, tmp_path):
        """At a radius above 0, a trial whose graph is disconnected counts towards
        mean_components but not connected_fraction, and D_max is inf when no trial
        is connected."""
        argv = ["--n", "30", "--noise-r", "0.05,1", "--trials", "3", "--seed", "1", "--out", str(tmp_path)]
        assert main(["simulate", *argv]) == 0
        rows = _read_csv(tmp_path / "simulate.csv")
        assert rows[1][1] == "0.0" and float(rows[1][2]) > 1.0 and rows[1][3] == "inf"
        assert rows[2][1:3] == ["1.0", "1.0"] and 1.0 <= float(rows[2][3]) < 30.0


class TestTrainCommand:
    def test_outputs_and_dump(self, tmp_path):
        rc = main(
            [
                "train",
                "--n-train",
                "60",
                "--n-test",
                "30",
                "--epochs",
                "2",
                "--batch-size",
                "32",
                "--hidden-size",
                "8",
                "--out-dim",
                "4",
                "--noise-r",
                "0.3",
                "--dump-emb",
                "enc",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = _read_json(tmp_path / "train.json")
        assert 0.0 <= report["final_accuracy"] <= 1.0
        assert len(report["loss_trace"]) == 2
        emb = data.load_embeddings(tmp_path / "enc_train.emb")
        lab = data.load_labels(tmp_path / "enc_train.lab")
        assert emb.n == 60 and lab.n == 60
        np.testing.assert_allclose(np.linalg.norm(emb.values, axis=1), 1.0, atol=1e-6)


    def test_batch_size_one_is_runtime_error(self, tmp_path, capsys):
        argv = [*TINY_TRAIN, "--batch-size", "1", "--out", str(tmp_path)]
        assert main(["train", *argv]) == 1
        assert "error: batch_size must be >= 2 for in-batch negatives, got 1" in capsys.readouterr().err
        assert not (tmp_path / "train.json").exists()


class TestCiRatioCommand:
    def test_outputs(self, tmp_path):
        pairs = synth.ci_pairs(120, 3, 8, seed=0)
        save_embeddings(pairs.left, tmp_path / "l.emb")
        save_embeddings(pairs.right, tmp_path / "r.emb")
        save_labels(pairs.left_labels, tmp_path / "y.lab")
        rc = main(
            [
                "ci-ratio",
                "--left",
                str(tmp_path / "l.emb"),
                "--right",
                str(tmp_path / "r.emb"),
                "--labels",
                str(tmp_path / "y.lab"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        report = _read_json(tmp_path / "out" / "ci_ratio.json")
        assert 0.8 < report["ci_ratio"] < 1.25


class TestRecipes:
    def test_fig4(self, tmp_path):
        rc = main(["repro", "fig4", "--m-grid", "2,64", "--out", str(tmp_path)])
        assert rc == 0
        rows = _read_csv(tmp_path / "fig4.csv")
        assert len(rows) == 3

    def test_prop53(self, tmp_path):
        rc = main(["repro", "prop53", "--n", "2000", "--k", "2", "--out", str(tmp_path)])
        assert rc == 0
        report = _read_json(tmp_path / "prop53.json")
        assert abs(report["accuracy"] - 0.5) < 0.1

    def test_lemma42(self, tmp_path):
        rc = main(
            ["repro", "lemma42", "--n", "200", "--k", "4", "--dim", "8", "--m-grid", "1,4", "--seeds", "3", "--out", str(tmp_path)]
        )
        assert rc == 0
        rows = _read_csv(tmp_path / "lemma42.csv")
        assert rows[0] == ["M", "mc_error", "bound"]
        for row in rows[1:]:
            assert float(row[1]) <= float(row[2])

    def test_fig7(self, tmp_path):
        rc = main(["repro", "fig7", "--n", "60", "--r-grid", "0.5", "--views-per-anchor", "4", "--out", str(tmp_path)])
        assert rc == 0
        rows = _read_csv(tmp_path / "fig7.csv")
        assert rows[0] == ["r", "components", "D_max", "intra_edge_fraction"]

    def test_fig6_tiny(self, tmp_path):
        rc = main(
            [
                "repro",
                "fig6",
                "--r-grid",
                "0.5",
                "--n-train",
                "60",
                "--n-test",
                "30",
                "--epochs",
                "2",
                "--batch-size",
                "32",
                "--hidden-size",
                "8",
                "--out-dim",
                "4",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        rows = _read_csv(tmp_path / "fig6.csv")
        assert rows[0] == ["r", "accuracy"]


def _leaf_parsers(parser):
    """Every runnable command path of the parser, e.g. ``"repro fig4"``, with its parser."""
    leaves = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                below = _leaf_parsers(sub)
                if not below:
                    leaves[name] = sub
                for path, leaf in below.items():
                    leaves[f"{name} {path}"] = leaf
    return leaves


def _write_inputs(d):
    pairs = synth.ci_pairs(20, 2, 3, seed=0)
    save_views(geomsim.augment(pairs.left, 0.3, 2, seed=0), d / "v.views")
    save_labels(pairs.left_labels, d / "y.lab")
    rng = np.random.default_rng(0)
    centers = np.repeat(np.arange(4.0)[:, None] * 10.0, 3, axis=0) + np.zeros((12, 3))
    save_views(ViewSet(centers + 0.1 * rng.standard_normal((12, 3)), n=4, c=3), d / "f.views")
    save_views(ViewSet(centers + 2.0 * rng.standard_normal((12, 3)), n=4, c=3), d / "i.views")
    pairs = synth.ci_pairs(120, 3, 8, seed=0)
    save_embeddings(pairs.left, d / "l.emb")
    save_embeddings(pairs.right, d / "r.emb")
    save_labels(pairs.left_labels, d / "p.lab")


# one tiny run per command; "{in}" is the directory written by _write_inputs
REGENERATE = {
    "bounds": ["--m-grid", "2,4,8", "--var", "0.1"],
    "graph": ["--views", "{in}/v.views", "--labels", "{in}/y.lab", "--threshold", "0.5"],
    "metrics": ["--views-final", "{in}/f.views", "--views-init", "{in}/i.views", "--a1", "mean", "--k", "2"],
    "simulate": ["--n", "30", "--noise-r", "0,0.5", "--trials", "3", "--seed", "4"],
    "train": [*TINY_TRAIN, "--noise-r", "0.3", "--dump-emb", "enc", "--seed", "2"],
    "ci-ratio": ["--left", "{in}/l.emb", "--right", "{in}/r.emb", "--labels", "{in}/p.lab"],
    "repro fig4": ["--m-grid", "2,64", "--k", "5"],
    "repro fig6": ["--r-grid", "0.5,1.0", *TINY_TRAIN, "--seed", "3"],
    "repro fig7": ["--n", "60", "--r-grid", "0.5", "--views-per-anchor", "4"],
    "repro prop53": ["--n", "500", "--k", "3"],
    "repro lemma42": ["--n", "200", "--k", "4", "--dim", "8", "--m-grid", "1,4", "--seeds", "3"],
}


def _argv_from_manifest(manifest):
    argv = manifest["command"].split()
    for key, value in manifest["config"].items():
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(map(str, value))
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


class TestManifest:
    def test_every_command_is_covered(self):
        assert sorted(_leaf_parsers(cli.build_parser())) == sorted(REGENERATE)

    @pytest.mark.parametrize("command", sorted(REGENERATE))
    def test_manifest_regenerates_the_run(self, command, tmp_path, capsys):
        _write_inputs(tmp_path)
        args = [a.replace("{in}", str(tmp_path)) for a in REGENERATE[command]]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([*command.split(), *args, "--out", str(first)]) == 0
        manifest = _read_json(first / "manifest.json")
        assert manifest["command"] == command
        rebuilt = [*_argv_from_manifest(manifest), "--out", str(second)]
        # the manifest alone resolves every option to the value of the first run
        parser = cli.build_parser()
        resolved = vars(parser.parse_args([*command.split(), *args, "--out", str(second)]))
        assert vars(parser.parse_args(rebuilt)) == resolved
        assert main(rebuilt) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


EDGE_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e300"]
NUMERIC_TYPES = (int, float, _int_grid, _float_grid)
# the names a library error gives an option whose parameter is named otherwise;
# simulate's radius is its graph's euclidean threshold
FIELD_NAMES = {
    "m_grid": ["M", "m_negatives"],
    "k": ["K"],
    "l_unsup": ["l_contr"],
    "var": ["cond_variance"],
    "noise_r": ["threshold"],
    "r_grid": ["noise_r", "r"],
    "n_train": ["n"],
    "n_test": ["n"],
    "cap_area": ["area"],
    "views_per_anchor": ["count"],
    "dim": ["m"],
}


def _no_constant(name):
    raise ValueError(f"JSON constant {name}")


@pytest.mark.parametrize(
    "command",
    [c for c, p in _leaf_parsers(cli.build_parser()).items() if any(a.type in NUMERIC_TYPES for a in p._actions)],
)
def test_numeric_edge_values(command, tmp_path, capsys):
    """Each numeric option of each command, set in turn to nan, inf, -inf, 0, -1
    and 1e300 over a tiny run: the exit code is 0, 1 or 2 with no traceback (the
    test settings turn a RuntimeWarning into one), an exit 1 names the option,
    stdout and manifest.json are strict JSON, and no CSV of a successful run
    holds a NaN."""
    _write_inputs(tmp_path)
    base = [a.replace("{in}", str(tmp_path)) for a in REGENERATE[command]]
    options = [a for a in _leaf_parsers(cli.build_parser())[command]._actions if a.type in NUMERIC_TYPES]
    faults = []
    for option in options:
        names = "|".join([option.dest, *FIELD_NAMES.get(option.dest, [])])
        for value in EDGE_VALUES:
            case = f"{command} {option.option_strings[0]}={value}"
            out = tmp_path / f"{option.dest}{EDGE_VALUES.index(value)}"
            try:
                rc = main([*command.split(), *base, f"{option.option_strings[0]}={value}", "--out", str(out)])
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a traceback
                faults.append(f"{case}: {type(exc).__name__}: {exc}")
                capsys.readouterr()
                continue
            stdout, stderr = capsys.readouterr()
            if rc not in (0, 1, 2):
                faults.append(f"{case}: exit {rc}")
            if rc == 1 and not re.search(rf"\b({names})\b", stderr):
                faults.append(f"{case}: stderr does not name {names}: {stderr!r}")
            try:
                for text in [stdout, *(p.read_text() for p in out.glob("manifest.json"))]:
                    if text:
                        json.loads(text, parse_constant=_no_constant)
            except ValueError as exc:
                faults.append(f"{case}: {exc}")
            if rc == 0:
                for path in out.glob("*.csv"):
                    if any(cell.lower() == "nan" for row in _read_csv(path) for cell in row):
                        faults.append(f"{case}: NaN in {path.name}")
    assert not faults, "\n".join(faults)


class TestReadme:
    def test_cli_examples_parse(self):
        block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("augoverlap ")]
        parser = cli.build_parser()
        documented = {cli._command(parser.parse_args(shlex.split(line, comments=True)[1:])) for line in lines}
        assert documented == set(_leaf_parsers(parser))


def test_module_entry_point_runs_without_warnings(tmp_path):
    src = Path(augoverlap.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "augoverlap.cli", "bounds", "--m-grid", "2", "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_train_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The trainer's products, and so every file of a training run, have the
    same bytes under one and two BLAS threads."""
    src = Path(augoverlap.__file__).resolve().parents[1]
    argv = ["train", "--n-train", "600", "--n-test", "200", "--epochs", "3", "--m-negatives", "16", "--dump-emb", "emb"]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "augoverlap.cli", *argv, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "emb_train.emb" in names and "emb_test.emb" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_metrics_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    """The confusion core's tile products on wide views, and so metrics.json, have
    the same bytes under one and two BLAS threads."""
    src = Path(augoverlap.__file__).resolve().parents[1]
    n, c, width = 200, 10, 256
    assert len(metrics._anchor_tiles(n, c)) > 2  # several diagonal and off-diagonal tiles
    # 3-D views lifted to the width, so the ratios lie strictly between 0 and 1
    rng = np.random.default_rng(0)
    anchors, lift = np.repeat(rng.standard_normal((n, 3)), c, axis=0), rng.standard_normal((3, width))
    for tag, noise in (("f", 0.05), ("i", 0.3)):
        views = (anchors + noise * rng.standard_normal(anchors.shape)) @ lift
        save_views(ViewSet(views, n=n, c=c), tmp_path / f"{tag}.views")
    argv = ["metrics", "--views-final", str(tmp_path / "f.views"), "--views-init", str(tmp_path / "i.views"), "--k", "3"]
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "augoverlap.cli", *argv, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "metrics.json").read_bytes())
    assert reports[0] == reports[1]
    assert 0.0 < _read_json(tmp_path / "threads1" / "metrics.json")["acr_final"] < 1.0


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--bogus"])
        assert exc.value.code == 2

    # --seed exists only on commands that draw random numbers
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--seed", "1"],
            ["graph", "--views", "v.views", "--labels", "y.lab", "--threshold", "0.5", "--seed", "1"],
            ["metrics", "--views-final", "f.views", "--views-init", "i.views", "--seed", "1"],
            ["ci-ratio", "--left", "l.emb", "--right", "r.emb", "--labels", "y.lab", "--seed", "1"],
            ["repro", "fig4", "--seed", "1"],
        ],
    )
    def test_unread_seed_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", *TINY_TRAIN, "--learning-rate", "nan"], "learning_rate must be >= 0 and finite, got nan"),
            (["train", *TINY_TRAIN, "--noise-r", "inf"], "noise_r must be >= 0 and finite, got inf"),
            (["simulate", "--d", "0", "--n", "10", "--noise-r", "0.5", "--trials", "1"], "d must be >= 1, got 0"),
            (["simulate", "--n", "10", "--noise-r", "nan", "--trials", "1"], "euclidean threshold must be > 0 and finite, got nan"),
            (["bounds", "--var", "nan", "--l-unsup", "nan"], "l_contr must not be NaN"),
            (["bounds", "--var", "nan"], "cond_variance must be >= 0 and finite, got nan"),
            (["simulate", "--n", "10", "--noise-r", "0.5", "--trials", "0"], "trials must be >= 1, got 0"),
            (["simulate", "--n", "10", "--noise-r", "0.5", "--trials", "-1"], "trials must be >= 1, got -1"),
            (["simulate", "--n", "10", "--noise-r", "0,-1", "--trials", "1"], "noise_r must be >= 0 and finite, got -1.0"),
            (["repro", "lemma42", "--n", "40", "--dim", "4", "--seeds", "0"], "seeds must be >= 1, got 0"),
            (["bounds", "--l-unsup", "inf"], "l_unsup must be finite, got inf"),
            (["repro", "fig7", "--seed", "-1"], "seed must be >= 0 and finite, got -1"),
        ],
    )
    def test_non_finite_option_is_runtime_error(self, argv, message, tmp_path, capsys):
        """A NaN or inf option, d = 0, a negative radius or seed, or no trials,
        exits 1 with the field's name, no traceback and no output file."""
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # negative threshold is a runtime ValueError, not a usage error
        views = geomsim.augment(synth.ci_pairs(10, 2, 3, seed=0).left, 0.3, 2, seed=0)
        save_views(views, tmp_path / "v.views")
        save_labels(LabelSet(np.zeros(10, dtype=int), k=1), tmp_path / "y.lab")
        rc = main(
            [
                "graph",
                "--views",
                str(tmp_path / "v.views"),
                "--labels",
                str(tmp_path / "y.lab"),
                "--threshold",
                "-1.0",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err
