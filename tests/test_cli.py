"""CLI surface: subcommands, exit codes, config files, manifests, verify."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from gcpd import solver
from gcpd.cli import _build_parser, _solver_config_from_args, main
from gcpd.data import SyntheticSpec, read_factors, read_tns, read_trace_csv
from gcpd.estimators import ESTIMATOR_KINDS
from gcpd.losses import KINDS as LOSS_KINDS
from gcpd.losses import LossSpec
from gcpd.solver import SolverConfig
from gcpd.verify import check_gradient_fd


# Fields that saved configs used to hold, with the values every CLI run saved.
REMOVED_FIELDS = {"sarah_p": 5, "stepsize_rule": "constant", "l_bar": None, "m2": 1.0,
                  "gamma_bar": 0.0, "alpha_weak": 0.0, "lyapunov_v0": 0.0,
                  "lyapunov_tau": 1.0}


def run_cli(*argv):
    return main(list(argv))


def edited_manifest(gamma_files, tmp_path, edit, *flags):
    """The manifest of a short saved run on `gamma_files`, with any extra
    `flags`, changed by `edit`."""
    out = tmp_path / "m"
    assert run_cli("decompose", "--input", str(gamma_files) + ".tns", "--loss",
                   "gamma", "--rank", "2", "--iters", "5", "--model-out", str(out),
                   *flags) == 0
    manifest = Path(str(out) + ".manifest.json")
    saved = json.loads(manifest.read_text())
    edit(saved)
    manifest.write_text(json.dumps(saved))
    return manifest


@pytest.fixture(scope="module")
def gamma_files(tmp_path_factory):
    """One synthesized gamma instance shared by the decompose tests."""
    root = tmp_path_factory.mktemp("gamma")
    prefix = root / "g"
    code = run_cli("synthesize", "--shape", "8,7,6", "--rank", "2",
                   "--dist", "gamma", "--seed", "7", "--out", str(prefix))
    assert code == 0
    return prefix


class TestSynthesize:
    def test_writes_tensor_and_factors(self, tmp_path, capsys):
        prefix = tmp_path / "syn"
        code = run_cli("synthesize", "--shape", "5,4,3", "--rank", "2",
                       "--dist", "poisson", "--seed", "1", "--out", str(prefix))
        assert code == 0
        tensor = read_tns(str(prefix) + ".tns")
        assert tensor.shape.dims == (5, 4, 3)
        model = read_factors(prefix)
        assert model.rank == 2
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["synthetic"]["seed"] == 1

    def test_gamma_tensor_has_all_entries(self, tmp_path):
        # Gamma draws are almost surely nonzero, so the file lists every cell.
        prefix = tmp_path / "g"
        run_cli("synthesize", "--shape", "20,15,20", "--rank", "3",
                "--dist", "gamma", "--seed", "7", "--out", str(prefix))
        assert read_tns(str(prefix) + ".tns").nnz == 20 * 15 * 20

    def test_flagless_spec_takes_dataclass_defaults(self, tmp_path, capsys):
        run_cli("synthesize", "--shape", "3,2", "--rank", "1", "--dist", "gaussian",
                "--out", str(tmp_path / "d"))
        written = json.loads(capsys.readouterr().out)["synthetic"]
        spec = SyntheticSpec(shape=(3, 2), rank=1, distribution="gaussian")
        for f in dataclasses.fields(SyntheticSpec):
            assert written[f.name] == json.loads(json.dumps(getattr(spec, f.name))), f.name

    @pytest.mark.parametrize("line", ["eta=5", "estimator=bogus"])
    def test_config_key_of_another_command_is_usage_error(self, tmp_path, capsys, line):
        conf = tmp_path / "syn.conf"
        conf.write_text(line + "\n")
        code = run_cli("synthesize", "--shape", "3,2", "--rank", "1", "--dist",
                       "gaussian", "--out", str(tmp_path / "s"), "--config", str(conf))
        assert code == 1
        assert f"unknown config key {line.split('=')[0]!r}" in capsys.readouterr().err
        assert not (tmp_path / "s.tns").exists()

    def test_missing_dist_is_usage_error(self, tmp_path):
        code = run_cli("synthesize", "--shape", "5,4,3", "--rank", "2",
                       "--out", str(tmp_path / "x"))
        assert code == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        for p in (p1, p2):
            run_cli("synthesize", "--shape", "5,4,3", "--rank", "2",
                    "--dist", "bernoulli-odds", "--seed", "3", "--out", str(p))
        tns1 = Path(str(p1) + ".tns").read_bytes()
        tns2 = Path(str(p2) + ".tns").read_bytes()
        assert tns1.replace(b"/a.tns", b"/x.tns") == tns2.replace(b"/b.tns", b"/x.tns") \
            or tns1.split(b"\n")[2:] == tns2.split(b"\n")[2:]


class TestDecompose:
    def test_flagless_config_takes_dataclass_defaults(self):
        args = _build_parser().parse_args(["decompose", "--loss", "gamma", "--rank", "2"])
        config = _solver_config_from_args(args)
        defaults = SolverConfig(rank=2, loss=LossSpec("gamma"))
        for f in dataclasses.fields(SolverConfig):
            assert getattr(config, f.name) == getattr(defaults, f.name), f.name

    def test_manifest_config_is_the_resolved_library_default(self, tmp_path, capsys):
        # Binary counts lie in the data domain of every loss.
        path = tmp_path / "binary.tns"
        path.write_text("# shape: 3 2 2\n1 1 1 1\n2 2 1 1\n3 1 2 1\n")
        for kind in LOSS_KINDS:
            assert run_cli("decompose", "--input", str(path), "--loss", kind,
                           "--rank", "2", "--iters", "0") == 0
            out = capsys.readouterr().out
            written = json.loads(out[:out.rindex("iterations:")])["config"]
            library = SolverConfig(rank=2, loss=LossSpec(kind), max_iters=0)
            resolved = library.resolved(read_tns(path).shape).to_dict()
            assert written == json.loads(json.dumps(resolved)), kind

    def test_reduces_objective(self, gamma_files, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code = run_cli("decompose", "--input", str(gamma_files) + ".tns",
                       "--loss", "gamma", "--rank", "2", "--estimator", "saga",
                       "--iters", "400", "--seed", "5",
                       "--truth", str(gamma_files),
                       "--trace", str(trace_path))
        assert code == 0
        header, rows, manifest = read_trace_csv(trace_path)
        first, last = rows[0], rows[-1]
        col = header.index("nre")
        assert float(last[col]) < float(first[col])
        assert manifest["config"]["estimator"] == "saga"

    def test_zero_iterations_single_record(self, gamma_files, tmp_path):
        trace_path = tmp_path / "t0.csv"
        code = run_cli("decompose", "--input", str(gamma_files) + ".tns",
                       "--loss", "gamma", "--rank", "2", "--iters", "0",
                       "--trace", str(trace_path))
        assert code == 0
        _, rows, _ = read_trace_csv(trace_path)
        assert len(rows) == 1

    def test_full_batch_gaussian_monotone_trace(self, tmp_path):
        prefix = tmp_path / "gs"
        run_cli("synthesize", "--shape", "6,5,4", "--rank", "2",
                "--dist", "gaussian", "--sigma", "0.05", "--seed", "2",
                "--out", str(prefix))
        trace_path = tmp_path / "mono.csv"
        code = run_cli("decompose", "--input", str(prefix) + ".tns",
                       "--loss", "gaussian", "--rank", "2", "--estimator", "full",
                       "--c1", "0", "--c2", "0", "--eta", "0.5",
                       "--iters", "200", "--eval-every", "1",
                       "--trace", str(trace_path))
        assert code == 0
        header, rows, _ = read_trace_csv(trace_path)
        col = header.index("nre")
        nres = [float(r[col]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(nres, nres[1:]))

    @pytest.mark.parametrize("estimator", ESTIMATOR_KINDS)
    def test_manifest_replay_bit_for_bit(self, gamma_files, tmp_path, estimator):
        out1 = tmp_path / "r1"
        trace1 = tmp_path / "t1.json"
        code = run_cli("decompose", "--input", str(gamma_files) + ".tns",
                       "--loss", "gamma", "--rank", "2", "--iters", "150",
                       "--seed", "9", "--no-timing", "--estimator", estimator,
                       "--trace", str(trace1), "--trace-format", "json",
                       "--model-out", str(out1))
        assert code == 0
        manifest_path = Path(str(out1) + ".manifest.json")
        assert manifest_path.exists()
        trace2 = tmp_path / "t2.json"
        out2 = tmp_path / "r2"
        code = run_cli("decompose", "--manifest", str(manifest_path),
                       "--trace", str(trace2), "--model-out", str(out2))
        assert code == 0
        payload1 = json.loads(trace1.read_text())
        payload2 = json.loads(trace2.read_text())
        assert json.loads(manifest_path.read_text())["config"]["estimator"] == estimator
        assert payload1["records"] == payload2["records"]
        m1 = read_factors(out1)
        m2 = read_factors(out2)
        for a, b in zip(m1.factors, m2.factors):
            assert np.array_equal(a, b)

    def test_missing_input_is_usage_error(self):
        assert run_cli("decompose", "--loss", "gamma", "--rank", "2") == 1

    def test_bad_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tns"
        bad.write_text("not a tensor\n")
        code = run_cli("decompose", "--input", str(bad), "--loss", "gamma",
                       "--rank", "2")
        assert code == 2

    def test_out_of_domain_data_aborts_ingestion(self, tmp_path):
        # Fractional values cannot be Poisson counts; abort, never clamp.
        bad = tmp_path / "frac.tns"
        bad.write_text("# shape: 2 2 2\n1 1 1 2.5\n")
        code = run_cli("decompose", "--input", str(bad),
                       "--loss", "poisson-identity", "--rank", "1")
        assert code == 2

    def test_init_max_and_eval_samples_flags(self, gamma_files, tmp_path):
        trace_path = tmp_path / "flags.csv"
        code = run_cli("decompose", "--input", str(gamma_files) + ".tns",
                       "--loss", "gamma", "--rank", "2", "--iters", "40",
                       "--init-max", "1.0", "--eval-samples", "100",
                       "--max-step", "0.05", "--trace", str(trace_path))
        assert code == 0
        _, _, manifest = read_trace_csv(trace_path)
        assert manifest["config"]["init_max"] == 1.0
        assert manifest["config"]["eval_samples"] == 100
        assert manifest["config"]["max_step"] == 0.05

    @pytest.mark.parametrize("flag,value", [
        ("--eval-every", "0"), ("--eval-every", "-3"), ("--eval-samples", "0"),
        ("--init-max", "0"), ("--init-max", "-1"), ("--init-max", "inf"), ("--seed", "-1"),
        ("--eta", "inf")])
    def test_out_of_range_setting_is_configuration_error(self, gamma_files, tmp_path,
                                                         capsys, flag, value):
        trace_path = tmp_path / "t.csv"
        code = run_cli("decompose", "--input", str(gamma_files) + ".tns",
                       "--loss", "gamma", "--rank", "2", "--iters", "20",
                       f"{flag}={value}", "--trace", str(trace_path))
        assert code == 1
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not trace_path.exists()

    @pytest.mark.parametrize("weight", ["0", "0.5"])
    def test_reg_weight_without_regularizer_is_usage_error(self, gamma_files, tmp_path,
                                                           capsys, weight):
        trace_path = tmp_path / "t.csv"
        code = run_cli("decompose", "--input", str(gamma_files) + ".tns",
                       "--loss", "gamma", "--rank", "2", "--iters", "20",
                       "--reg-weight", weight, "--trace", str(trace_path))
        assert code == 1
        assert "--reg-weight needs --regularizer" in capsys.readouterr().err
        assert not trace_path.exists()

    @pytest.mark.parametrize("estimator", ["saga", "sgd"])
    def test_diagnostics_keep_the_lyapunov_column(self, gamma_files, tmp_path, estimator):
        columns = {}
        for name, extra in (("plain", []), ("diagnostics", ["--diagnostics"])):
            trace_path = tmp_path / f"{name}.csv"
            code = run_cli("decompose", "--input", str(gamma_files) + ".tns",
                           "--loss", "gamma", "--rank", "2", "--iters", "50",
                           "--estimator", estimator, "--no-timing", "--lyapunov",
                           "--trace", str(trace_path), *extra)
            assert code == 0
            header, rows, _ = read_trace_csv(trace_path)
            columns[name] = [(r[header.index("lyapunov")], r[header.index("gamma_k")])
                             for r in rows]
        assert all(lyap for lyap, _ in columns["plain"][1:])
        assert all(gamma for _, gamma in columns["diagnostics"])
        assert [lyap for lyap, _ in columns["diagnostics"]] == \
            [lyap for lyap, _ in columns["plain"]]

    def test_negative_lyapunov_forward_coefficient_fails_before_the_run(
            self, gamma_files, tmp_path, capsys, monkeypatch):
        built = []
        real = solver.EstimatorState
        monkeypatch.setattr(solver, "EstimatorState",
                            lambda *a, **k: built.append(a) or real(*a, **k))
        trace_path = tmp_path / "t.csv"
        code = run_cli("decompose", "--input", str(gamma_files) + ".tns",
                       "--loss", "gamma", "--rank", "2", "--lyapunov", "--c1", "1",
                       "--c2", "0", "--iters", "100", "--trace", str(trace_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "Lyapunov forward coefficient" in err
        assert not trace_path.exists()
        assert built == []

    def test_nonpositive_shape_flag_is_data_error(self, gamma_files, capsys):
        code = run_cli("decompose", "--input", str(gamma_files) + ".tns",
                       "--shape", "8,-7,6", "--loss", "gamma", "--rank", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "declared shape (8, -7, 6) has a mode size below 1" in err

    def test_truth_with_zeroed_column_keeps_running(self, tmp_path):
        prefix = tmp_path / "gs"
        run_cli("synthesize", "--shape", "8,7,6", "--rank", "2",
                "--dist", "gaussian", "--out", str(prefix))
        rows = {}
        for name, extra in (("plain", []), ("truth", ["--truth", str(prefix)])):
            trace_path = tmp_path / f"{name}.csv"
            code = run_cli("decompose", "--input", str(prefix) + ".tns",
                           "--loss", "gaussian", "--rank", "2", "--regularizer", "l1",
                           "--reg-weight", "50", "--iters", "200", "--no-timing",
                           "--trace", str(trace_path), *extra)
            assert code == 0
            header, rows[name], _ = read_trace_csv(trace_path)
        nre = header.index("nre")
        assert [r[:nre + 1] for r in rows["truth"]] == [r[:nre + 1] for r in rows["plain"]]
        assert rows["truth"][-1][header.index("mse_mean")] == ""

    def test_divergence_is_numerical_failure(self, tmp_path):
        prefix = tmp_path / "gs"
        run_cli("synthesize", "--shape", "6,5,4", "--rank", "2",
                "--dist", "gaussian", "--seed", "2", "--out", str(prefix))
        code = run_cli("decompose", "--input", str(prefix) + ".tns",
                       "--loss", "gaussian", "--regularizer", "zero",
                       "--rank", "2", "--eta", "1e9", "--iters", "100",
                       "--eval-every", "5")
        assert code == 3

    def test_config_file_supplies_defaults_flags_win(self, gamma_files, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("loss=gamma\nrank=2\niters=30\nseed=4\n")
        trace_path = tmp_path / "c.csv"
        code = run_cli("decompose", "--input", str(gamma_files) + ".tns",
                       "--config", str(conf), "--iters", "10",
                       "--trace", str(trace_path))
        assert code == 0
        _, rows, manifest = read_trace_csv(trace_path)
        assert manifest["config"]["max_iters"] == 10  # flag beat config file
        assert manifest["config"]["seed"] == 4        # config file supplied


    @pytest.mark.parametrize("edit", [
        lambda m: m.update(config={"rank": 2}),
        lambda m: m["config"].update(bogus=1),
        lambda m: m["config"].pop("tol"),
        lambda m: m["config"]["loss"].update(bogus=1),
        lambda m: m.pop("input"),
        lambda m: m["input"].pop("path"),
        lambda m: m.pop("outputs"),
        lambda m: m["config"].update(rank="2"),
    ])
    def test_malformed_manifest_is_data_error(self, gamma_files, tmp_path, capsys, edit):
        manifest = edited_manifest(gamma_files, tmp_path, edit)
        capsys.readouterr()
        trace_path = tmp_path / "replay.csv"
        code = run_cli("decompose", "--manifest", str(manifest), "--trace", str(trace_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not trace_path.exists()

    @pytest.mark.parametrize("edit,field", [
        (lambda m: m["input"].update(path=5), "input.path"),
        (lambda m: m["input"].update(shape="abc"), "input.shape"),
        (lambda m: m["input"].update(shape=[8, "7", 6]), "input.shape"),
        (lambda m: m["input"].update(shape=[8, -7, 6]),
         "declared shape (8, -7, 6) has a mode size below 1"),
        (lambda m: m.update(truth=5), "truth"),
    ], ids=["path", "shape-text", "shape-item", "shape-size", "truth"])
    def test_malformed_manifest_field_is_named(self, gamma_files, tmp_path, capsys,
                                               edit, field):
        manifest = edited_manifest(gamma_files, tmp_path, edit)
        capsys.readouterr()
        assert run_cli("decompose", "--manifest", str(manifest)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and field in err

    @pytest.mark.parametrize("field", REMOVED_FIELDS)
    def test_replayed_removed_field_is_data_error(self, gamma_files, tmp_path, capsys, field):
        manifest = edited_manifest(gamma_files, tmp_path,
                                   lambda m: m["config"].update({field: REMOVED_FIELDS[field]}))
        capsys.readouterr()
        assert run_cli("decompose", "--manifest", str(manifest)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and repr(field) in err

    def test_manifest_states_each_fact_once(self, gamma_files, tmp_path):
        saved = json.loads(edited_manifest(gamma_files, tmp_path, lambda m: None,
                                           "--seed", "3").read_text())
        assert sorted(saved) == ["command", "config", "config_hash", "input",
                                 "outputs", "truth"]
        assert saved["config"]["seed"] == 3
        assert not saved["config"].keys() & REMOVED_FIELDS.keys()

    @pytest.mark.parametrize("command,extra,conf", [
        ("decompose", ["--estimator", "sarah"], None),
        ("decompose", ["--p", "5"], None),
        ("decompose", [], "p=5\n"),
        ("compare", ["--methods", "plain-sarah", "--threshold", "0"], None),
    ], ids=["estimator", "p-flag", "p-config-key", "method"])
    def test_sarah_settings_are_usage_errors(self, gamma_files, tmp_path, capsys,
                                             command, extra, conf):
        if conf is not None:
            path = tmp_path / "run.conf"
            path.write_text(conf)
            extra = ["--config", str(path)]
        code = run_cli(command, "--input", str(gamma_files) + ".tns", "--loss", "gamma",
                       "--rank", "2", "--iters", "5", *extra)
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe"])
    def test_manifest_that_is_not_json_is_data_error(self, tmp_path, capsys, content):
        manifest = tmp_path / "run.manifest.json"
        manifest.write_bytes(content)
        assert run_cli("decompose", "--manifest", str(manifest)) == 2
        assert capsys.readouterr().err.startswith("data error:")

    @pytest.mark.parametrize("line", ["sigma=9", "dist=poisson", "methods=warp-x"])
    def test_config_key_of_another_command_is_usage_error(self, gamma_files, tmp_path,
                                                          capsys, line):
        conf = tmp_path / "dec.conf"
        conf.write_text(f"loss=gamma\nrank=2\niters=5\n{line}\n")
        trace_path = tmp_path / "t.csv"
        code = run_cli("decompose", "--input", str(gamma_files) + ".tns",
                       "--config", str(conf), "--trace", str(trace_path))
        assert code == 1
        assert f"unknown config key {line.split('=')[0]!r}" in capsys.readouterr().err
        assert not trace_path.exists()


class TestUnreadableInputs:
    """An input that cannot be read as text is a data error (exit 2) naming
    the file, not a traceback."""

    @staticmethod
    def _data_error(capsys, *argv):
        capsys.readouterr()
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("data error:")
        return err

    def test_input_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.tns"
        bad.write_bytes(b"# shape: 2 2 2\n1 1 1 1.5\xff\n")
        err = self._data_error(capsys, "decompose", "--input", str(bad),
                               "--loss", "gamma", "--rank", "2")
        assert str(bad) in err

    def test_input_that_is_a_directory(self, tmp_path, capsys):
        err = self._data_error(capsys, "decompose", "--input", str(tmp_path),
                               "--loss", "gamma", "--rank", "2")
        assert str(tmp_path) in err

    def test_config_that_is_not_utf8(self, gamma_files, tmp_path, capsys):
        conf = tmp_path / "dec.conf"
        conf.write_bytes(b"rank=2\n# caf\xe9\n")
        err = self._data_error(capsys, "decompose", "--config", str(conf),
                               "--input", str(gamma_files) + ".tns", "--loss", "gamma")
        assert str(conf) in err

    @pytest.mark.parametrize("content", [b"0.5,\xff\n", b"0.5,x\n"])
    def test_truth_that_is_not_a_factor_csv(self, gamma_files, tmp_path, capsys, content):
        truth = tmp_path / "t"
        for n in range(3):
            text = Path(f"{gamma_files}.factor{n}.csv").read_bytes()
            Path(f"{truth}.factor{n}.csv").write_bytes(content if n == 1 else text)
        err = self._data_error(capsys, "decompose", "--input", str(gamma_files) + ".tns",
                               "--loss", "gamma", "--rank", "2", "--iters", "5",
                               "--truth", str(truth))
        assert f"{truth}.factor1.csv" in err


class TestCompare:
    def test_summary_structure(self, gamma_files, tmp_path):
        out = tmp_path / "summary.csv"
        code = run_cli("compare", "--input", str(gamma_files) + ".tns",
                       "--truth", str(gamma_files),
                       "--methods", "inertial-saga,plain-sgd",
                       "--seeds", "2", "--loss", "gamma", "--rank", "2",
                       "--iters", "120", "--threshold", "-1.0",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("method,seeds,median_iters_to_threshold")
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["inertial-saga", "plain-sgd"]

    def test_unreachable_threshold_reports_budget(self, gamma_files, tmp_path):
        out = tmp_path / "budget.csv"
        code = run_cli("compare", "--input", str(gamma_files) + ".tns",
                       "--methods", "plain-sgd", "--seeds", "1",
                       "--loss", "gamma", "--rank", "2", "--iters", "30",
                       "--threshold", "-999", "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[1].split(",")[2] == "budget"

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seed_count_below_one_is_usage_error(self, gamma_files, capsys, seeds):
        code = run_cli("compare", "--input", str(gamma_files) + ".tns",
                       "--methods", "plain-sgd", "--seeds", seeds, "--loss", "gamma",
                       "--rank", "2", "--iters", "5", "--threshold", "0")
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: --seeds must be >= 1")

    def test_every_method_runs(self, gamma_files, tmp_path):
        out = tmp_path / "all.csv"
        methods = [f"{head}-{kind}" for head in ("inertial", "plain")
                   for kind in ESTIMATOR_KINDS]
        code = run_cli("compare", "--input", str(gamma_files) + ".tns",
                       "--methods", ",".join(methods), "--seeds", "1", "--loss", "gamma",
                       "--rank", "2", "--iters", "10", "--threshold", "-1.0",
                       "--out", str(out))
        assert code == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == methods

    def test_bad_method_is_usage_error(self, gamma_files):
        code = run_cli("compare", "--input", str(gamma_files) + ".tns",
                       "--methods", "warp-sgd", "--loss", "gamma",
                       "--rank", "2", "--threshold", "0")
        assert code == 1


class TestVerify:
    def test_fresh_build_passes(self, capsys):
        assert run_cli("verify", "--quick") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_injected_sign_flip_fails_gradient_check(self):
        from gcpd.losses import loss_deriv

        def flipped(spec, x, m):
            d = loss_deriv(spec, x, m)
            return -d if spec.kind == "poisson-identity" else d

        result = check_gradient_fd(kinds=("poisson-identity",), deriv_fn=flipped)
        assert not result.passed

    def test_report_lists_tolerances(self, capsys):
        run_cli("verify", "--quick")
        out = capsys.readouterr().out
        assert "tolerance" in out
        for name in ("gradient-finite-difference", "prox-oracle",
                     "estimator-unbiasedness", "khatri-rao-materialization",
                     "mse-matching"):
            assert name in out
