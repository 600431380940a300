import json

import numpy as np
import pytest

from qcert.cli import main, make_spectrum


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestGenSigma:
    def test_mm(self, capsys):
        code, out = run_cli(["gen-sigma", "--family", "mm", "--d", "4", "--format", "json"],
                            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lambdas"] == [0.25] * 4

    def test_spiked(self):
        spec = make_spectrum("spiked", 4)
        assert spec.lambdas[0] == pytest.approx(0.75)
        assert np.allclose(spec.lambdas[1:], 0.0625)
        assert spec.dim == 5

    def test_rank_mm(self):
        spec = make_spectrum("rank-mm", 4, rank=2)
        assert list(spec.lambdas) == [0.5, 0.5, 0.0, 0.0]

    def test_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        code, _ = run_cli(["gen-sigma", "--family", "geometric", "--d", "5",
                           "--out", str(path)], capsys)
        assert code == 0
        spec = make_spectrum("file", 0, path=str(path))
        assert spec.dim == 5


class TestCertifyCommand:
    def test_zero_trials_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["certify", "--trials", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["certify", "--d", "0"],
        ["sweep", "--d-list", "0"],
        ["sweep", "--d-list", "4,x"],
        ["certify", "--threads", "0"],
        ["verify", "--threads", "-1"],
        ["sweep", "--trials", "0"],
        ["certify", "--budget", "-5"],
        ["verify", "--samples", "0"],
        ["divergence", "--ensemble", "paninski", "--family", "mm", "--d", "4",
         "--param-draws", "0"],
        ["certify", "--family", "geometric", "--ratio", "nan"],
        ["certify", "--family", "geometric", "--ratio", "inf"],
        ["certify", "--family", "geometric", "--ratio=-inf"],
        ["certify", "--family", "geometric", "--ratio", "-1"],
        ["gen-sigma", "--family", "rank-mm", "--d", "4", "--rank", "-1"],
        ["certify", "--delta", "0"],
        ["certify", "--delta", "nan"],
        ["certify", "--delta", "-0.1"],
        ["certify", "--delta", "1.5"],
        ["certify", "--algorithm", "basic", "--delta", "1"],
        ["certify", "--family", "mm", "--d", "1", "--hidden", "spike", "--trials", "1"],
    ])
    def test_out_of_range_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("qcert: ")

    @pytest.mark.parametrize("rank", [None, "-1", "0", "5"])
    def test_rank_outside_one_to_d(self, rank, capsys):
        argv = ["gen-sigma", "--family", "rank-mm", "--d", "4"]
        with pytest.raises(SystemExit) as err:
            main(argv + (["--rank", rank] if rank else []))
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert message.startswith(f"qcert: rank-mm needs --rank in 1..d, got {rank}")

    def test_zero_budget_is_valid(self, capsys):
        code, out = run_cli(["certify", "--d", "4", "--trials", "1", "--budget", "0",
                             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["rows"][0]["verdict"] == "INCONCLUSIVE"

    def test_basic_null_run_deterministic(self, capsys):
        args = ["certify", "--algorithm", "basic", "--family", "mm", "--d", "4",
                "--eps", "0.4", "--delta", "0.3", "--trials", "4", "--seed", "5",
                "--format", "json"]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        rows1 = [{k: v for k, v in r.items() if k != "wall_ms"}
                 for r in json.loads(out1)["rows"]]
        rows2 = [{k: v for k, v in r.items() if k != "wall_ms"}
                 for r in json.loads(out2)["rows"]]
        assert rows1 == rows2
        assert json.loads(out1)["summary"]["yes_rate"] >= 0.75

    def test_threads_do_not_change_rows(self, capsys):
        base = ["certify", "--algorithm", "basic", "--family", "mm", "--d", "4",
                "--eps", "0.4", "--delta", "0.3", "--trials", "4", "--seed", "5",
                "--format", "json"]
        _, out1 = run_cli(base, capsys)
        _, out2 = run_cli(base + ["--threads", "2"], capsys)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
        assert strip(json.loads(out1)["rows"]) == strip(json.loads(out2)["rows"])

    def test_threads_do_not_change_certify_rows(self, capsys):
        # bucketwise certify at d = 16: its basic tests run 78 rounds in
        # chunks of 32
        base = ["certify", "--family", "mm", "--d", "16", "--hidden", "spike",
                "--trials", "3", "--seed", "2", "--format", "json"]
        _, out1 = run_cli(base + ["--threads", "1"], capsys)
        _, out2 = run_cli(base + ["--threads", "2"], capsys)
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
        assert strip(json.loads(out1)["rows"]) == strip(json.loads(out2)["rows"])

    def test_csv_schema(self, capsys):
        code, out = run_cli(["certify", "--algorithm", "basic", "--family", "mm",
                             "--d", "4", "--eps", "0.4", "--delta", "0.5",
                             "--trials", "2"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# ")  # embedded config
        assert lines[1] == "trial,seed,hidden,verdict,copies,wall_ms"


class TestSweepCommand:
    @pytest.mark.parametrize("argv, flag", [
        (["--d-list", "1"], "--d-list"),
        (["--d-list", "4,1"], "--d-list"),
        (["--target", "nan"], "--target"),
        (["--target", "0"], "--target"),
        (["--target", "1.5"], "--target"),
        (["--eps", "0"], "--eps"),
        (["--eps", "nan"], "--eps"),
        (["--eps", "2.5"], "--eps"),
        (["--d-list", "2", "--eps", "2"], "--eps"),
    ])
    def test_out_of_range_names_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--trials", "2"] + argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"qcert: {flag} ")
        assert captured.out == ""

    def test_single_d_flagged(self, capsys):
        code, out = run_cli(["sweep", "--d-list", "4", "--eps", "0.45", "--trials", "40",
                             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["slope"] is None and "note" in payload


class TestBoundsCommand:
    def test_mm_lower_bound_value(self, capsys):
        code, out = run_cli(["bounds", "--family", "mm", "--d", "16",
                             "--eps", "0.02", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["bounds"]["lower_nonadaptive"] == pytest.approx(
            16**1.5 / 0.02**2, rel=1e-12
        )

    def test_pure_state_degenerate_flag(self, capsys):
        code, out = run_cli(["bounds", "--family", "rank-mm", "--d", "4", "--rank", "1",
                             "--eps", "0.2", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["bounds"]["degenerate"] is True
        assert payload["paninski_available"] is False


class TestVerifyCommand:
    def test_battery_reports_known_defect_and_exits_1(self, capsys):
        # every check except the d^-4 second-moment bound passes; that bound
        # is unattainable (see test_acceptance criterion 1), so the battery
        # honestly reports it as failed and signals via the exit code
        code, out = run_cli(["verify", "--samples", "20000", "--fuzz", "30",
                             "--schedules", "5", "--seed", "3"], capsys)
        assert code == 1
        payload = json.loads(out)
        by_name = {c["check"]: c["ok"] for c in payload["checks"]}
        assert not payload["all_ok"]
        for name, ok in by_name.items():
            if name.startswith("moments-second"):
                assert not ok
            else:
                assert ok, name


class TestInstanceSerialization:
    def test_json_tags(self):
        from qcert.instances import plan_offdiag, tune_paninski

        spec = make_spectrum("mm", 4)
        pan = tune_paninski(spec, 0.2)
        assert json.loads(pan.to_json())["family"] == "paninski"
        off = plan_offdiag(spec, 0.3)
        assert json.loads(off.to_json())["family"] == "offdiag"


class TestDivergenceCommand:
    def test_corner_report(self, capsys, tmp_path):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps([0.8, 0.2]))
        code, out = run_cli(["divergence", "--family", "file", "--input", str(path),
                             "--ensemble", "corner", "--eps", "0.3", "--copies", "3",
                             "--schedules", "2", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["worst"]["tv"] <= 1.0
        assert all(r["chi2"] <= r["ingster_bound"] + 3 * r["ingster_se"] + 1e-12
                   for r in payload["rows"])
