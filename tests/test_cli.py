import concurrent.futures
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from qcert import cli
from qcert.cli import main, make_spectrum
from qcert.haar_oracle import ingster_bound
from qcert.instances import corner_ensemble, tune_paninski
from qcert.linalg import DensityMatrix, ValidationError, spectral_fidelity_mm, spectral_quasinorm
from qcert.measurement import Basis
from qcert.rng import RngHandle
from qcert.spectrum import remove_mass_lower_nonadaptive

import reference
from conftest import count_checked_bases


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    """A second ``main`` call constructs no parser, and a usage error in
    between leaves the shared one as it was."""
    built = []
    add_subparsers = cli.argparse.ArgumentParser.add_subparsers

    def counting(parser, **kwargs):  # once per build, on the top-level parser
        built.append(parser.prog)
        return add_subparsers(parser, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli.argparse.ArgumentParser, "add_subparsers", counting)
    try:
        argv = ["bounds", "--family", "mm", "--d", "8", "--eps", "0.1"]
        first = run_cli(argv, capsys)
        with pytest.raises(SystemExit):
            main(["bounds", "--eps", "zero"])
        capsys.readouterr()
        assert run_cli(argv, capsys) == first
        assert built == ["qcert"]
    finally:
        cli.build_parser.cache_clear()


class TestGenSigma:
    def test_mm(self, capsys):
        code, out = run_cli(["gen-sigma", "--family", "mm", "--d", "4"], capsys)
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

    @pytest.mark.parametrize("content", ['{"foo": 1}', "not json", '"abc"', None,
                                         "[0.5, NaN, 0.5]"])
    def test_malformed_input_is_a_usage_error(self, content, tmp_path, capsys):
        """A missing "lambdas" key, text that is not JSON, entries that are not
        numbers, a missing file (None) and a NaN entry exit 2 with a message
        naming --input, not with a traceback or a NaN spectrum."""
        path = tmp_path / "spec.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as err:
            main(["gen-sigma", "--family", "file", "--input", str(path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"qcert: --input {path}: ")
        assert captured.out == ""


    @pytest.mark.parametrize("d", [1024, 1100])
    def test_geometric_overflow_names_the_ratio(self, d, capsys):
        """ratio**k overflows at d = 1100 and its sum at d = 1024: a usage
        error naming --ratio and d, with no RuntimeWarning on the way."""
        with pytest.raises(SystemExit) as err:
            main(["gen-sigma", "--family", "geometric", "--ratio", "2", "--d", str(d)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"qcert: --ratio 2.0 at d = {d}: sum of ratio**k, k < d, overflows\n"
        assert captured.out == ""

    @pytest.mark.parametrize("ratio, d", [(2.0, 1023), (0.5, 1100), (1e300, 2), (0.0, 3)])
    def test_geometric_finite_powers_unchanged(self, ratio, d):
        lam = ratio ** np.arange(d)
        assert np.array_equal(make_spectrum("geometric", d, ratio=ratio).lambdas, lam / lam.sum())


class TestCertifyCommand:
    def test_zero_trials_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["certify", "--trials", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--trials", "0"], "--trials must be >= 1, got 0"),
        (["certify", "--threads", "-1"], "--threads must be >= 1, got -1"),
        (["certify", "--budget", "-5"], "--budget must be >= 0, got -5"),
        (["sweep", "--trials", "0"], "--trials must be >= 1, got 0"),
        (["divergence", "--copies", "0"], "--copies must be >= 1, got 0"),
        (["divergence", "--schedules", "-1"], "--schedules must be >= 1, got -1"),
        (["divergence", "--ensemble", "paninski", "--param-draws", "0"],
         "--param-draws must be >= 1, got 0"),
        (["verify", "--samples", "0"], "--samples must be >= 1, got 0"),
        (["verify", "--fuzz", "-2"], "--fuzz must be >= 1, got -2"),
        (["verify", "--schedules", "0"], "--schedules must be >= 1, got 0"),
    ])
    def test_count_flags_share_one_message(self, argv, message, capsys):
        """Every count flag below its least value is the same usage error,
        naming the flag, its bound and the value given."""
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == f"qcert: {message}\n" and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["certify", "--d", "0"],
        ["sweep", "--d-list", "0"],
        ["sweep", "--d-list", "4,x"],
        ["certify", "--threads", "0"],
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
        ["certify", "--family", "spiked", "--hidden", "offdiag", "--eps", "nan"],
        ["certify", "--family", "spiked", "--hidden", "corner", "--eps", "nan"],
        ["certify", "--hidden", "spike", "--eps", "-0.5"],
        ["divergence", "--family", "spiked", "--d", "4", "--copies", "0"],
        ["divergence", "--family", "mm", "--d", "4", "--ensemble", "paninski", "--copies", "-3",
         "--schedules", "1", "--param-draws", "3"],
        ["divergence", "--family", "spiked", "--d", "4", "--schedules", "0"],
        ["certify", "--seed", "-1"],
        ["sweep", "--seed", "-1"],
        ["divergence", "--seed", "-1"],
        ["verify", "--seed", "-1"],
    ])
    def test_out_of_range_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("qcert: ")

    @pytest.mark.parametrize("argv", [
        ["gen-sigma", "--seed", "9"],
        ["gen-sigma", "--format", "csv"],
        ["bounds", "--seed", "9"],
        ["bounds", "--format", "json"],
        ["verify", "--format", "json"],
        ["verify", "--threads", "2"],
        ["sweep", "--threads", "2"],
        ["divergence", "--threads", "2"],
    ])
    def test_flags_a_command_never_reads_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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

    def test_paninski_tuned_once_per_run(self, capsys, monkeypatch):
        calls = []
        tune = cli.tune_paninski
        monkeypatch.setattr(cli, "tune_paninski", lambda *a: calls.append(a) or tune(*a))
        code, _ = run_cli(["certify", "--algorithm", "basic", "--d", "8", "--hidden", "paninski",
                           "--trials", "3"], capsys)
        assert code == 0 and len(calls) == 1

    def test_threads_do_not_change_paninski_rows(self, capsys, monkeypatch):
        # the instance tuned in the parent reaches every worker; two CPUs make
        # --threads 2 start a real pool on any host
        sizes = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def counted_pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted_pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        base = ["certify", "--family", "rank-mm", "--rank", "6", "--d", "8", "--hidden", "paninski",
                "--algorithm", "basic", "--trials", "3", "--seed", "4", "--format", "json"]
        _, out1 = run_cli(base + ["--threads", "1"], capsys)
        _, out2 = run_cli(base + ["--threads", "2"], capsys)
        assert sizes == [2]
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
        assert strip(json.loads(out1)["rows"]) == strip(json.loads(out2)["rows"])

    def test_negative_seed_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["certify", "--seed", "-1"])
        assert err.value.code == 2
        assert capsys.readouterr().err == "qcert: --seed must be >= 0, got -1\n"

    def test_pool_capped_at_trials_and_cpus(self, capsys, monkeypatch):
        """The pool never asks for more processes than trials or CPUs, and a
        cap of one runs the trials inline."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        base = ["certify", "--algorithm", "basic", "--d", "4", "--eps", "0.4", "--delta", "0.5"]
        for cpus, threads, trials in ((8, 100_000, 3), (8, 2, 5), (8, 100_000, 1),
                                      (None, 4, 4), (3, 100_000, 5)):
            monkeypatch.setattr(cli.os, "cpu_count", lambda cpus=cpus: cpus)
            code, _ = run_cli(base + ["--threads", str(threads), "--trials", str(trials)], capsys)
            assert code == 0
        assert sizes == [3, 2, 3]

    def test_tail_with_a_small_top_entry_names_it(self, capsys, monkeypatch):
        """The tail alternative takes eps^2/4 from the largest entry. Where that
        entry is smaller, the usage error names both before any state is built."""
        spec = make_spectrum("geometric", 128, ratio=0.99)
        built = []
        from_diagonal = DensityMatrix.from_diagonal
        monkeypatch.setattr(DensityMatrix, "from_diagonal",
                            lambda lam: built.append(lam) or from_diagonal(lam))
        want = f"largest entry {spec.lambdas[0]:.6g} >= eps^2/4 = {0.3**2 / 4:.6g}"
        with pytest.raises(ValidationError, match=re.escape(want)):
            cli.hidden_state("tail", spec, 0.3, RngHandle(0))
        assert built == []
        monkeypatch.undo()
        with pytest.raises(SystemExit) as err:
            main(["certify", "--hidden", "tail", "--family", "geometric", "--ratio", "0.99",
                  "--d", "128", "--trials", "1"])
        assert err.value.code == 2
        assert capsys.readouterr().err == ("qcert: tail alternative needs the largest entry "
                                           "0.013817 >= eps^2/4 = 0.0225\n")

    def test_csv_schema(self, capsys):
        code, out = run_cli(["certify", "--algorithm", "basic", "--family", "mm",
                             "--d", "4", "--eps", "0.4", "--delta", "0.5",
                             "--trials", "2"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# ")  # embedded config
        assert lines[1] == "trial,seed,hidden,verdict,copies,wall_ms"


def test_import_leaves_out_multiprocessing():
    # only certify --threads > 1 starts a pool, and imports it then
    code = "import sys, qcert.cli; print('multiprocessing' in sys.modules)"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"


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
        # a repeated dimension would fit the slope on fewer abscissae
        (["--d-list", "4,4"], "--d-list"),
        (["--d-list", "8,4,8"], "--d-list"),
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

    def test_monotone_in_increasing_d_rows_in_input_order(self, capsys):
        """monotone and the slope fit read the rows in increasing d, so the
        --d-list order leaves their bits. Two points fit a line exactly, so
        slope_ci95 is null below three dimensions."""
        payloads = {}
        for d_list in ("4,8", "8,4", "4,8,16"):
            code, out = run_cli(["sweep", "--d-list", d_list, "--trials", "3",
                                 "--format", "json"], capsys)
            assert code == 0
            payloads[d_list] = json.loads(out)
        up, down, three = payloads["4,8"], payloads["8,4"], payloads["4,8,16"]
        assert [r["d"] for r in down["rows"]] == [8, 4]
        assert down["rows"] == up["rows"][::-1]
        # 218 copies at d = 4, 642 at d = 8
        assert up["monotone"] is down["monotone"] is True
        assert up["slope"] == down["slope"]
        assert up["slope_ci95"] is down["slope_ci95"] is None
        low, high = three["slope_ci95"]
        assert low < three["slope"] < high


class TestBoundsCommand:
    def test_mm_lower_bound_value(self, capsys):
        code, out = run_cli(["bounds", "--family", "mm", "--d", "16",
                             "--eps", "0.02"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["bounds"]["lower_nonadaptive"] == pytest.approx(
            16**1.5 / 0.02**2, rel=1e-12
        )

    def test_pure_state_degenerate_flag(self, capsys):
        code, out = run_cli(["bounds", "--family", "rank-mm", "--d", "4", "--rank", "1",
                             "--eps", "0.2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["bounds"]["degenerate"] is True
        assert payload["paninski_available"] is False

    @pytest.mark.parametrize("family, d, rank, ratio, eps", [
        ("mm", 6, None, 0.5, 0.02),
        ("rank-mm", 7, 3, 0.5, 0.05),
        ("spiked", 5, None, 0.5, 0.01),
        ("geometric", 9, None, 0.6, 0.05),
        ("geometric", 12, None, 0.8, 0.3),
    ])
    def test_norms_equal_the_matrix_route(self, family, d, rank, ratio, eps, capsys):
        """The report's norms and fidelity, taken from the spectrum, equal
        those of the diagonal matrices' eigensolves exactly."""
        argv = ["bounds", "--family", family, "--d", str(d), "--ratio", str(ratio),
                "--eps", str(eps)] + (["--rank", str(rank)] if rank else [])
        code, out = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        spec = make_spectrum(family, d, rank, ratio)
        removal = remove_mass_lower_nonadaptive(spec, eps)
        for key, values, p in (("trimmed_norm_2_5", removal.trimmed, 2 / 5),
                               ("kept_norm_1_2", removal.kept, 0.5)):
            want = (spectral_quasinorm(np.linalg.eigvalsh(np.diag(values.astype(complex))), p)
                    if values.sum() > 0 else 0.0)
            assert payload[key] == want, key
        sigma = DensityMatrix.from_diagonal(spec.lambdas)
        assert payload["fidelity_mm"] == spectral_fidelity_mm(np.linalg.eigvalsh(sigma.mat))


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

    def test_pinned_moment_rows(self, capsys):
        """The moment rows at seed 7, pinned exactly: 3000 samples are one
        Householder sub-stack at d=2, three at d=4, and eleven plus a QR
        remainder of 184 at d=8, all with a diagonal M."""
        code, out = run_cli(["verify", "--samples", "3000", "--fuzz", "1", "--schedules", "1",
                             "--seed", "7"], capsys)
        assert code == 1
        rows = {c["check"]: c for c in json.loads(out)["checks"] if c["check"].startswith("moments")}
        assert rows == {
            "moments-mean-d2": {"check": "moments-mean-d2", "ok": True,
                                "estimate": 0.675790146381914, "exact": 0.6666666666666666,
                                "se": 0.0107981391593597},
            "moments-second-d2": {"check": "moments-second-d2", "ok": False,
                                  "estimate": 0.8064917498615811, "bound": 0.375, "exact": None},
            "moments-mean-d4": {"check": "moments-mean-d4", "ok": True,
                                "estimate": 0.806013270556372, "exact": 0.8,
                                "se": 0.009402646200127734},
            "moments-second-d4": {"check": "moments-second-d4", "ok": False,
                                  "estimate": 0.9148866590073088, "bound": 0.09375,
                                  "exact": 0.9142857142857143},
            "moments-mean-d8": {"check": "moments-mean-d8", "ok": True,
                                "estimate": 0.8904783710162528, "exact": 0.8888888888888888,
                                "se": 0.007728182134063489},
            "moments-second-d8": {"check": "moments-second-d8", "ok": False,
                                  "estimate": 0.9721261265395336, "bound": 0.0234375,
                                  "exact": 0.9696969696969698},
        }

    @pytest.mark.parametrize("argv, flag", [
        (["--samples", "0"], "--samples"),
        (["--samples", "-5"], "--samples"),
        (["--fuzz", "0"], "--fuzz"),
        (["--fuzz", "-3", "--schedules", "0"], "--fuzz"),
        (["--schedules", "0"], "--schedules"),
        (["--schedules", "-2"], "--schedules"),
    ])
    def test_counts_below_one_name_the_flag(self, argv, flag, capsys):
        """A count below 1 is a usage error before any check runs, rather
        than checks reported as passed after zero trials."""
        with pytest.raises(SystemExit) as err:
            main(["verify"] + argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"qcert: {flag} must be >= 1")
        assert captured.out == ""


class TestDivergenceCommand:
    @pytest.mark.parametrize("family", [["--family", "mm", "--d", "4"],
                                        ["--family", "geometric", "--d", "8", "--ratio", "0.8"]])
    def test_paninski_rows_are_the_per_state_fold(self, family, capsys):
        """300 parameter draws are four 64-state draw stacks and a ragged one:
        every row is the per-state fold of one-at-a-time draws and schedules
        from the same streams, bit for bit."""
        code, out = run_cli(["divergence", *family, "--ensemble", "paninski", "--eps", "0.1",
                             "--copies", "2", "--schedules", "2", "--param-draws", "300",
                             "--seed", "3", "--format", "json"], capsys)
        assert code == 0
        spec = make_spectrum(family[1], int(family[3]), None,
                             float(family[5]) if len(family) > 4 else 0.5)
        sigma, inst = DensityMatrix.from_diagonal(spec.lambdas), tune_paninski(spec, 0.1)
        handle = RngHandle(3).child("divergence")
        for s, row in enumerate(json.loads(out)["rows"]):
            sched = Basis(reference.haar_schedule_draw(
                spec.dim, 2, handle.child("schedule", s).generator()))
            gen = handle.child("draws", s).generator()
            states = [reference.paninski_draw(sigma, inst, gen) for _ in range(300)]
            want = reference.per_state_divergence(sigma, states, sched)
            assert [row[f] for f in ("tv", "chi2", "kl", "min_likelihood_ratio")] == [
                want.tv, want.chi2, want.kl, want.min_likelihood_ratio]

    def test_corner_rows_are_the_per_state_fold(self, capsys):
        """One weighing per schedule serves both the divergences and the
        phis: each row equals the per-state fold and the per-pair phis."""
        code, out = run_cli(["divergence", "--family", "spiked", "--d", "4", "--ensemble",
                             "corner", "--copies", "3", "--schedules", "2", "--seed", "4",
                             "--format", "json"], capsys)
        assert code == 0
        sigma = DensityMatrix.from_diagonal(make_spectrum("spiked", 4).lambdas)
        ens = corner_ensemble(sigma, 0.3)
        handle = RngHandle(4).child("divergence")
        for s, row in enumerate(json.loads(out)["rows"]):
            us = reference.haar_schedule_draw(5, 3, handle.child("schedule", s).generator())
            want = reference.per_state_divergence(sigma, ens, Basis(us))
            phis = [reference.scalar_phi(Basis(u), sigma, a, b)
                    for u in us for a in ens for b in ens]
            assert [row[f] for f in ("tv", "chi2", "kl", "min_likelihood_ratio")] == [
                want.tv, want.chi2, want.kl, want.min_likelihood_ratio]
            assert [row["ingster_bound"], row["ingster_se"]] == list(ingster_bound(phis, 3))

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

    @pytest.mark.parametrize("argv, flag", [
        (["--ensemble", "corner", "--copies", "0"], "--copies"),
        (["--ensemble", "paninski", "--copies", "-3"], "--copies"),
        (["--ensemble", "paninski", "--schedules", "0"], "--schedules"),
        (["--ensemble", "paninski", "--param-draws", "0"], "--param-draws"),
    ])
    def test_counts_below_one_name_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as err:
            main(["divergence", "--family", "mm", "--d", "4", "--param-draws", "3"] + argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"qcert: {flag} must be >= 1")
        assert captured.out == ""

    @pytest.mark.parametrize("copies, size", [("10", "1048576"),
                                              ("1000000000", f"more than {4**64}")])
    def test_transcript_limit_names_copies(self, copies, size, capsys):
        """Past MAX_TRANSCRIPTS the usage error gives d, the copy count, d**N
        and the limit, and names --copies; no schedule is drawn first."""
        with pytest.raises(SystemExit) as err:
            main(["divergence", "--family", "mm", "--d", "4", "--ensemble", "paninski",
                  "--copies", copies, "--schedules", "1", "--param-draws", "2"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"qcert: --copies {copies}: transcript space d**copies = "
                                f"4**{copies} = {size} exceeds MAX_TRANSCRIPTS = 1000000\n")
        assert captured.out == ""

    @pytest.mark.parametrize("family, ensemble, setup", [("mm", "paninski", "tune_paninski"),
                                                         ("spiked", "corner", "corner_ensemble")])
    def test_setup_built_once_per_run(self, family, ensemble, setup, capsys, monkeypatch):
        calls = []
        build = getattr(cli, setup)
        monkeypatch.setattr(cli, setup, lambda *a: calls.append(a) or build(*a))
        code, _ = run_cli(["divergence", "--family", family, "--d", "4", "--ensemble", ensemble,
                           "--copies", "2", "--schedules", "3", "--param-draws", "2"], capsys)
        assert code == 0 and len(calls) == 1

    def test_drawn_schedules_skip_the_unitarity_check(self, capsys, monkeypatch):
        """haar_schedule, the per-copy bases of the Ingster phis and
        verify_moments_basic's sub-stacks are library draws: a divergence and
        a verify run build no ``Basis`` through its checking constructor."""
        checked = count_checked_bases(monkeypatch)
        code, _ = run_cli(["divergence", "--family", "spiked", "--d", "4", "--copies", "3",
                           "--schedules", "2"], capsys)
        assert code == 0
        run_cli(["verify", "--samples", "300", "--fuzz", "2", "--schedules", "2"], capsys)
        assert checked == []

    def test_phis_weigh_each_state_once_per_basis(self, capsys, monkeypatch):
        """The exact divergences and the Ingster phis share one weighing per
        schedule, each over every copy's basis at once: sigma's null laws and
        one stacked call for both corner states, 2 weights calls per schedule
        where the two once made 3 each."""
        calls = []
        weights = Basis.weights
        monkeypatch.setattr(Basis, "weights", lambda m, block, stacked=False: calls.append(
            (m.u.shape, block.shape, stacked)) or weights(m, block, stacked))
        code, _ = run_cli(["divergence", "--family", "spiked", "--d", "4", "--ensemble", "corner",
                           "--copies", "5", "--schedules", "5"], capsys)
        assert code == 0
        assert calls == [((5, 5, 5), (5,), False), ((5, 5, 5), (2, 5, 5), True)] * 5

    def test_corner_ignores_param_draws(self, capsys):
        code, _ = run_cli(["divergence", "--family", "spiked", "--d", "4", "--ensemble", "corner",
                           "--copies", "2", "--schedules", "1", "--param-draws", "0"], capsys)
        assert code == 0

    def test_json_report_is_strict(self, capsys):
        """The Paninski rows carry no Ingster bound: JSON writes it as null,
        which a strict parser accepts, and CSV keeps writing nan."""
        base = ["divergence", "--family", "mm", "--d", "4", "--ensemble", "paninski",
                "--copies", "2", "--schedules", "2", "--param-draws", "3"]

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        code, out = run_cli(base + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out, parse_constant=reject)
        assert [(r["ingster_bound"], r["ingster_se"]) for r in payload["rows"]] == [(None, None)] * 2
        assert all(isinstance(r["tv"], float) for r in payload["rows"])
        code, out = run_cli(base + ["--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[1].endswith(",ingster_bound,ingster_se")
        assert all(line.endswith(",nan,nan") for line in lines[2:]) and len(lines) == 4
