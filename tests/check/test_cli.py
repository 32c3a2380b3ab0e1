"""End-to-end tests of the ``pugpara`` command-line interface."""

import pytest

from repro.cli import main
from repro.kernels import KERNELS


@pytest.fixture()
def kernel_files(tmp_path):
    paths = {}
    for name in ("naiveTranspose", "optimizedTranspose", "naiveReduce",
                 "scanRacy"):
        p = tmp_path / f"{name}.cu"
        p.write_text(KERNELS[name].source)
        paths[name] = str(p)
    return paths


def test_suite_listing(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "naiveTranspose" in out
    assert "Transpose" in out


def test_equiv_param_verified(kernel_files, capsys):
    rc = main(["equiv", kernel_files["naiveTranspose"],
               kernel_files["optimizedTranspose"],
               "--method", "param", "--width", "8", "--pair", "Transpose",
               "--cbdim", "2,2,1", "--cgdim", "2,2",
               "--set", "width=4", "--set", "height=4",
               "--timeout", "120"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified" in out


def test_equiv_nonparam(kernel_files, capsys):
    rc = main(["equiv", kernel_files["naiveTranspose"],
               kernel_files["optimizedTranspose"],
               "--method", "nonparam", "--width", "8",
               "--bdim", "2,2,1", "--gdim", "1,1",
               "--set", "width=2", "--set", "height=2",
               "--timeout", "120"])
    assert rc == 0
    assert "verified" in capsys.readouterr().out


def test_func_nonparam_spec(kernel_files, capsys):
    rc = main(["func", kernel_files["naiveReduce"], "--method", "nonparam",
               "--width", "8", "--bdim", "4,1,1", "--timeout", "120"])
    assert rc == 0


def test_races_finds_bug(kernel_files, capsys):
    rc = main(["races", kernel_files["scanRacy"], "--width", "8",
               "--pair", "Reduction",
               "--cbdim", "8,1,1", "--cgdim", "1,1", "--timeout", "120"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "bug" in out


def test_stats_json_to_stdout(tmp_path, capsys):
    import json
    p = tmp_path / "simple.cu"
    p.write_text("void f(int *o) { o[tid.x] = 1; }")
    rc = main(["races", str(p), "--width", "8",
               "--cbdim", "4,1,1", "--cgdim", "1,1",
               "--timeout", "120", "--stats-json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out[out.index("{"):])
    assert payload["verdict"] == "verified"
    assert payload["stats"]["solver"]["queries"] >= 1


def test_stats_json_to_file(tmp_path, capsys):
    import json
    p = tmp_path / "simple.cu"
    p.write_text("void f(int *o) { o[tid.x] = 1; }")
    dest = tmp_path / "outcome.json"
    rc = main(["races", str(p), "--width", "8",
               "--cbdim", "4,1,1", "--cgdim", "1,1",
               "--timeout", "120", "--stats-json", str(dest)])
    assert rc == 0
    payload = json.loads(dest.read_text())
    assert payload["verdict"] == "verified"
    assert "elapsed" in payload and "complete" in payload


def test_run_prints_outputs(kernel_files, tmp_path, capsys):
    p = tmp_path / "simple.cu"
    p.write_text("void f(int *o, int n) { o[tid.x] = n + tid.x; }")
    rc = main(["run", str(p), "--bdim", "4,1,1", "--set", "n=10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[0]=10" in out and "[3]=13" in out


def test_run_reports_races(tmp_path, capsys):
    p = tmp_path / "racy.cu"
    p.write_text("void f(int *o) { o[0] = tid.x; }")
    rc = main(["run", str(p), "--bdim", "4,1,1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RACE" in out


class TestExitCodeContract:
    """0 verified / 1 refuted / 3 inconclusive / 4 internal error — the
    contract scripts and CI key off (2 is argparse's usage error)."""

    def test_unknown_exit_code_on_timeout(self, kernel_files, capsys):
        from repro.cli import EXIT_UNKNOWN
        rc = main(["equiv", kernel_files["naiveTranspose"],
                   kernel_files["optimizedTranspose"],
                   "--method", "nonparam", "--width", "8",
                   "--bdim", "4,4,1", "--gdim", "2,2",
                   "--set", "width=8", "--set", "height=8",
                   "--timeout", "0.0001", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == EXIT_UNKNOWN
        assert "timeout" in out

    def test_internal_error_exit_code(self, kernel_files, monkeypatch,
                                      capsys):
        import repro.cli as cli

        def broken(*args, **kwargs):
            raise RuntimeError("checker bug")

        monkeypatch.setattr(cli, "check_races", broken)
        rc = main(["races", kernel_files["scanRacy"]])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_INTERNAL
        assert "internal error" in err

    def test_missing_kernel_file_is_usage_error(self, capsys):
        from repro.cli import EXIT_USAGE
        rc = main(["races", "/nonexistent/kernel.cu"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert "cannot read kernel" in err
        assert "internal error" not in err

    def test_malformed_kernel_is_usage_error(self, tmp_path, capsys):
        from repro.cli import EXIT_USAGE
        bad = tmp_path / "bad.cu"
        bad.write_text("void f(int *o) { o[0] = ; }")
        assert main(["races", str(bad)]) == EXIT_USAGE
        assert "internal error" not in capsys.readouterr().err

    def test_suite_kernel_name_resolves(self, capsys):
        from repro.cli import EXIT_REFUTED
        # without the pow2 assumption the reduction races (Table I)
        rc = main(["races", "optimizedReduce", "--width", "8"])
        assert rc == EXIT_REFUTED
        assert "race" in capsys.readouterr().out

    def test_existing_file_shadows_suite_name(self, tmp_path, monkeypatch,
                                              capsys):
        from repro.cli import EXIT_VERIFIED
        monkeypatch.chdir(tmp_path)
        (tmp_path / "optimizedReduce").write_text(
            "void f(int *o) { o[tid.x] = 1; }")
        rc = main(["races", "optimizedReduce", "--width", "8",
                   "--pair", "Reduction"])
        assert rc == EXIT_VERIFIED

    def test_usage_error_is_exit_2(self):
        import pytest
        with pytest.raises(SystemExit) as exc:
            main(["races"])  # missing kernel argument
        assert exc.value.code == 2

    def test_help_documents_exit_codes(self, capsys):
        import pytest
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "internal error" in out


class TestResilienceFlags:
    def test_retries_flag_recovers_timeout(self, tmp_path, capsys):
        """A budget-starved races run recovers under --retries (wall-clock
        escalation doubles the tiny timeout until the queries fit)."""
        p = tmp_path / "ok.cu"
        p.write_text("void f(int *o) { o[tid.x] = 1; }")
        rc = main(["races", str(p), "--width", "8", "--timeout", "60",
                   "--cbdim", "4,1,1", "--cgdim", "1,1",
                   "--retries", "3", "--escalation", "luby",
                   "--max-budget", "60", "--no-cache", "--stats"])
        assert rc == 0
        assert "verified" in capsys.readouterr().out

    def test_no_validate_cex_flag_accepted(self, tmp_path, capsys):
        p = tmp_path / "racy.cu"
        p.write_text("void f(int *o) { o[0] = tid.x; }")
        rc = main(["races", str(p), "--width", "8", "--timeout", "60",
                   "--no-validate-cex", "--no-cache"])
        assert rc == 1
        assert "bug" in capsys.readouterr().out

    def test_stats_include_resilience_section(self, tmp_path, capsys):
        """Under a total-exception fault plan with retries, --stats renders
        the resilience block."""
        from repro.smt import FaultPlan, faults
        p = tmp_path / "ok.cu"
        p.write_text("void f(int *o) { o[tid.x] = 1; }")
        plan = FaultPlan(seed=4, solver_exception=1.0, max_triggers=1)
        with faults.injected(plan):
            rc = main(["races", str(p), "--width", "8", "--timeout", "60",
                       "--cbdim", "4,1,1", "--cgdim", "1,1",
                       "--retries", "2", "--no-cache", "--stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resilience:" in out
