"""CLI tests."""

import pytest

from repro.cli import SHORT_NAMES, main


class TestList:
    def test_lists_all_seven(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for short in ("track", "bdna", "mdg", "adm", "ocean", "spice", "dyfesm"):
            assert short in out


class TestAnalyze:
    def test_analyze_file(self, tmp_path, capsys):
        source = (
            "program demo\n  integer i, n, idx(8)\n  real a(8)\n"
            "  do i = 1, n\n    a(idx(i)) = 1.0\n  end do\nend\n"
        )
        path = tmp_path / "demo.f"
        path.write_text(source)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "static analysis" in out
        assert "tested=['a']" in out

    def test_analyze_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/loop.f"]) == 1
        assert "error" in capsys.readouterr().err

    def test_analyze_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "bad.f"
        path.write_text("program p\n  do od\nend\n")
        assert main(["analyze", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_run_dyfesm_speculative(self, capsys):
        assert main(["run", "dyfesm", "--procs", "4"]) == 0
        out = capsys.readouterr().out
        assert "speculative" in out
        assert "speedup" in out
        assert "phase breakdown" in out

    def test_run_inspector_on_track_fails_cleanly(self, capsys):
        assert main(["run", "track", "--strategy", "inspector", "--procs", "2"]) == 1
        assert "inspector strategy unavailable" in capsys.readouterr().err

    def test_run_with_machine_choice(self, capsys):
        assert main(["run", "ocean", "--machine", "fx2800"]) == 0
        assert "fx2800" in capsys.readouterr().out

    def test_run_pd_mode(self, capsys):
        assert main(["run", "adm", "--procs", "2", "--test-mode", "pd"]) == 0
        assert "pd test" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nosuch"])

    def test_retired_jit_engine_rejected_with_registered_list(self, capsys):
        from repro.runtime.engines import engine_names

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "bdna", "--engine", "jit"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'jit'" in err
        for name in engine_names():
            assert name in err

    def test_retired_parallel_engine_rejected_with_registered_list(self, capsys):
        from repro.runtime.engines import engine_names

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "bdna", "--engine", "parallel"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'parallel'" in err
        for name in engine_names():
            assert name in err

    def test_retired_backend_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "bdna", "--backend", "threads"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


@pytest.fixture
def rejected_spice(monkeypatch):
    """``run spice`` drives a classifier-rejected loop instead: every
    paper loop now lowers whole-block, so the fallback lines need a
    stand-in (a reduction temporary whose running value is copied)."""
    from repro.workloads import PAPER_LOOPS
    from repro.workloads.synthetic import build_reduction_copy

    monkeypatch.setitem(PAPER_LOOPS, "SPICE_LOAD_do40", build_reduction_copy)


class TestVerboseFallbacks:
    def test_rejected_loop_prints_fallback_reason(self, capsys, rejected_spice):
        assert main(
            ["run", "spice", "--engine", "vectorized", "--verbose", "--procs", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "SYNTH_REDUCTION_COPY" in out
        assert "engine fallback" in out
        assert "vectorized -> compiled" in out
        assert "reduction" in out

    def test_spice_commits_its_vectorized_block(self, capsys):
        assert main(
            ["run", "spice", "--engine", "auto", "--verbose", "--procs", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "SPICE_LOAD_do40" in out
        assert "vectorized (classifier accepted" in out
        assert "engine fallback : none (vectorized block committed)" in out

    def test_committed_block_prints_no_fallback(self, capsys):
        assert main(
            ["run", "bdna", "--engine", "vectorized", "--verbose", "--procs", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "engine fallback : none (vectorized block committed)" in out

    def test_quiet_run_omits_fallback_lines(self, capsys, rejected_spice):
        assert main(["run", "spice", "--engine", "vectorized", "--procs", "4"]) == 0
        out = capsys.readouterr().out
        assert "SYNTH_REDUCTION_COPY" in out
        assert "engine fallback" not in out


class TestProfilePath:
    def test_profile_persists_across_invocations(self, tmp_path, capsys):
        """Two CLI runs over the same --profile-path: the first records
        the verdict, the second serves it from the loaded store."""
        path = tmp_path / "profiles.json"
        args = ["run", "ocean", "--procs", "4",
                "--profile-path", str(path), "--verbose"]

        assert main(args) == 0
        first = capsys.readouterr().out
        assert "hits=0" in first
        assert path.exists()

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "hits=1" in second
        assert "schedule reuse" in second

    def test_corrupt_profile_warns_and_still_runs(self, tmp_path, capsys):
        path = tmp_path / "profiles.json"
        path.write_text("{ not json")
        assert main(
            ["run", "ocean", "--procs", "4", "--profile-path", str(path)]
        ) == 0
        captured = capsys.readouterr()
        assert "profile" in captured.err
        # The broken file was replaced by a clean save on exit.
        assert main(
            ["run", "ocean", "--procs", "4", "--profile-path", str(path),
             "--verbose"]
        ) == 0
        assert "hits=1" in capsys.readouterr().out

    def test_quiet_runs_omit_cache_counters(self, capsys):
        assert main(["run", "ocean", "--procs", "4"]) == 0
        assert "profile cache" not in capsys.readouterr().out


class TestFigure:
    def test_figure_output(self, capsys):
        assert main(["figure", "dyfesm"]) == 0
        out = capsys.readouterr().out
        assert "procs" in out
        assert "speculative" in out
        assert "ideal" in out


def test_short_names_cover_paper_loops():
    assert len(SHORT_NAMES) == 7


class TestReport:
    def test_quick_report_writes_artifacts(self, tmp_path, capsys):
        assert main(["report", "--quick", "--out", str(tmp_path / "r")]) == 0
        produced = {p.name for p in (tmp_path / "r").iterdir()}
        for expected in (
            "table1.txt", "table2.txt", "fig_track.txt", "fig_bdna.txt",
            "fig_failure.txt", "ablation_pd_vs_lpd.txt",
            "ablation_procwise.txt", "ablation_marking.txt",
            "fig_ocean_reuse.txt",
        ):
            assert expected in produced
        table1 = (tmp_path / "r" / "table1.txt").read_text()
        assert "TRACK_NLFILT_do300" in table1

    def test_report_creates_nested_directory(self, tmp_path):
        target = tmp_path / "a" / "b"
        assert main(["report", "--quick", "--out", str(target)]) == 0
        assert (target / "table2.txt").exists()


class TestWorkers:
    def test_run_sharded_vectorized_reports_wall_clock(self, capsys):
        assert main(
            ["run", "mdg", "--procs", "4", "--engine", "vectorized",
             "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "measured wall clock" in out
        assert "engine=vectorized" in out

    def test_workers_flag_requires_nothing_else(self, capsys):
        # --workers is inert under the default compiled engine.
        assert main(["run", "ocean", "--procs", "2", "--workers", "3"]) == 0
        assert "speculative" in capsys.readouterr().out


def test_module_entry_point_imports():
    # ``python -m repro`` lives in repro.__main__; importing it covers the
    # module body (the __main__ guard keeps main() from running).
    import repro.__main__  # noqa: F401


class TestLift:
    def test_lift_corpus_target(self, capsys):
        assert main(["lift", "corpus/histogram"]) == 0
        out = capsys.readouterr().out
        assert "frontend : python" in out
        assert "lift     : ok" in out
        assert "lifted IR" in out
        assert "vectorize:" in out

    def test_lift_corpus_run_is_bit_identical(self, capsys):
        assert main(
            ["lift", "corpus/histogram", "--run", "--procs", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "parity   : bit-identical to native Python execution" in out

    def test_lift_rejected_corpus_loop_names_reason(self, capsys):
        assert main(["lift", "corpus/first_negative"]) == 1
        out = capsys.readouterr().out
        assert "rejected (break-unsupported)" in out

    def test_lift_python_file(self, capsys):
        assert main(["lift", "examples/corpus/histogram.py", "--run",
                     "--procs", "1"]) == 0
        out = capsys.readouterr().out
        assert "frontend : python" in out
        assert "lift     : ok" in out

    def test_lift_unliftable_file_exits_nonzero(self, capsys):
        assert main(["lift", "examples/corpus/unliftable.py"]) == 1
        assert "break-unsupported" in capsys.readouterr().out

    def test_lift_missing_file(self, capsys):
        assert main(["lift", "/nonexistent/loop.py"]) == 1
        assert "error" in capsys.readouterr().err

    def test_lift_dsl_file_via_suffix(self, tmp_path, capsys):
        path = tmp_path / "demo.f"
        path.write_text(
            "program demo\n  integer i, n\n  real a(8)\n"
            "  do i = 1, n\n    a(i) = 1.0\n  end do\nend\n"
        )
        assert main(["lift", str(path)]) == 0
        assert "frontend : dsl" in capsys.readouterr().out

    def test_list_shows_corpus_loops(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "corpus/histogram" in out
        assert "corpus/first_negative" in out
