"""CLI tests (``python -m repro``)."""

import json

import pytest

from repro.cli import main

PROGRAM = """
int main(int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) { s = s + i; }
    print(s);
    return s;
}
"""

RACY = """
struct q { void* mut; int data; };
struct q* fifo;
void cons(int unused) {
    mutex_lock(fifo->mut);
    fifo->data = fifo->data - 1;
    mutex_unlock(fifo->mut);
}
int main(int n) {
    fifo = malloc(sizeof(struct q));
    fifo->mut = mutex_create();
    fifo->data = n;
    int t = thread_create(cons, 0);
    mutex_destroy(fifo->mut);
    fifo->mut = NULL;
    thread_join(t);
    free(fifo);
    return 0;
}
"""


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "prog.minic"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def racy(tmp_path):
    path = tmp_path / "racy.minic"
    path.write_text(RACY)
    return str(path)


class TestCompileRun:
    def test_compile_dumps_ir(self, program, capsys):
        assert main(["compile", program]) == 0
        out = capsys.readouterr().out
        assert "def main" in out
        assert "binop" in out

    def test_run_prints_stdout_and_succeeds(self, program, capsys):
        assert main(["run", program, "5"]) == 0
        assert capsys.readouterr().out.strip() == "10"

    def test_run_failing_program_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.minic"
        path.write_text('int main() { assert(0, "boom"); return 0; }')
        assert main(["run", str(path)]) == 1
        assert "assertion failure" in capsys.readouterr().err

    def test_run_with_string_arg(self, tmp_path, capsys):
        path = tmp_path / "s.minic"
        path.write_text("int main(char* s) { print(strlen(s)); return 0; }")
        assert main(["run", str(path), "{}{"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    @pytest.mark.parametrize("check", ["", 'assert(s < 1000, "too big");'])
    def test_profile_run_profiles_the_run_it_reports(self, tmp_path, capsys,
                                                     check):
        path = tmp_path / "loop.minic"
        path.write_text(PROGRAM.replace("print(s);", "print(s); " + check))
        argv = ["run", str(path), "3000"]
        code = main(argv)
        plain = capsys.readouterr()
        assert main(argv + ["--profile-run"]) == code == (1 if check else 0)
        profiled = capsys.readouterr()
        assert profiled.out == plain.out
        assert "Ordered by: internal time" in profiled.err
        assert "(_fn_main)" in profiled.err
        assert plain.err.splitlines()[-1] == profiled.err.splitlines()[-1]


class TestTraceSlice:
    def test_trace_reports_compression(self, program, capsys):
        assert main(["trace", program, "20"]) == 0
        out = capsys.readouterr().out
        assert "bits/instr" in out
        assert "full-trace overhead" in out

    def test_slice_prints_backward_slice(self, program, capsys):
        assert main(["slice", program, "5"]) == 0
        assert "static slice" in capsys.readouterr().out


class TestDiagnose:
    def test_diagnose_racy_program(self, racy, tmp_path, capsys):
        html = tmp_path / "sketch.html"
        js = tmp_path / "sketch.json"
        rc = main(["diagnose", racy, "3", "--switch-prob", "0.05",
                   "--bug", "cli-racy", "--max-iterations", "2",
                   "--html", str(html), "--json", str(js)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Failure Sketch for cli-racy" in out
        assert html.exists() and "<html" in html.read_text()
        payload = json.loads(js.read_text())
        assert payload["bug"] == "cli-racy"

    def test_diagnose_healthy_program(self, program, capsys):
        rc = main(["diagnose", program, "3", "--max-iterations", "1"])
        assert rc == 1
        assert "no failure" in capsys.readouterr().err


class TestCorpus:
    def test_list(self, capsys):
        assert main(["corpus", "list"]) == 0
        out = capsys.readouterr().out
        assert "pbzip2-1" in out
        assert "curl-965" in out
        assert "evloop-1" in out
        assert len(out.strip().splitlines()) == 15

    def test_list_kind_filter(self, capsys):
        assert main(["corpus", "list", "--kind", "data race"]) == 0
        out = capsys.readouterr().out
        assert "evloop-1" in out
        assert "ringbuf-1" in out
        assert "curl-965" not in out

    def test_list_unknown_kind(self, capsys):
        assert main(["corpus", "list", "--kind", "quantum"]) == 1
        assert "no corpus bugs with failure kind" \
            in capsys.readouterr().err

    def test_show(self, capsys):
        assert main(["corpus", "show", "curl-965"]) == 0
        out = capsys.readouterr().out
        assert "next_url" in out
        assert "ideal sketch" in out

    def test_campaign_concurrent_bugs(self, capsys):
        rc = main(["corpus", "campaign", "pbzip2-1", "curl-965",
                   "--shards", "2", "--cohort-size", "100",
                   "--max-iterations", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 campaigns, 2 shard(s)" in out
        assert "cross-shard merge verified: True" in out
        assert out.count("found") == 2

    def test_campaign_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            main(["corpus", "campaign", "pbzip2-1",
                  "--scheduler", "bogus"])


class TestCoverage:
    def test_coverage_listing(self, tmp_path, capsys):
        path = tmp_path / "cov.minic"
        path.write_text("""
int pick(int v) {
    if (v > 2) { return 1; }
    return 0;
}
int main(int x) { return pick(x); }
""")
        assert main(["coverage", str(path), "5"]) == 0
        out = capsys.readouterr().out
        assert "pick:" in out
        assert "#" in out and "-" in out  # covered and uncovered marks

    def test_coverage_multiple_runs_accumulate(self, tmp_path, capsys):
        path = tmp_path / "cov2.minic"
        path.write_text("""
int main(int x) {
    if (x % 2 == 0) { print(0); } else { print(1); }
    return 0;
}
""")
        assert main(["coverage", str(path), "4", "--runs", "1"]) == 0
        one = capsys.readouterr().out
        assert "1 full" not in one.split("main:")[1].splitlines()[0]


class TestVersionAndFleetFlags:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_corpus_diagnose_with_fault_plan(self, capsys):
        assert main(["corpus", "diagnose", "transmission-1818",
                     "--fault-plan", "lossy"]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_bad_fault_plan_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "diagnose", "transmission-1818",
                  "--fault-plan", "bogus=1"])
        assert exc.value.code == 2
        assert "unknown fault-plan key" in capsys.readouterr().err

    def test_batch_bytes_above_the_frame_cap_is_an_argparse_error(
            self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "serve", "transmission-1818",
                  "--socket", "unix:/nonexistent/gist.sock",
                  "--batch-bytes", str(20 * 1024 * 1024)])
        assert exc.value.code == 2
        assert "frame cap" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["corpus", "diagnose", "transmission-1818",
         "--fleet-transport", "direct"],
        ["corpus", "diagnose", "transmission-1818", "--jobs", "2"],
        ["run", "prog.minic", "--strict-dispatch"],
        ["run", "prog.minic", "--interp", "strict"],
        ["run", "prog.minic", "--interp", "decoded"],
        ["corpus", "diagnose", "transmission-1818", "--executor", "serial"],
        ["corpus", "diagnose", "transmission-1818", "--batch-bytes", "1",
         "--fleet-transport", "socket"],
        ["corpus", "campaign", "pbzip2-1", "--batch-ms", "2"],
        ["diagnose", "prog.minic", "--batch-ms", "2"],
    ])
    def test_retired_spellings_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        flag = next(arg for arg in argv if arg.startswith("--"))
        assert flag in capsys.readouterr().err
