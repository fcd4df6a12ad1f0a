"""Tests for the CLI, the experiment table and the ASCII plotter."""

import json
import os
import pathlib
import subprocess
import sys

import repro
from repro.analysis.asciiplot import ascii_plot
from repro.analysis.series import Series
from repro.cli import main
from repro.experiments.registry import SPECS

GOLDENS_DIR = pathlib.Path(__file__).parent / "goldens"


def _child_imports(*args):
    """Modules a fresh interpreter imports running ``python -X importtime ARGS``."""
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args], env=env,
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines() if line.startswith("import time:")
    }


class TestAsciiPlot:
    def test_contains_markers_and_legend(self):
        a = Series("alpha", x=[1, 2, 3], y=[10, 20, 30], x_label="k", y_label="v")
        b = Series("beta", x=[1, 2, 3], y=[30, 20, 10])
        text = ascii_plot([a, b], title="demo")
        assert "demo" in text
        assert "o alpha" in text
        assert "x beta" in text
        assert "[k]" in text

    def test_empty(self):
        assert ascii_plot([], title="nothing") == "nothing"
        assert ascii_plot([Series("empty")]) == "(no data)"

    def test_log_x(self):
        series = Series("s", x=[10, 100, 1000], y=[1, 2, 3])
        text = ascii_plot([series], log_x=True)
        assert "(log)" in text

    def test_flat_series_does_not_crash(self):
        series = Series("flat", x=[1, 2], y=[5, 5])
        assert "flat" in ascii_plot([series])


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in SPECS:
            assert key in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_quick_partitioning(self, capsys):
        assert main(["run", "E5", "--quick", "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "E5-partition-tcam" in out
        assert "campus" in out

    def test_run_quick_with_plot(self, capsys):
        assert main(["run", "E6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "duplication" in out.lower() or "E6" in out

    def test_case_insensitive(self, capsys):
        assert main(["run", "e1", "--quick", "--no-plot"]) == 0
        assert "E1-policies" in capsys.readouterr().out

    def test_registry_covers_all_ten(self):
        assert set(SPECS) == (
            {f"E{i}" for i in range(1, 11)}
            | {f"A{i}" for i in range(1, 7)}
            | {"E8C", "E9Q", "C1", "C2", "C2-STATIC", "M1"}
        )
        assert all(spec.id == key for key, spec in SPECS.items())

    def test_list_imports_no_runner(self):
        runners = {spec.run.split(":")[0] for spec in SPECS.values()}
        loaded = _child_imports("-m", "repro.cli", "list")
        assert "repro.experiments.registry" in loaded
        assert not loaded & runners
        assert "repro.experiments.registry" not in _child_imports(
            "-c", "import repro.experiments"
        )

    def test_chaos_flags_do_not_leak_between_runs(self, capsys):
        def run(*flags):
            assert main(["run", "C1", "--quick", "--no-plot", *flags]) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if "took" not in line]

        plain = run()
        seeded = run("--chaos-seed", "7", "--heartbeat-interval", "0.05")
        assert seeded != plain
        assert run() == plain

    def test_a6_quick_is_the_golden_run(self, tmp_path, capsys):
        metrics = tmp_path / "a6.json"
        assert main([
            "run", "A6", "--quick", "--no-plot", "--telemetry",
            "--trace-out", str(tmp_path / "a6.jsonl"),
            "--metrics-out", str(metrics),
        ]) == 0
        golden = GOLDENS_DIR / "A6-failover-transient-metrics.json"
        assert json.loads(metrics.read_text()) == json.loads(golden.read_text())
