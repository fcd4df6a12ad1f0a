"""Smoke tests: every shipped example must run to completion.

Each example's ``main()`` is imported and executed (stdout captured by
pytest); assertions are on completion and on a couple of load-bearing
lines so a silently-broken example can't slip through.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "cache hit rate" in out
        assert "always 0 in DIFANE" in out

    def test_acl_offload(self, capsys):
        load_example("acl_offload").main()
        out = capsys.readouterr().out
        assert "Partitioning" in out
        assert "wildcard" in out.lower()

    def test_campus_failover(self, capsys):
        load_example("campus_failover").main()
        out = capsys.readouterr().out
        assert "authority failure" in out.lower() or "failover" in out.lower()
        assert "dropped=0" in out

    def test_reactive_vs_difane(self, capsys):
        load_example("reactive_vs_difane").main()
        out = capsys.readouterr().out
        assert "DIFANE" in out and "NOX" in out
        assert "summary:" in out

    def test_trace_replay(self, capsys):
        load_example("trace_replay").main()
        out = capsys.readouterr().out
        assert "Trace-driven cache replay" in out
        assert "live replay" in out

    def test_every_example_has_a_test(self):
        """Adding an example without a smoke test should fail loudly."""
        scripts = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
        tested = {
            name[len("test_"):] for name in dir(TestExamplesRun)
            if name.startswith("test_") and name != "test_every_example_has_a_test"
        }
        assert scripts == tested
