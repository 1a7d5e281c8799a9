"""Tests for repro.analysis: every lint rule against its fixtures, the
suppression/baseline machinery, and the end-to-end guarantee that the
committed tree itself lints clean."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.analysis import (
    Baseline,
    LintError,
    run_lint,
)
from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.framework import Project
from repro.analysis.graph import ImportGraph
from repro.analysis.report import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"


def lint(case: str, **kwargs):
    return run_lint(FIXTURES / case, **kwargs)


def active(result, rule: str | None = None):
    return [
        d
        for d in result.diagnostics
        if d.active and (rule is None or d.rule == rule)
    ]


def locations(result, rule: str):
    return {(d.path, d.line) for d in active(result, rule)}


# ----------------------------------------------------------------------
# Rule-by-rule fixtures
# ----------------------------------------------------------------------
class TestEntropyDiscipline:
    def test_true_positives_with_file_line(self):
        result = lint("entropy")
        locs = locations(result, "entropy-discipline")
        assert ("src/repro/worker.py", 8) in locs  # os.urandom
        assert ("src/repro/worker.py", 12) in locs  # secrets.token_hex
        assert ("src/repro/worker.py", 29) in locs  # unseeded random.Random
        assert ("src/repro/obs.py", 3) in locs  # obs imports random
        assert ("src/repro/obs.py", 7) in locs  # obs mints a PRNG

    def test_suppressed_and_clean_cases(self):
        result = lint("entropy")
        suppressed = [
            d for d in result.diagnostics if d.suppressed and d.rule == "entropy-discipline"
        ]
        assert any(d.path == "src/repro/worker.py" for d in suppressed)
        assert all(d.justification for d in suppressed)
        # The sanctioned crypto module draws freely.
        assert not any(d.path.endswith("crypto/prf.py") for d in active(result))
        # Seeded PRNG outside obs is clean (line 22 of worker.py).
        assert ("src/repro/worker.py", 22) not in locations(result, "entropy-discipline")


class TestPlaintextBoundary:
    def test_direct_import_and_call(self):
        result = lint("boundary")
        locs = locations(result, "plaintext-boundary")
        assert ("src/repro/store/engine.py", 3) in locs  # crypto.keys import
        assert ("src/repro/store/engine.py", 8) in locs  # .decrypt() call

    def test_transitive_reachability_names_the_chain(self):
        result = lint("boundary")
        transitive = [
            d
            for d in active(result, "plaintext-boundary")
            if d.path == "src/repro/store/mid.py"
        ]
        assert transitive, "transitive leak store.mid -> util.helper -> api.session not found"
        assert "repro.util.helper" in transitive[0].message
        assert "repro.api.session" in transitive[0].message

    def test_container_import_is_clean_and_suppression_works(self):
        result = lint("boundary")
        assert not any(
            d.path == "src/repro/query/server.py" for d in active(result)
        ), "the Ciphertext container import must not be flagged"
        suppressed = [
            d
            for d in result.diagnostics
            if d.suppressed and d.path == "src/repro/store/engine.py"
        ]
        assert len(suppressed) == 1 and suppressed[0].line == 12


class TestLockDiscipline:
    def test_blocking_io_in_write_sections(self):
        result = lint("locks")
        locs = locations(result, "lock-discipline")
        assert ("src/repro/store/locky.py", 12) in locs  # sendall
        assert ("src/repro/store/locky.py", 16) in locs  # write_bytes
        assert ("src/repro/store/locky.py", 40) in locs  # nested lock

    def test_suppressed_and_clean_sections(self):
        result = lint("locks")
        locs = locations(result, "lock-discipline")
        # flush_ok sends outside the section; read_is_fine holds a read lock.
        assert not any(line > 40 for _, line in locs)
        suppressed = [d for d in result.diagnostics if d.suppressed]
        assert any(d.rule == "lock-discipline" for d in suppressed)


class TestWireExhaustiveness:
    def test_missing_handler_and_exit_row(self):
        result = lint("wire_bad")
        messages = [d.message for d in active(result, "wire-exhaustiveness")]
        assert any("InsertBatch" in m and "no server handler" in m for m in messages)
        assert any("SNAPSHOT_UNAVAILABLE" in m for m in messages)
        # Replies never need handlers (the fixture registers one *Result
        # reply class beside its requests).
        assert not any("Result" in m for m in messages)
        # Missing instrumentation is also flagged in this fixture.
        assert any("server.errors" in m for m in messages)

    def test_fully_wired_fixture_is_clean(self):
        result = lint("wire_ok")
        assert active(result, "wire-exhaustiveness") == []


class TestMetricsDiscipline:
    def test_loop_minting_flagged_cached_clean(self):
        result = lint("metrics")
        locs = locations(result, "metrics-discipline")
        assert locs == {("src/repro/work.py", 8)}
        suppressed = [d for d in result.diagnostics if d.suppressed]
        assert len(suppressed) == 1 and suppressed[0].rule == "metrics-discipline"


class TestExceptionDiscipline:
    def test_swallows_flagged_conversions_clean(self):
        result = lint("excepts")
        locs = locations(result, "exception-discipline")
        assert ("src/repro/store/recover.py", 7) in locs  # silent swallow
        assert ("src/repro/store/recover.py", 14) in locs  # bare except
        assert len(locs) == 2  # convert_ok / narrow_ok / suppressed are clean
        assert any(
            d.suppressed and d.rule == "exception-discipline" for d in result.diagnostics
        )


class TestSuppressionHygiene:
    def test_missing_justification_stale_and_unknown(self):
        result = lint("hygiene")
        hygiene = active(result, "suppression-hygiene")
        messages = [d.message for d in hygiene]
        assert any("without a justification" in m for m in messages)
        assert any("stale allow()" in m for m in messages)
        assert any("unknown rule 'no-such-rule'" in m for m in messages)
        # The unjustified allow still suppresses the entropy diagnostic
        # (hygiene flags the comment itself instead).
        assert active(result, "entropy-discipline") == []
        assert any(
            d.suppressed and d.rule == "entropy-discipline" for d in result.diagnostics
        )

    def test_single_rule_run_skips_hygiene(self):
        result = lint("hygiene", rules=["entropy-discipline"])
        assert active(result, "suppression-hygiene") == []


# ----------------------------------------------------------------------
# Framework pieces
# ----------------------------------------------------------------------
class TestFramework:
    def test_unknown_rule_raises_lint_error(self):
        with pytest.raises(LintError):
            lint("entropy", rules=["no-such-rule"])

    def test_bad_root_raises_lint_error(self, tmp_path):
        with pytest.raises(LintError):
            run_lint(tmp_path)

    def test_allow_examples_in_strings_are_not_suppressions(self):
        # framework.py's own docstrings show allow() syntax; the tokenizer
        # must not parse those as live suppressions (they would be flagged
        # as stale/unknown by suppression-hygiene on the real tree).
        project = Project.load(REPO_ROOT)
        framework = project.by_module["repro.analysis.framework"]
        assert framework.suppressions == []

    def test_import_graph_type_checking_edges(self):
        project = Project.load(REPO_ROOT)
        graph = ImportGraph.build(project)
        type_only = [e for e in graph.edges if e.type_only]
        assert type_only, "the real tree has TYPE_CHECKING imports"
        assert all(
            graph.find_path(e.importer, [e.target]) is None
            or not all(x.type_only for x in graph.find_path(e.importer, [e.target]))
            for e in type_only[:3]
        )


# ----------------------------------------------------------------------
# Baseline machinery
# ----------------------------------------------------------------------
class TestBaseline:
    def test_baseline_demotes_known_findings(self):
        raw = lint("metrics", use_baseline=False)
        baseline = Baseline(
            fingerprints={
                __import__("repro.analysis.baseline", fromlist=["_fingerprint"])._fingerprint(d): "x"
                for d in raw.diagnostics
                if not d.suppressed
            }
        )
        result = lint("metrics", baseline=baseline)
        assert result.ok
        assert all(d.baselined for d in result.diagnostics if not d.suppressed)

    def test_stale_baseline_entries_fail_the_run(self):
        baseline = Baseline(fingerprints={"deadbeefdeadbeef": "fixed long ago"})
        result = lint("wire_ok", baseline=baseline)
        assert not result.ok
        stale = [d for d in result.diagnostics if d.rule == "baseline-stale"]
        assert len(stale) == 1 and "fixed long ago" in stale[0].message

    def test_write_and_load_roundtrip(self, tmp_path):
        shutil.copytree(FIXTURES / "metrics", tmp_path / "proj")
        root = tmp_path / "proj"
        raw = run_lint(root, use_baseline=False)
        write_baseline(root, [d for d in raw.diagnostics if d.rule != "suppression-hygiene"])
        loaded = load_baseline(root)
        assert loaded.fingerprints and loaded.mypy is None
        assert run_lint(root).ok


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
class TestReporting:
    def test_text_report_has_file_line_diagnostics(self):
        result = lint("locks")
        text = render_text(result)
        assert "src/repro/store/locky.py:12: [lock-discipline]" in text
        assert "finding(s)" in text

    def test_json_report_shape(self):
        result = lint("excepts")
        doc = json.loads(render_json(result))
        assert doc["ok"] is False
        assert doc["counts"]["active"] == 2
        flagged = [d for d in doc["diagnostics"] if not d.get("suppressed")]
        assert all({"rule", "path", "line", "message"} <= set(d) for d in flagged)
        assert all(d["justification"] for d in doc["diagnostics"] if d.get("suppressed"))


# ----------------------------------------------------------------------
# CLI + end-to-end
# ----------------------------------------------------------------------
class TestCli:
    def test_lint_exits_zero_on_the_repo_itself(self, capsys):
        assert cli.main(["lint", "--root", str(REPO_ROOT)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_exits_nonzero_on_fixture_violations(self, capsys):
        assert cli.main(["lint", "--root", str(FIXTURES / "locks")]) == 1
        out = capsys.readouterr().out
        assert "src/repro/store/locky.py:12" in out

    def test_lint_json_flag(self, capsys):
        assert cli.main(["lint", "--json", "--root", str(REPO_ROOT)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["counts"]["active"] == 0

    def test_lint_rule_filter_and_unknown_rule(self, capsys):
        assert cli.main(["lint", "--root", str(REPO_ROOT), "--rule", "lock-discipline"]) == 0
        assert cli.main(["lint", "--root", str(REPO_ROOT), "--rule", "bogus"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_fix_baseline_then_clean(self, tmp_path, capsys):
        shutil.copytree(FIXTURES / "excepts", tmp_path / "proj")
        root = str(tmp_path / "proj")
        assert cli.main(["lint", "--root", root]) == 1
        capsys.readouterr()
        assert cli.main(["lint", "--root", root, "--fix-baseline"]) == 0
        assert "baseline rewritten" in capsys.readouterr().out
        assert cli.main(["lint", "--root", root]) == 0

    def test_console_script_end_to_end(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--root", str(REPO_ROOT)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_every_error_code_has_an_exit_row(self):
        from repro.api.auth import ErrorCode

        for member in ErrorCode:
            assert member.value in cli.ERROR_CODE_EXITS, member
