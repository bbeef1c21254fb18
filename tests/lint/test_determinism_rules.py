"""Fixture-based self-tests for the determinism rule family.

Every rule must (a) fire on exactly the marked lines of its bad
fixture, (b) stay silent on the good fixture, and (c) be silenceable
with an inline ``# repro: allow[rule-id]`` marker.
"""

from __future__ import annotations

import pytest

from repro.lint import lint_project
from repro.lint.rules import SCOPE_PATHS

from tests.lint.conftest import FIXTURES, expected_findings, lint_fixture

DET_RULES = (
    "det-unseeded-random",
    "det-wallclock",
    "det-unsorted-iter",
    "det-unsorted-glob",
    "det-id-key",
    "det-nonatomic-publish",
)


def _fixture(rule: str, kind: str):
    return FIXTURES / f"{rule.replace('-', '_')}_{kind}.py"


@pytest.mark.parametrize("rule", DET_RULES)
class TestDeterminismRules:
    def test_fires_on_every_marked_line_of_the_bad_fixture(self, rule):
        path = _fixture(rule, "bad")
        expected = expected_findings(path)
        assert expected, f"{path.name} declares no expected findings"
        report = lint_fixture(path)
        got = {(f.line, f.rule) for f in report.findings if f.rule == rule}
        assert got == expected

    def test_silent_on_the_good_fixture(self, rule):
        report = lint_fixture(_fixture(rule, "good"))
        assert [f for f in report.findings if f.rule == rule] == []

    def test_inline_suppression_silences_every_finding(self, rule, tmp_path):
        path = _fixture(rule, "bad")
        lines = path.read_text(encoding="utf-8").splitlines()
        before = lint_fixture(path)
        hits = [f for f in before.findings if f.rule == rule]
        for finding in hits:
            lines[finding.line - 1] += f"  # repro: allow[{rule}]"
        patched = tmp_path / path.name
        patched.write_text("\n".join(lines) + "\n", encoding="utf-8")
        after = lint_project(tmp_path, paths=[patched])
        assert [f for f in after.findings if f.rule == rule] == []
        assert after.suppressed >= len(hits)


class TestScoping:
    """Determinism rules only apply to digest-feeding modules."""

    def test_unscoped_module_is_exempt(self, tmp_path):
        source = FIXTURES / "det_unseeded_random_bad.py"
        lines = source.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# repro-lint: scope=")
        unscoped = tmp_path / "free.py"
        unscoped.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        report = lint_project(tmp_path, paths=[unscoped])
        assert report.findings == []

    @pytest.mark.parametrize(
        "relpath", ["repro/core/matchers/probe.py", "repro/quantum/probe.py"]
    )
    def test_matchers_and_quantum_simulator_are_in_scope(self, tmp_path, relpath):
        source = FIXTURES / "det_unseeded_random_bad.py"
        lines = source.read_text(encoding="utf-8").splitlines()
        target = tmp_path / relpath
        target.parent.mkdir(parents=True)
        target.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        report = lint_project(tmp_path, paths=[target])
        assert {f.rule for f in report.findings} == {"det-unseeded-random"}

    def test_the_real_digest_modules_are_in_scope(self):
        for suffix in SCOPE_PATHS["determinism"]:
            assert suffix.startswith("repro/")
        assert "repro/service/fingerprint.py" in SCOPE_PATHS["determinism"]
        assert "repro/service/serialize.py" in SCOPE_PATHS["determinism"]
