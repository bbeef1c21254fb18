"""Self-tests for the drift rule family, including deliberate desync.

The ``drift_bad`` fixture tree stages every drift direction at once;
``drift_good`` is the same tree with the contracts in agreement.  The
desync tests then take the *real* ``daemon.py`` and a doctored
``docs/protocol.md`` and prove the rules catch live divergence — the
acceptance scenario for the whole family.
"""

from __future__ import annotations

import shutil

from repro.lint import lint_project

from tests.lint.conftest import FIXTURES, REPO_ROOT


def _drift_findings(root, rule):
    report = lint_project(root)
    return [f for f in report.findings if f.rule == rule]


class TestDriftBadTree:
    def test_protocol_ops_both_directions(self):
        findings = _drift_findings(FIXTURES / "drift_bad", "drift-protocol-ops")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 2
        assert "'flush'" in messages and "does not document" in messages
        assert "'halt'" in messages and "does not handle" in messages
        paths = {f.path for f in findings}
        assert paths == {"src/repro/service/daemon.py", "docs/protocol.md"}

    def test_cache_protocol_ops_both_directions(self):
        findings = _drift_findings(
            FIXTURES / "drift_bad", "drift-cache-protocol-ops"
        )
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 2
        assert "'evict'" in messages and "does not document" in messages
        assert "'purge'" in messages and "does not handle" in messages
        paths = {f.path for f in findings}
        assert paths == {
            "src/repro/cachenet/server.py", "docs/remote-cache.md"
        }

    def test_event_fields_all_three_shapes(self):
        findings = _drift_findings(FIXTURES / "drift_bad", "drift-event-fields")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 3
        # a drifted row, an undocumented event, and a phantom doc row
        assert "TaskDone" in messages and "missing record" in messages
        assert "listing unknown error" in messages
        assert "TaskSkipped is not documented" in messages
        assert "TaskGone" in messages and "no event class" in messages

    def test_config_digest_both_directions(self):
        findings = _drift_findings(FIXTURES / "drift_bad", "drift-config-digest")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 2
        assert "'probe_count'" in messages and "does not mention" in messages
        assert "'max_queries'" in messages and "no such field" in messages

    def test_readme_flags_all_three_shapes(self):
        findings = _drift_findings(FIXTURES / "drift_bad", "drift-readme-flags")
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 3
        assert "--turbo" in messages
        assert "`repro vanish`" in messages
        assert "`repro ghost`" in messages and "never shows" in messages


class TestDriftGoodTree:
    def test_no_drift_findings_at_all(self):
        report = lint_project(FIXTURES / "drift_good")
        assert [f for f in report.findings if f.rule.startswith("drift-")] == []


class TestDeliberateDesyncAgainstRealCode:
    """Doctor the real contracts and prove the rules notice."""

    @staticmethod
    def _stage_server(tmp_path, server, doc):
        """Copy one real server module plus the wire core it builds on."""
        (tmp_path / "src" / "repro" / server).parent.mkdir(parents=True)
        docs = tmp_path / "docs"
        docs.mkdir()
        for module in (server, "wire.py"):
            shutil.copy(
                REPO_ROOT / "src" / "repro" / module,
                tmp_path / "src" / "repro" / module,
            )
        return docs / doc

    def _stage(self, tmp_path):
        return self._stage_server(tmp_path, "service/daemon.py", "protocol.md")

    def test_real_daemon_against_doctored_protocol_doc(self, tmp_path):
        doc = self._stage(tmp_path)
        original = (REPO_ROOT / "docs" / "protocol.md").read_text(
            encoding="utf-8"
        )
        # Drop `stats` from the table and document a phantom `reboot`.
        doctored = original.replace(
            "| `stats` |", "| `reboot` |", 1
        )
        assert doctored != original
        doc.write_text(doctored, encoding="utf-8")
        findings = _drift_findings(tmp_path, "drift-protocol-ops")
        messages = "\n".join(f.message for f in findings)
        assert "'stats'" in messages and "does not document" in messages
        assert "'reboot'" in messages and "does not handle" in messages

    def test_core_op_missing_from_the_doc_is_flagged(self, tmp_path):
        # `auth` lives in the wire core's table, not the daemon's own:
        # dropping its row must still surface as an undocumented op.
        doc = self._stage(tmp_path)
        original = (REPO_ROOT / "docs" / "protocol.md").read_text(
            encoding="utf-8"
        )
        doctored = "\n".join(
            line for line in original.splitlines()
            if not line.startswith("| `auth` |")
        )
        assert doctored != original
        doc.write_text(doctored, encoding="utf-8")
        findings = _drift_findings(tmp_path, "drift-protocol-ops")
        assert [(f.path, f.message) for f in findings] == [(
            "src/repro/wire.py",
            "daemon handles op 'auth' but the docs/protocol.md Operations "
            "table does not document it",
        )]

    def test_real_daemon_against_the_real_protocol_doc_is_clean(self, tmp_path):
        doc = self._stage(tmp_path)
        shutil.copy(REPO_ROOT / "docs" / "protocol.md", doc)
        assert _drift_findings(tmp_path, "drift-protocol-ops") == []

    def test_markdown_suppression_silences_a_doc_side_finding(self, tmp_path):
        doc = self._stage(tmp_path)
        original = (REPO_ROOT / "docs" / "protocol.md").read_text(
            encoding="utf-8"
        )
        doctored = original.replace(
            "| `stats` |",
            "<!-- repro: allow[drift-protocol-ops] -->\n| `reboot` |",
            1,
        )
        doc.write_text(doctored, encoding="utf-8")
        findings = _drift_findings(tmp_path, "drift-protocol-ops")
        messages = "\n".join(f.message for f in findings)
        # The doc-side phantom is suppressed; the code-side gap remains.
        assert "'reboot'" not in messages
        assert "'stats'" in messages

    def _stage_cachenet(self, tmp_path):
        return self._stage_server(
            tmp_path, "cachenet/server.py", "remote-cache.md"
        )

    def test_real_cache_server_against_doctored_doc(self, tmp_path):
        doc = self._stage_cachenet(tmp_path)
        original = (REPO_ROOT / "docs" / "remote-cache.md").read_text(
            encoding="utf-8"
        )
        # Drop `stats` from the table and document a phantom `reboot`.
        doctored = original.replace("| `stats` |", "| `reboot` |", 1)
        assert doctored != original
        doc.write_text(doctored, encoding="utf-8")
        findings = _drift_findings(tmp_path, "drift-cache-protocol-ops")
        messages = "\n".join(f.message for f in findings)
        assert "'stats'" in messages and "does not document" in messages
        assert "'reboot'" in messages and "does not handle" in messages

    def test_real_cache_server_against_the_real_doc_is_clean(self, tmp_path):
        doc = self._stage_cachenet(tmp_path)
        shutil.copy(REPO_ROOT / "docs" / "remote-cache.md", doc)
        assert _drift_findings(tmp_path, "drift-cache-protocol-ops") == []

    def test_rules_skip_when_their_module_is_absent(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        module = tmp_path / "src" / "repro" / "other.py"
        module.write_text("VALUE = 1\n", encoding="utf-8")
        report = lint_project(tmp_path)
        assert report.findings == []
