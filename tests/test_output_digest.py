"""tools/output_digest.py digests the command line's output on the fan
files of tests/data and on the parser's usage lines, and every byte of it."""

import importlib.util
import pathlib

from certkit import certify_cli, toric

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def test_data_fan_files_are_the_fan_files():
    names = {p.name for p in (ROOT / "tests" / "data").glob("*.json")}
    names -= {"conic_witnesses.json", "report_all_seed0.json"}
    assert tool.data_fan_files() == sorted(f"tests/data/{n}" for n in names)


def test_data_digest_is_stable_and_sees_a_changed_verdict(monkeypatch):
    first = tool.data_digest()
    assert len(first) == 64 and tool.data_digest() == first
    monkeypatch.setattr(toric, "fan_is_complete", lambda fan: not fan._complete)
    assert tool.data_digest() != first


def test_data_digest_sees_a_changed_fibration_covector(monkeypatch):
    first = tool.data_digest()
    monkeypatch.setattr(toric, "fibration_to_p1", lambda fan: None)
    assert tool.data_digest() != first


def test_usage_digest_sees_a_changed_usage_message(monkeypatch):
    first = tool.usage_digest()
    assert len(first) == 64 and tool.usage_digest() == first
    _, leaves = certify_cli._build_parser()
    monkeypatch.setattr(leaves[("fan", "check")], "usage", "certify fan check FILE")
    assert tool.usage_digest() != first
