"""The invariant linter: rule framework, fixture corpus, CLI contract.

The fixture corpus under ``fixtures/`` is the executable specification of
every rule: ``good/`` must lint clean as a whole, and each ``bad/``
module must fire exactly its rule, at known lines.  The meta-test at the
bottom keeps the corpus honest — a rule nobody can demonstrate a
violation of is a rule that silently checks nothing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools import (
    Diagnostic,
    format_json,
    format_text,
    registered_rules,
    run_lint,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOOD = FIXTURES / "good"
BAD = FIXTURES / "bad"
REPO_ROOT = Path(__file__).resolve().parents[2]

ALL_RULE_IDS = (
    "REP001",
    "REP002",
    "REP003",
    "REP004",
    "REP005",
    "REP006",
    "REP007",
    "REP008",
)


def rules_fired(diagnostics):
    return {diagnostic.rule for diagnostic in diagnostics}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_registry_is_complete_sorted_and_documented():
    rules = registered_rules()
    assert [rule.rule_id for rule in rules] == list(ALL_RULE_IDS)
    for rule in rules:
        assert rule.title, rule.rule_id
        assert rule.contract, rule.rule_id
        assert rule.__doc__, rule.rule_id


# ---------------------------------------------------------------------------
# Known-good corpus
# ---------------------------------------------------------------------------


def test_good_corpus_is_clean():
    assert run_lint([str(GOOD)]) == []


def test_real_source_tree_is_clean():
    diagnostics = run_lint([str(REPO_ROOT / "src")])
    assert diagnostics == [], format_text(diagnostics)


# ---------------------------------------------------------------------------
# Known-bad corpus: each module fires exactly its rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fixture, rule_id, count",
    [
        ("rng_bad.py", "REP001", 4),
        ("wallclock_bad.py", "REP002", 2),
        ("provenance_bad.py", "REP003", 5),
        ("layout_bad.py", "REP004", 2),
        ("io_bad.py", "REP005", 4),
        ("core/pipeline.py", "REP006", 4),
        ("defaults_bad.py", "REP007", 4),
        ("simulation/rng.py", "REP008", 4),
    ],
)
def test_bad_fixture_fires_only_its_rule(fixture, rule_id, count):
    diagnostics = run_lint([str(BAD / fixture)])
    assert rules_fired(diagnostics) == {rule_id}, format_text(diagnostics)
    assert len(diagnostics) == count, format_text(diagnostics)


def test_rep001_flags_exact_lines():
    diagnostics = run_lint([str(BAD / "rng_bad.py")])
    assert [(d.rule, d.line) for d in diagnostics] == [
        ("REP001", 10),
        ("REP001", 11),
        ("REP001", 12),
        ("REP001", 13),
    ]
    assert "ambient global generator" in diagnostics[0].message
    assert "SeedSequence" in diagnostics[1].message


def test_rep002_flags_exact_lines():
    diagnostics = run_lint([str(BAD / "wallclock_bad.py")])
    assert [(d.line, d.rule) for d in diagnostics] == [
        (8, "REP002"),
        (9, "REP002"),
    ]
    assert "time.time" in diagnostics[0].message
    assert "datetime.date.today" in diagnostics[1].message


def test_rep003_names_every_provenance_hole():
    messages = [d.message for d in run_lint([str(BAD / "provenance_bad.py")])]
    assert any("SimulationConfig.new_knob" in m for m in messages)
    assert any("result_row_to_dict" in m and "rounds" in m for m in messages)
    assert any("result_row_from_dict" in m and "rounds" in m for m in messages)
    assert any("reproduce_row never consumes" in m for m in messages)
    assert any("'ghost_param'" in m for m in messages)


def test_rep003_fires_when_config_grows_uncovered_field(tmp_path):
    """The acceptance scenario: add a SimulationConfig field, cover it
    nowhere — REP003 must fail the tree until the field is serialized or
    declared non-provenance."""
    source = (GOOD / "provenance_good.py").read_text(encoding="utf-8")
    grown = source.replace(
        'attacker: object = None',
        'attacker: object = None\n    brand_new_knob: float = 0.5',
    )
    assert grown != source
    target = tmp_path / "provenance_grown.py"
    target.write_text(grown, encoding="utf-8")
    diagnostics = run_lint([str(target)])
    assert rules_fired(diagnostics) == {"REP003"}
    assert any("brand_new_knob" in d.message for d in diagnostics)

    # Declaring it non-provenance clears the rule again.
    declared = grown.replace(
        'NON_PROVENANCE_CONFIG_FIELDS = ("attacker",)',
        'NON_PROVENANCE_CONFIG_FIELDS = ("attacker", "brand_new_knob")',
    )
    target.write_text(declared, encoding="utf-8")
    assert run_lint([str(target)]) == []


def test_rep004_reports_renumbered_stream_and_reordered_tail():
    diagnostics = run_lint([str(BAD / "layout_bad.py")])
    assert [(d.rule, d.line) for d in diagnostics] == [
        ("REP004", 4),
        ("REP004", 11),
    ]
    assert "TRAINED_STREAM = 52" in diagnostics[0].message
    assert "frozen suffix" in diagnostics[1].message


def test_rep005_flags_write_mode_seek_and_truncate():
    diagnostics = run_lint([str(BAD / "io_bad.py")])
    assert [(d.rule, d.line) for d in diagnostics] == [
        ("REP005", 5),
        ("REP005", 10),
        ("REP005", 11),
        ("REP005", 12),
    ]
    assert "'w'" in diagnostics[0].message
    assert ".seek()" in diagnostics[2].message
    assert ".truncate()" in diagnostics[3].message


def test_rep006_scopes_to_kernel_paths_only(tmp_path):
    """The same side-effecting source is a violation under a kernel path
    and clean under any other name — path-suffix scoping."""
    source = (BAD / "core" / "pipeline.py").read_text(encoding="utf-8")
    elsewhere = tmp_path / "helpers.py"
    elsewhere.write_text(source, encoding="utf-8")
    assert "REP006" not in rules_fired(run_lint([str(elsewhere)]))

    mirrored = tmp_path / "core" / "pipeline.py"
    mirrored.parent.mkdir()
    mirrored.write_text(source, encoding="utf-8")
    assert "REP006" in rules_fired(run_lint([str(mirrored)]))


def test_rep008_flags_module_state_writes_from_functions():
    diagnostics = run_lint([str(BAD / "simulation" / "rng.py")])
    assert [(d.rule, d.line) for d in diagnostics] == [
        ("REP008", 15),
        ("REP008", 17),
        ("REP008", 22),
        ("REP008", 24),
    ]
    assert "_SCRATCH.clear()" in diagnostics[0].message
    assert "subscript store" in diagnostics[1].message
    assert "global rebinding of _CALLS" in diagnostics[2].message
    assert "_SEEN.append()" in diagnostics[3].message


def test_rep008_scopes_to_hot_path_modules_only(tmp_path):
    source = (BAD / "simulation" / "rng.py").read_text(encoding="utf-8")
    elsewhere = tmp_path / "service" / "cache.py"
    elsewhere.parent.mkdir()
    elsewhere.write_text(source, encoding="utf-8")
    assert run_lint([str(elsewhere)]) == []

    for module in ("engine.py", "batch.py", "population.py"):
        mirrored = tmp_path / "simulation" / module
        mirrored.parent.mkdir(exist_ok=True)
        mirrored.write_text(source, encoding="utf-8")
        assert rules_fired(run_lint([str(mirrored)])) == {"REP008"}


def test_rep008_suppression_needs_the_rule_id(tmp_path):
    source = (
        "_POOL = None\n"
        "def replace(pool):\n"
        "    # repro-lint: allow REP008 — rebound only under a lock\n"
        "    global _POOL\n"
        "    _POOL = pool\n"
    )
    target = tmp_path / "simulation" / "engine.py"
    target.parent.mkdir()
    target.write_text(source, encoding="utf-8")
    assert run_lint([str(target)]) == []
    target.write_text(source.replace("REP008", "REP007"), encoding="utf-8")
    assert rules_fired(run_lint([str(target)])) == {"REP008"}


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


def test_inline_allow_comment_suppresses_named_rule(tmp_path):
    target = tmp_path / "suppressed.py"
    target.write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng()"
        "  # repro-lint: allow REP001 — demo exemption\n",
        encoding="utf-8",
    )
    assert run_lint([str(target)]) == []


def test_standalone_allow_comment_covers_next_line(tmp_path):
    target = tmp_path / "suppressed.py"
    target.write_text(
        "import numpy as np\n"
        "# repro-lint: allow REP001 — demo exemption\n"
        "rng = np.random.default_rng()\n",
        encoding="utf-8",
    )
    assert run_lint([str(target)]) == []


def test_allow_comment_for_other_rule_does_not_suppress(tmp_path):
    target = tmp_path / "suppressed.py"
    target.write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng()  # repro-lint: allow REP002 — wrong id\n",
        encoding="utf-8",
    )
    assert rules_fired(run_lint([str(target)])) == {"REP001"}


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------


def test_json_payload_shape():
    diagnostics = run_lint([str(BAD / "rng_bad.py")])
    payload = json.loads(format_json(diagnostics))
    assert set(payload) == {"tool", "count", "diagnostics"}
    assert payload["tool"] == "repro.devtools"
    assert payload["count"] == len(diagnostics) == len(payload["diagnostics"])
    for entry in payload["diagnostics"]:
        assert set(entry) == {"rule", "path", "line", "col", "message"}
        assert entry["rule"] == "REP001"
        assert entry["path"].endswith("rng_bad.py")
        assert isinstance(entry["line"], int) and entry["line"] > 0


def test_text_format_is_stable():
    clean = format_text([])
    assert clean == "repro-lint: clean"
    rendered = format_text(
        [Diagnostic(rule="REP001", path="a.py", line=3, col=4, message="boom")]
    )
    assert rendered.splitlines() == [
        "a.py:3:4: REP001 boom",
        "repro-lint: 1 violation(s)",
    ]


# ---------------------------------------------------------------------------
# Meta: the corpus proves every rule can fire
# ---------------------------------------------------------------------------


def test_every_registered_rule_fires_on_the_bad_corpus():
    fired = rules_fired(run_lint([str(BAD)]))
    missing = {rule.rule_id for rule in registered_rules()} - fired
    assert not missing, f"rules with no failing fixture: {sorted(missing)}"


def test_every_rule_has_a_good_and_bad_fixture_file():
    good_names = {path.name for path in GOOD.rglob("*.py")}
    bad_names = {path.name for path in BAD.rglob("*.py")}
    assert {"rng_good.py", "wallclock_good.py", "provenance_good.py",
            "layout_good.py", "io_good.py", "pipeline.py",
            "defaults_good.py", "rng.py"} <= good_names
    assert {"rng_bad.py", "wallclock_bad.py", "provenance_bad.py",
            "layout_bad.py", "io_bad.py", "pipeline.py",
            "defaults_bad.py", "rng.py"} <= bad_names


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(*args):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.devtools", *args],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env=env,
    )


def test_cli_exit_zero_on_clean_tree():
    result = run_cli("lint", str(GOOD))
    assert result.returncode == 0, result.stdout + result.stderr
    assert "repro-lint: clean" in result.stdout


def test_cli_exit_one_with_json_on_violations():
    result = run_cli("lint", str(BAD / "rng_bad.py"), "--format", "json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["count"] == 4
    assert all(d["rule"] == "REP001" for d in payload["diagnostics"])


def test_cli_rule_selection_and_unknown_rule():
    only_io = run_cli(
        "lint", str(BAD), "--rules", "REP005", "--format", "json"
    )
    assert only_io.returncode == 1
    payload = json.loads(only_io.stdout)
    assert {d["rule"] for d in payload["diagnostics"]} == {"REP005"}

    unknown = run_cli("lint", str(BAD), "--rules", "REP999")
    assert unknown.returncode == 2
    assert "unknown rule" in unknown.stderr


def test_cli_rules_listing():
    result = run_cli("rules")
    assert result.returncode == 0
    for rule_id in ALL_RULE_IDS:
        assert rule_id in result.stdout


def test_cli_missing_target_is_usage_error(tmp_path):
    result = run_cli("lint", str(tmp_path / "nope.txt"))
    assert result.returncode == 2
