"""tier1.yml and tests/ci_checks.py: the same checks, the CLI's defaults, one harness."""

import re
import time
from pathlib import Path

import ci_checks
from ewcast.cli import DEFAULT_SC_CONFIG, DEFAULT_SFN_CONFIG
from same_outputs import SC, SFN

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_workflow_calls_each_check_the_script_defines():
    calls = re.findall(r'tests/ci_checks\.py"?\s+([\w-]+)', WORKFLOW.read_text())
    assert calls and sorted(set(calls)) == sorted(ci_checks.CHECKS)


def test_scenario_literals_are_the_cli_defaults():
    # the smoke step's sfn.json is the SFN default, five.json and six.json the SC default
    # with another stream, and the 10^5- and 10^6-user maps the SFN default's area
    assert SC == DEFAULT_SC_CONFIG and SFN == DEFAULT_SFN_CONFIG


def test_harness_reports_the_child_and_kills_it_at_its_timeout(capsys):
    code, _, out = ci_checks.python("-c", "print('hi'); raise SystemExit(3)", timeout=60)
    assert (code, out) == (3, "hi\n")
    # the child's peak, which Linux floors at the spawning process's RSS: 10^8 bytes written
    assert ci_checks.python("-c", "x = b'x' * 10**8", timeout=60)[1] > 95
    start = time.perf_counter()
    assert ci_checks.python("-c", "import time; time.sleep(60)", timeout=0.2)[0] == -9
    assert time.perf_counter() - start < 30
    assert "hi\nexit=3 wall=" in capsys.readouterr().out
