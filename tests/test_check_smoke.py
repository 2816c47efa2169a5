"""scripts/check_smoke.py, the pass/fail check on a perfbench smoke run,
fed built outputs of the shape perfbench/run.py prints."""

import json
import runpy
from pathlib import Path

import pytest

SCRIPT = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "check_smoke.py"))


def _workload(name, trace, absent="none", failed=0):
    lines = [f"workload {name}: why it is timed", f"seed 1, 1 s, trace {trace}"]
    if trace:
        lines += ["frontier.sweep_s             0.0003 s"]
        lines += [] if absent is None else [f"absent: {absent}"]
        lines += ["frontier digest sha256 00"]
    else:
        lines += ["latency_p50_s   0.0005 s   p50 of 90 instances"]
    lines.append(json.dumps({"correct": True, "attempted": 90, "failed": failed, "metrics": {}}))
    return lines


def _output(*workloads):
    return "\n".join(line for lines in workloads for line in lines) + "\n"


def _check(text, tmp_path):
    path = tmp_path / "smoke.txt"
    path.write_text(text, encoding="utf-8")
    return SCRIPT["main"]([str(path)])


@pytest.mark.parametrize("trace", [0, 1])
def test_a_clean_run_passes(trace, tmp_path, capsys):
    text = _output(_workload("paper-800", trace), _workload("many-small", trace))
    assert _check(text, tmp_path) == 0
    assert capsys.readouterr().out == f"2 workloads, {2 * trace} traced: every result correct with 0 failed, nothing absent\n"


@pytest.mark.parametrize(
    "second, problem",
    [
        pytest.param(
            _workload("many-small", 1, absent="bounded.fill_s"),
            "many-small: traced run printed ['absent: bounded.fill_s']",
            id="absent-hook",
        ),
        pytest.param(
            _workload("many-small", 1, absent=None),
            "many-small: traced run printed no absent line",
            id="absent-line-removed",
        ),
        pytest.param(
            _workload("many-small", 0, failed=2),
            "many-small: correct True, failed 2",
            id="failed-attempts",
        ),
        pytest.param(
            _workload("many-small", 0)[:-1],
            "many-small: 0 results",
            id="result-missing",
        ),
    ],
)
def test_a_broken_run_fails_naming_the_workload(second, problem, tmp_path, capsys):
    assert _check(_output(_workload("paper-800", 1), second), tmp_path) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", problem + "\n")


def test_an_empty_output_fails():
    assert SCRIPT["smoke_problems"]("") == (0, 0, ["no workload header"])
