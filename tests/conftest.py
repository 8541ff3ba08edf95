import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one verdict line per acceptance criterion after the run.

    The criterion tests print their own PASS lines, but default capture
    hides stdout of passing tests. Replaying the captured lines here puts
    them in the terminal (and in any tee'd log) regardless of outcome.
    With capture off (-s) nothing is captured; a passed test then gets a
    PASS line naming it, and only a failed one reads FAIL.
    """
    reports = []
    for key in ("passed", "failed"):
        reports += [r for r in terminalreporter.stats.get(key, [])
                    if r.when == "call" and "test_acceptance" in r.nodeid]
    if not reports:
        return
    terminalreporter.section("acceptance criteria")
    for rep in sorted(reports, key=lambda r: r.nodeid):
        name = rep.nodeid.rsplit("::", 1)[-1]
        if rep.failed:
            terminalreporter.write_line(f"FAIL {name}")
            continue
        echoed = [ln for ln in rep.capstdout.splitlines()
                  if ln.startswith("PASS criterion")]
        for line in echoed or [f"PASS {name}"]:
            terminalreporter.write_line(line)
