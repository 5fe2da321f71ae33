import re

import pytest

_ACCEPT_RE = re.compile(r"test_acceptance\.py::test_c(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion."""
    results = {}
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            m = _ACCEPT_RE.search(getattr(rep, "nodeid", ""))
            if m is None:
                continue
            num = int(m.group(1))
            label = m.group(2).replace("_", " ")
            ok = key == "passed"
            # a test is a pass only if no phase failed
            if num in results:
                ok = results[num][1] and ok
            results[num] = (label, ok)
    if not results:
        return
    tw = terminalreporter
    tw.write_sep("-", "acceptance criteria")
    for num in sorted(results):
        label, ok = results[num]
        tw.write_line("criterion %2d [%s]: %s" % (num, "PASS" if ok else "FAIL", label))


@pytest.fixture
def spy_calls(monkeypatch):
    """spy_calls(module, name) wraps module.name for the test and returns the
    list of (args, kwargs) of every call."""
    def spy(module, name):
        calls = []
        real = getattr(module, name)

        def wrapper(*args, **kw):
            calls.append((args, kw))
            return real(*args, **kw)

        monkeypatch.setattr(module, name, wrapper)
        return calls
    return spy
