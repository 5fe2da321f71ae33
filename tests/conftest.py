import re
import tracemalloc

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


@pytest.fixture
def traced_peak():
    """traced_peak(op, warm_up=None): the tracemalloc peak, in bytes, of one
    call of op, after one untraced call of warm_up (op itself when None)
    has made the imports and filled the caches that the peak should not
    count. Pass warm_up=False to trace op's first call. Tracing stops even
    when op raises."""
    def peak(op, warm_up=None):
        if warm_up is not False:
            (warm_up or op)()
        tracemalloc.start()
        try:
            op()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture
def traced_held():
    """traced_held(op, warm_up=None): (result, held) for one call of op,
    held the tracemalloc current, in bytes, just after it returns: what
    its result and whatever it cached still hold. warm_up is as for
    traced_peak. Tracing stops even when op raises."""
    def held(op, warm_up=None):
        if warm_up is not False:
            (warm_up or op)()
        tracemalloc.start()
        try:
            result = op()
            return result, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return held


@pytest.fixture(autouse=True)
def _tracemalloc_stopped():
    """Fail any test that leaves tracemalloc tracing: every later test's
    allocations would be traced, and its memory bounds read too high."""
    tracing = tracemalloc.is_tracing()
    yield
    if tracemalloc.is_tracing() and not tracing:
        tracemalloc.stop()
        pytest.fail("the test left tracemalloc tracing")
