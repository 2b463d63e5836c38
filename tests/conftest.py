import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, label): acceptance criterion; prints one pass/fail line",
    )


@pytest.fixture
def row_reads(monkeypatch):
    """Sources of the `Tree.distances_from` calls made during the test, in
    order; clear it to start counting later."""
    from alignedchains.trees import Tree

    reads = []
    real = Tree.distances_from

    def spy(tree, source):
        reads.append(source)
        return real(tree, source)

    monkeypatch.setattr(Tree, "distances_from", spy)
    return reads


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None or report.when != "call":
        return
    num, label = marker.args
    status = "PASS" if report.passed else "FAIL"
    line = f"criterion {num}: {status} - {label}"
    reporter = item.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(line)
    else:
        print(line)
