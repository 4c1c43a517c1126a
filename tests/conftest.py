import importlib.util
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=ci makes every property test draw the same examples on
# every run and drops the per-example deadline, whose timing a loaded CI
# runner cannot keep.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def pytest_addoption(parser):
    parser.addoption("--golden-record", metavar="DIR", default=None,
                     help="copy the reports each golden_cli_tree test writes to "
                          "DIR/<test name>/ instead of comparing them with "
                          "tests/golden/manifest.json")


@pytest.fixture(scope="session")
def golden_manifest():
    """The golden manifest, and whether this is the environment it was made in."""
    manifest = golden.load_manifest()
    return manifest, golden.environment() == manifest["environment"]


@pytest.fixture
def golden_cli_tree(request, tmp_path, golden_manifest):
    """After the test, hold the reports it wrote under ``tmp_path`` to the
    manifest's ``test_cli/<test name>/`` entries: by digest in the manifest's
    environment, under the loose comparison in any other."""
    yield
    name = request.node.name
    record = request.config.getoption("golden_record")
    if record:
        for rel, path in golden.report_files(tmp_path).items():
            target = Path(record, name, rel)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, target)
        return
    manifest, same_environment = golden_manifest
    want = golden.under(manifest["files"], "%s/%s" % (golden.CLI_TREES, name))
    if same_environment:
        assert golden.digests(tmp_path) == {n: e["sha256"] for n, e in want.items()}
    else:
        stored = golden.REPORTS / golden.CLI_TREES / name
        assert golden.loose_differences(want, tmp_path, stored) == []


@pytest.fixture
def two_blas_threads():
    """The (get, set) thread-count functions of every OpenBLAS the CLI's
    thread cap finds, each set to two threads for the test, so that a cap and its
    restore show even on one core, and set back after it.  Skips the test
    where no OpenBLAS is found."""
    from pexstab.cli import _openblas_threads
    controls = _openblas_threads()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    assert [get() for get, _ in controls] == [2] * len(controls)
    yield controls
    for (_, set_), count in zip(controls, before):
        set_(count)
