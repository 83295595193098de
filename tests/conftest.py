import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from wiretaplab.anti_latin import compatibility_graph, enumerate_anti_latin


@pytest.fixture(scope="session")
def d3_catalog():
    return enumerate_anti_latin(3)


@pytest.fixture(scope="session")
def d3_decodable_adj(d3_catalog):
    return compatibility_graph(d3_catalog, 3, "decodable")


@pytest.fixture(scope="session")
def d3_one_to_one_adj(d3_catalog):
    return compatibility_graph(d3_catalog, 3, "one-to-one")


def pytest_configure(config):
    # hypothesis caches the constants it mines from local source files in
    # its home directory (./.hypothesis by default) even with no example
    # database, already while collecting; keep it in a directory that is
    # removed when the run ends
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    config.add_cleanup(lambda: set_hypothesis_home_dir(None))
    set_hypothesis_home_dir(home.name)
