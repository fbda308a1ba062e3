import sys
import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

# hypothesis caches what it reads from local modules (constants, unicode
# tables) under its home directory, ./.hypothesis by default, and its pytest
# plugin does so while collecting, before any fixture runs.  A temporary
# home made at configure time keeps the working tree clean.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-home-")


def pytest_configure(config):
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()
