"""The version is written in two places, and they must agree."""

import re
from pathlib import Path

import faultroute

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def project_version() -> str:
    """``[project].version`` of ``pyproject.toml``."""
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
        return re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE).group(1)
    return tomllib.loads(text)["project"]["version"]


def test_package_version_is_the_project_version():
    assert faultroute.__version__ == project_version()
