"""Minimal in-tree PEP 517/660 build backend.

The reference environment for this project is offline and has no
``wheel`` package, which breaks setuptools' editable-wheel path.  Wheels
are just zip files, so this backend writes them directly with the
standard library only (``build-system.requires = []`` in
pyproject.toml) — ``pip install -e .`` works with no network and no
build dependencies.

* ``build_editable`` — a wheel containing a ``.pth`` file pointing at
  ``src/`` (the classic editable layout).
* ``build_wheel`` — a regular wheel with ``src/repro`` copied in.
* ``build_sdist`` — a tarball of the repository sources.
"""

from __future__ import annotations

import base64
import hashlib
import os
import tarfile
import zipfile

NAME = "repro"
VERSION = "1.0.0"
_DIST = f"{NAME}-{VERSION}"
_TAG = "py3-none-any"
_ROOT = os.path.abspath(os.path.dirname(__file__))

# Mirrors [project] in pyproject.toml; keep the two in step.
_METADATA = "\n".join(
    [
        "Metadata-Version: 2.1",
        f"Name: {NAME}",
        f"Version: {VERSION}",
        "Summary: Deletion propagation for multiple key-preserving "
        "conjunctive queries (ICDE 2019 reproduction)",
        "Requires-Python: >=3.10",
        "Requires-Dist: numpy",
        "Requires-Dist: scipy>=1.9",
        "Requires-Dist: networkx",
        'Requires-Dist: pytest ; extra == "dev"',
        'Requires-Dist: pytest-benchmark ; extra == "dev"',
        'Requires-Dist: hypothesis ; extra == "dev"',
        "Provides-Extra: dev",
        "",
    ]
)

_WHEEL = "\n".join(
    [
        "Wheel-Version: 1.0",
        "Generator: repro-inline-backend",
        "Root-Is-Purelib: true",
        f"Tag: {_TAG}",
        "",
    ]
)


def _record_entry(arcname: str, data: bytes) -> str:
    digest = base64.urlsafe_b64encode(
        hashlib.sha256(data).digest()
    ).rstrip(b"=")
    return f"{arcname},sha256={digest.decode()},{len(data)}"


def _write_wheel(path: str, files: dict[str, bytes]) -> None:
    record_name = f"{_DIST}.dist-info/RECORD"
    records = [_record_entry(arc, data) for arc, data in files.items()]
    records.append(f"{record_name},,")
    payload = dict(files)
    payload[record_name] = ("\n".join(records) + "\n").encode()
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for arcname, data in payload.items():
            archive.writestr(arcname, data)


def _dist_info(files: dict[str, bytes]) -> None:
    files[f"{_DIST}.dist-info/METADATA"] = _METADATA.encode()
    files[f"{_DIST}.dist-info/WHEEL"] = _WHEEL.encode()


# ----------------------------------------------------------------------
# PEP 517 hooks
# ----------------------------------------------------------------------


def get_requires_for_build_wheel(config_settings=None):
    return []


def get_requires_for_build_editable(config_settings=None):
    return []


def get_requires_for_build_sdist(config_settings=None):
    return []


def build_wheel(
    wheel_directory, config_settings=None, metadata_directory=None
):
    files: dict[str, bytes] = {}
    package_root = os.path.join(_ROOT, "src")
    for directory, _, names in sorted(os.walk(os.path.join(package_root, NAME))):
        for name in sorted(names):
            if name.endswith(".pyc") or "__pycache__" in directory:
                continue
            full = os.path.join(directory, name)
            arcname = os.path.relpath(full, package_root).replace(os.sep, "/")
            with open(full, "rb") as handle:
                files[arcname] = handle.read()
    _dist_info(files)
    filename = f"{_DIST}-{_TAG}.whl"
    _write_wheel(os.path.join(wheel_directory, filename), files)
    return filename


def build_editable(
    wheel_directory, config_settings=None, metadata_directory=None
):
    files: dict[str, bytes] = {
        f"{NAME}.pth": (os.path.join(_ROOT, "src") + "\n").encode()
    }
    _dist_info(files)
    filename = f"{_DIST}-{_TAG}.whl"
    _write_wheel(os.path.join(wheel_directory, filename), files)
    return filename


def build_sdist(sdist_directory, config_settings=None):
    filename = f"{_DIST}.tar.gz"
    keep = ("src", "tests", "benchmarks", "examples", "docs")
    top_files = (
        "pyproject.toml",
        "setup.py",
        "_repro_build.py",
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
    )
    with tarfile.open(os.path.join(sdist_directory, filename), "w:gz") as tar:
        for entry in top_files:
            full = os.path.join(_ROOT, entry)
            if os.path.exists(full):
                tar.add(full, arcname=f"{_DIST}/{entry}")
        for entry in keep:
            full = os.path.join(_ROOT, entry)
            if os.path.isdir(full):
                tar.add(
                    full,
                    arcname=f"{_DIST}/{entry}",
                    filter=lambda info: None
                    if "__pycache__" in info.name
                    else info,
                )
    return filename
