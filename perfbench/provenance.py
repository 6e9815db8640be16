"""What produced a result: source, machine, libraries and seed.

The field names are the ones artifact manifests use: ``git_sha``,
``nproc``, ``python_version``, ``numpy_version``, ``scipy_version``,
``podlab_version``, ``blas_library``, ``blas_threads`` and ``seed``.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

# the scipy-openblas wheels prefix OpenBLAS's symbols; other builds do not
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def _git_sha(root: Path) -> str | None:
    """HEAD of a plain checkout's .git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(src: Path) -> str:
    """Digest of the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (src / "podlab").rglob("*") if p.suffix in (".py", ".json")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_GETTERS:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def collect(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    import podlab

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "python_version": platform.python_version(),
        "numpy_version": numpy.__version__,
        "scipy_version": scipy.__version__,
        "podlab_version": podlab.__version__,
        "blas_library": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
    }
