"""Environment block written into every results file."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess

import numpy as np

# thread-count getters of the OpenBLAS builds numpy ships or links
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "threads": None}
    # the library numpy loaded, found among this process's own mappings
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "blas" in line.lower()
                     and line.split()[-1].startswith("/")}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                out["threads"] = getter()
                out["library"] = os.path.basename(path)
                return out
    return out


def _git(root: str) -> dict:
    """Commit and dirty flag, or nulls when `root` is not a git checkout of
    its own (a copied tree inside another repository reports nulls too)."""
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(root):
            return {"commit": None, "dirty": None}
        head = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no")
                     .stdout.strip())
        return {"commit": head, "dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


def collect(root: str, seed: int) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {"cpu_model": _cpu_model(), "nproc": affinity,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(),
            "BOWMONAD_THREADS": os.environ.get("BOWMONAD_THREADS"),
            "git": _git(root), "seed": seed}
