"""Process environment of a benchmark run: thread pinning, warm-up and
the record of what the numbers were measured on.

pin_threads must run before numpy is imported, because OpenBLAS reads
its thread count once, when the library loads.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import platform
import subprocess

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
BLAS_THREADS = 1


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> int:
    """One BLAS thread and KPIST_WORKERS=1; returns the BLAS thread count.

    With two OpenBLAS threads the first products after an idle spell
    (the direct map uses no BLAS) stalled for up to a second on whichever
    query came first, which swamped the short queries."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["KPIST_WORKERS"] = "1"
    return BLAS_THREADS


def warm_up() -> None:
    """Load kpist's third-party dependencies and make the first BLAS and
    FFT calls, before any timing.

    setup_s starts before `import kpist`; with scipy already loaded it
    counts kpist's own import, not the half second of loading
    scipy.interpolate, whose time swung by 50% between runs here."""
    import numpy as np
    import scipy.interpolate  # noqa: F401
    import yaml  # noqa: F401

    a = np.ones((1024, 1024), dtype=complex)
    v = np.ones(1024, dtype=complex)
    for _ in range(5):
        v = a @ v / 1024.0
    a = a @ a
    np.fft.fft2(a)
    np.fft.fft(a, axis=0)


def _blas_info() -> tuple[str, str]:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return str(blas.get("name", "unknown")), str(blas.get("version", ""))
    except (TypeError, KeyError):
        return "unknown", ""


def _git_commit(root: pathlib.Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(src: pathlib.Path) -> str:
    """sha256 over the package sources, so a run outside git still names
    the code it measured."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: pathlib.Path, seed: int, blas_threads: int) -> dict:
    import numpy as np
    import scipy

    vendor, version = _blas_info()
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": usable_cpus(),
        "blas_vendor": vendor,
        "blas_version": version,
        "blas_threads": blas_threads,
        "kpist_workers": os.environ.get("KPIST_WORKERS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "mem_total_mb": round(mem / 2**20),
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src" / "kpist"),
    }
