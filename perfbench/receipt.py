"""The provenance receipt: one ``build_receipt.json`` per benchmark result.

It records what produced the numbers — source revision, machine, toolchain,
kernel backend, seed and workload sizes — so a result can be compared only
with results of the same kind.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

#: Every field a receipt carries.
FIELDS = ("workload", "seed", "seconds", "trace", "sizes", "git_rev",
          "source_sha256", "machine", "nproc", "python", "numpy",
          "kernel_backend")


def _git_rev(root: Path) -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = done.stdout.strip()
    return rev if done.returncode == 0 and rev else "unknown"


def source_sha256(root: Path) -> str:
    """Digest of every file under ``src/repro``, in path order.

    It identifies the code even where the checkout carries no git history.
    """
    digest = hashlib.sha256()
    source = root / "src" / "repro"
    for path in sorted(source.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(source)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def build_receipt(root: Path, workload: str, seed: int, seconds: int,
                  trace: int, sizes: dict) -> dict:
    """The receipt for one run of *workload* from the checkout at *root*."""
    import numpy

    from repro.batch.compiled import kernel_backend
    from repro.cpd.hunt import machine_fingerprint

    nproc = os.cpu_count()
    machine = machine_fingerprint({
        "machine_info": {"node": platform.node(),
                         "machine": platform.machine(),
                         "processor": platform.processor(),
                         "cpu": _cpu_model()},
        "cpu_count": nproc})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
        "git_rev": _git_rev(root),
        "source_sha256": source_sha256(root),
        "machine": machine,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernel_backend(),
    }


def write_receipt(receipt: dict, directory: Path) -> Path:
    path = directory / "build_receipt.json"
    path.write_text(json.dumps(receipt, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
