"""Host fingerprint carried by every result.

Two runs are comparable only when their fingerprints are equal: the
same core count, interpreter, C compiler, FFI binding, numpy, simulator
engine version, toolchain digest and commit.
"""

from __future__ import annotations

import os
import platform
import subprocess

from perfbench.common import ROOT, cpu_budget


def _first_line(cmd: list[str]) -> str:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                             cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unavailable"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _ffi_binding() -> str:
    forced = os.environ.get("REPRO_NATIVE_FFI", "").strip().lower()
    if forced:
        return forced
    try:
        import cffi  # noqa: F401
    except ImportError:
        return "ctypes"
    return "cffi"


def fingerprint() -> dict:
    """The host/toolchain identity of this run (imports :mod:`repro`)."""
    import numpy

    from repro.pipeline import toolchain_fingerprint
    from repro.sim import SIM_ENGINE_VERSION
    from repro.sim.native import find_compiler

    cc = find_compiler()
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = _first_line(["git", "rev-parse", "HEAD"])
    return {
        "nproc": cpu_budget(),
        "cpu": _cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cc": _first_line([cc, "--version"]) if cc else "none",
        "ffi": _ffi_binding(),
        "numpy": numpy.__version__,
        "sim_engine_version": SIM_ENGINE_VERSION,
        "toolchain": toolchain_fingerprint()[:16],
        "commit": commit,
    }


def mismatches(prints: list[dict]) -> list[str]:
    """Fields on which a set of fingerprints disagree."""
    if not prints:
        return []
    fields = sorted({key for fp in prints for key in fp})
    return [
        key for key in fields
        if len({repr(fp.get(key)) for fp in prints}) > 1
    ]
