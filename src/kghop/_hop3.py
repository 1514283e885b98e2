"""Build, load and call the compiled hop-3 kernel, `_hop3.c`.

load() compiles it once, under a timeout and via a renamed temporary file, into
`__pycache__/_hop3-<hash>.so`, or a temporary directory if that is not writable.
With no compiler, or when the build or load fails, it returns None and the
scorer runs its numpy kernel, the bit-for-bit reference.
"""

import ctypes
import functools
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_hop3.c")
# No -march=native, so the build and every score's bits stay portable.
FLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")


def compiler() -> list[str] | None:
    """sysconfig's CC as an argv, or None when it names no program on PATH."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    return cc if cc and shutil.which(cc[0]) else None


def _build(command: list[str]) -> Path:
    key = hashlib.sha256(SOURCE.read_bytes() + " ".join(command).encode()).hexdigest()[:16]
    target = SOURCE.parent / "__pycache__" / f"_hop3-{key}.so"
    if target.exists():
        return target
    try:
        target.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    except OSError:
        target = Path(tempfile.mkdtemp(prefix="kghop-")) / target.name
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([*command, "-o", tmp, str(SOURCE)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, target)
    finally:
        Path(tmp).unlink(missing_ok=True)
    return target


@functools.cache
def load():
    """The kernel as a ctypes function, or None when it cannot be built or loaded."""
    cc = compiler()
    if cc is None:
        return None
    try:
        fn = ctypes.CDLL(str(_build([*cc, *FLAGS]))).hop3_topk
    except (OSError, subprocess.SubprocessError):
        return None
    p, i = ctypes.c_void_p, ctypes.c_int64
    fn.argtypes, fn.restype = [p, p, i, p, i, i, ctypes.c_double, i, p, p], None
    return fn


def block_topk(fn, emb_t: np.ndarray, found: np.ndarray, comps: np.ndarray, gamma: float, kk: int):
    """(local indices, scores), each (rows, kk): every composite's top kk = min(k, n) of a block."""
    (rows, dim), n = comps.shape, len(found)
    if emb_t.shape != (dim, n) or not 0 <= kk <= n:
        raise ValueError(f"block {emb_t.shape}, {n} flags, {comps.shape} composites, kk={kk}")
    emb_t, comps = (np.ascontiguousarray(a, dtype=np.float64) for a in (emb_t, comps))
    found = np.ascontiguousarray(found, dtype=np.bool_)
    idx, scores = np.empty((rows, kk), dtype=np.int64), np.empty((rows, kk))
    fn(emb_t.ctypes.data, found.ctypes.data, n, comps.ctypes.data, rows, dim,
       gamma, kk, idx.ctypes.data, scores.ctypes.data)
    return idx, scores
