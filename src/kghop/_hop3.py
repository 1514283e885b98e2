"""Build, load and call the compiled hop-3 leaf-bound sweep and kd-tree order, `_hop3.c`.

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
# Members per kd-tree leaf. The paper-scale hop-3 sweep (one worker, 30
# queries x 3 rounds with the sizes interleaved, 2-core x86 VM) took a
# median 10.76 / 9.68 / 10.16 ms with leaves of 16 / 32 / 64 members on
# generator seed 1, and 10.70 / 10.51 / 10.75 ms on seed 2.
LEAF = 32


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
    """The kernel library, or None when it cannot be built or loaded."""
    cc = compiler()
    if cc is None:
        return None
    try:
        lib = ctypes.CDLL(str(_build([*cc, *FLAGS])))
    except (OSError, subprocess.SubprocessError):
        return None
    p, i = ctypes.c_void_p, ctypes.c_int64
    lib.leaf_topk.argtypes = [p, p, p, i, i, p, p, i, i, p, i, i, ctypes.c_double, i, p, p]
    lib.leaf_topk.restype = i
    lib.kd_order.argtypes = [p, i, p, i, i, p]
    lib.kd_order.restype = i
    return lib


def kd_order(lib, matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The kd-tree leaf order of the members whose embeddings are rows `rows` of matrix.

    Leaves hold LEAF members, all but the last full. Element i of the
    result is the index into rows of the member at position i.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if matrix.ndim != 2 or not matrix.shape[1] or rows.ndim != 1 or (
            len(rows) and not 0 <= rows.min() <= rows.max() < len(matrix)):
        raise ValueError(f"rows {rows.shape} of a {matrix.shape} matrix")
    perm = np.empty(len(rows), dtype=np.int64)
    if lib.kd_order(matrix.ctypes.data, matrix.shape[1], rows.ctypes.data, len(rows), LEAF,
                    perm.ctypes.data) < 0:
        raise MemoryError("kd-tree order scratch")
    return perm


def leaf_topk(lib, layout, comps: np.ndarray, gamma: float, k: int, first: int = 0, step: int = 1):
    """(positions, scores, pruned) of one worker's leaves first, first + step, ... of a layout.

    positions and scores are (rows, kk), kk = min(k, members of those
    leaves): every composite's best kk by (score desc, id asc), as
    positions into the layout. pruned counts the (member, composite)
    pairs the leaf bound skipped.
    """
    (rows, dim), n = comps.shape, len(layout.ids)
    leaves = -(-n // LEAF)
    if (layout.emb.shape != (dim, n) or len(layout.found) != n
            or layout.lo.shape != (leaves, dim) or layout.hi.shape != (leaves, dim)
            or not 0 <= first < step):
        raise ValueError(f"layout block {layout.emb.shape} of {n} ids and {leaves} leaves, "
                         f"{comps.shape} composites, leaves {first}::{step}")
    mine = range(first, leaves, step)
    kk = min(k, LEAF * len(mine) - (LEAF * leaves - n if leaves - 1 in mine else 0))
    comps = np.ascontiguousarray(comps, dtype=np.float64)
    pos, scores = np.empty((rows, kk), dtype=np.int64), np.empty((rows, kk))
    pruned = lib.leaf_topk(layout.emb.ctypes.data, layout.found.ctypes.data,
                           layout.ids.ctypes.data, n, LEAF, layout.lo.ctypes.data,
                           layout.hi.ctypes.data, first, step, comps.ctypes.data, rows, dim,
                           gamma, kk, pos.ctypes.data, scores.ctypes.data)
    if pruned < 0:
        raise MemoryError("hop-3 kernel scratch")
    return pos, scores, pruned
