"""ctypes bindings over the C hot-stage kernels (the ``cext`` kernels).

The shared library is located in this order:

1. ``REPRO_NATIVE_LIB`` — an explicit library path (test seam / exotic
   deployments).  When set it is authoritative: no further candidates
   are tried.
2. A ``_ckernels*`` artifact next to this module — what ``pip install``
   leaves behind when the optional setuptools extension built (the
   extension is loaded through ctypes, never imported).
3. An on-demand build of ``_kernels.c`` into the user cache directory,
   keyed by a hash of the source and flags so rebuilds only happen when
   the kernels change.  Disabled with ``REPRO_NATIVE_BUILD=0``.

All kernels are compiled with ``-ffp-contract=off`` — fused multiply-adds
would break the bit-exactness contract with the numpy reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.events.containers import EVENT_DTYPE
from repro.fixedpoint.quantize import QuantizationSchema

#: The single C source file of the kernel library.
SOURCE = Path(__file__).with_name("_kernels.c")

#: Flags of the on-demand build.  ``-ffp-contract=off`` is load-bearing
#: (see module docstring); ``-fno-math-errno`` lets the compiler inline
#: ``floor``.
BUILD_FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")

_LIB_SUFFIXES = {".so", ".dylib", ".pyd", ".dll"}


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro-native"


def _find_compiler() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return shutil.which(candidate)
    return None


def build_shared_library() -> Path:
    """Compile ``_kernels.c`` into the user cache and return the path.

    The output name carries a hash of (flags, source), so the cached
    artifact is reused across processes and sessions until the kernels
    change.  Raises ``RuntimeError`` when no compiler is on PATH or the
    build fails (with the compiler's stderr tail).
    """
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError(
            "no C compiler on PATH (set CC or install gcc/clang)"
        )
    source = SOURCE.read_text()
    tag = hashlib.sha256(
        ("\x00".join(BUILD_FLAGS) + "\x00" + source).encode()
    ).hexdigest()[:16]
    out = _cache_dir() / f"repro_kernels_{tag}.so"
    if out.exists():
        return out
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(out.parent), suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *BUILD_FLAGS, "-o", tmp, str(SOURCE), "-lm"],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"kernel build failed ({compiler}): {proc.stderr.strip()[-500:]}"
            )
        os.replace(tmp, out)  # atomic: concurrent builders race safely
        tmp = ""
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)
    return out


def _candidate_libraries() -> list[Path]:
    explicit = os.environ.get("REPRO_NATIVE_LIB")
    if explicit:
        return [Path(explicit)]
    candidates = [
        path
        for path in sorted(Path(__file__).parent.glob("_ckernels*"))
        if path.suffix in _LIB_SUFFIXES
    ]
    if os.environ.get("REPRO_NATIVE_BUILD", "1") != "0":
        candidates.append(build_shared_library())
    return candidates


def load_cext_kernels() -> "CExtensionKernels":
    """Locate (or build) the kernel library and return live bindings.

    Raises when no candidate loads — :mod:`repro.native.provider` turns
    that into an ``unavailable`` status instead of an import error.
    """
    errors: list[str] = []
    for path in _candidate_libraries():
        try:
            return CExtensionKernels(path)
        except OSError as exc:
            errors.append(f"{path}: {exc}")
    raise RuntimeError(
        "no loadable kernel library: "
        + ("; ".join(errors) if errors else "no candidates (REPRO_NATIVE_BUILD=0?)")
    )


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def _c_contiguous(array: np.ndarray, dtype) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=dtype)


class CExtensionKernels:
    """Stateless ctypes bindings over one loaded kernel library.

    One instance is shared by every ``native-batch`` backend in the
    process; all mutable buffers (DSI, counts, scratch) are owned by the
    callers, so concurrent engines (thread pools) are safe.  ctypes
    releases the GIL for the duration of each kernel call.
    """

    #: Kernel-set name (the ``repro info`` status prefix).
    name = "cext"

    def __init__(self, library_path: Path):
        self.origin = str(library_path)
        lib = ctypes.CDLL(str(library_path))
        ll, dbl, ptr = ctypes.c_longlong, ctypes.c_double, ctypes.c_void_p
        lib.eventor_phi_batch.argtypes = [ptr, ptr, ll, ll, dbl, dbl, dbl, dbl, dbl, ptr]
        lib.eventor_phi_batch.restype = ctypes.c_int
        lib.eventor_canonical_q_batch.argtypes = [
            ptr, ll, ll, ll, ll, ll, ptr, dbl, ll, ll, dbl, ll, ll, dbl, dbl, ptr, ptr
        ]
        lib.eventor_canonical_q_batch.restype = ll
        lib.eventor_vote_nearest_batch.argtypes = [ptr, ptr, ptr, ll, ll, ll, ll, ll, ptr]
        lib.eventor_vote_nearest_batch.restype = ll
        for fn in (
            lib.eventor_vote_bilinear_batch_f64,
            lib.eventor_vote_bilinear_batch_i64,
        ):
            fn.argtypes = [ptr, ptr, ptr, ll, ll, ll, ll, ll, ptr, ptr, ptr, ptr, ptr, ptr]
            fn.restype = ll
        lib.eventor_argmax_projection_i32.argtypes = [ptr, ll, ll, ctypes.c_int32, ptr, ptr]
        lib.eventor_argmax_projection_i32.restype = None
        lib.eventor_median_reject.argtypes = [ptr, ptr, ll, ll, ll, ptr, ptr]
        lib.eventor_median_reject.restype = None
        lib.eventor_ingest_events.argtypes = [ptr, ll, ptr, ll, ptr, ll, ptr, ll, ll, ptr]
        lib.eventor_ingest_events.restype = ctypes.c_int
        self._lib = lib

    # ------------------------------------------------------------------
    def phi_batch(
        self,
        centers: np.ndarray,
        z0: float,
        depths: np.ndarray,
        fx: float,
        fy: float,
        cx: float,
        cy: float,
    ) -> np.ndarray:
        """``(B, Nz, 3)`` proportional coefficient tables φ.

        Bit-exact with
        :func:`repro.geometry.homography.proportional_coefficients_batch`,
        including the degenerate-geometry ``ValueError``.
        """
        centers = _c_contiguous(centers, np.float64).reshape(-1, 3)
        depths = _c_contiguous(depths, np.float64)
        b, nz = centers.shape[0], depths.shape[0]
        phi = np.empty((b, nz, 3))
        degenerate = self._lib.eventor_phi_batch(
            _ptr(centers),
            _ptr(depths),
            b,
            nz,
            float(z0),
            float(fx),
            float(fy),
            float(cx),
            float(cy),
            _ptr(phi),
        )
        if degenerate:
            raise ValueError(
                "degenerate geometry: camera centre lies on the canonical plane"
            )
        return phi

    def canonical_q_batch(
        self,
        H: np.ndarray,
        records: np.ndarray,
        schema: QuantizationSchema,
        uv0: np.ndarray,
        valid: np.ndarray,
    ) -> int:
        """Quantized canonical projection of a frame batch; returns misses.

        ``H`` is the ``(B, 3, 3)`` quantized ``H_Z0`` stack and
        ``records`` the batch's 1-D array of ``B * N`` event records
        (:data:`~repro.events.containers.EVENT_DTYPE`, or any record
        dtype with float32 ``x``/``y`` fields), frame ``b`` being
        ``records[b * N:(b + 1) * N]``; the kernel reads them in place
        from one base address at the array's record stride.  ``uv0``
        (``(B, N, 2)`` float64) and ``valid`` (``(B, N)`` bool) are
        caller-owned C-contiguous outputs.  Bit-exact with
        :meth:`~repro.core.backprojection.BackProjector.canonical_batch`
        on the same coordinates; a schema whose MACs are not exact in
        float64 (``schema.canonical_mac_exact``) raises ``ValueError``.
        """
        if not schema.canonical_mac_exact:
            raise ValueError(
                "canonical_q_batch needs a quantized schema whose H_Z0 MACs "
                "are exact in float64 (QuantizationSchema.canonical_mac_exact)"
            )
        if valid.ndim != 2 or valid.dtype != np.bool_:
            raise ValueError(f"valid must be a (B, N) bool buffer, got {valid.shape}")
        b, n = valid.shape
        H = _c_contiguous(H, np.float64)
        if H.shape != (b, 3, 3):
            raise ValueError(f"H must be ({b}, 3, 3), got {H.shape}")
        if records.ndim != 1 or len(records) != b * n:
            raise ValueError(f"records must hold B * N = {b * n} events in one row")
        if uv0.shape != (b, n, 2) or uv0.dtype != np.float64:
            raise ValueError(f"uv0 must be a ({b}, {n}, 2) float64 buffer")
        if not (uv0.flags.c_contiguous and valid.flags.c_contiguous):
            raise ValueError("uv0 and valid must be C-contiguous")
        fields = records.dtype.fields or {}
        if any(fields.get(f, (None,))[0] != np.float32 for f in "xy"):
            raise ValueError("event records need float32 x and y fields")
        if b * n == 0:
            return 0
        e, c = schema.event_coord, schema.canonical_coord
        c_lo, c_hi = c.overflow_bounds
        return int(
            self._lib.eventor_canonical_q_batch(
                records.ctypes.data,
                records.strides[0],
                fields["x"][1],
                fields["y"][1],
                b,
                n,
                _ptr(H),
                e.scale,
                e.raw_min,
                e.raw_max,
                c.scale,
                c.raw_min,
                c.raw_max,
                c_lo,
                c_hi,
                _ptr(uv0),
                _ptr(valid),
            )
        )

    def vote_nearest_batch(
        self,
        phi: np.ndarray,
        uv0: np.ndarray,
        valid: np.ndarray,
        counts: np.ndarray,
        shape: tuple[int, int, int],
    ) -> int:
        """Fused proportional + nearest voting into ``counts``; returns votes.

        ``counts`` must be a C-contiguous int32 ``(Nz*H*W,)`` buffer owned
        by the caller; votes accumulate in place (int32 halves the scatter
        footprint; a cell's count is bounded by the events of one
        reference segment, and the caller widens on materialization).
        ``phi`` is ``(B, Nz, 3)``, ``uv0`` ``(B, N, 2)`` and ``valid``
        ``(B, N)`` for ``shape == (Nz, H, W)``; any mismatch raises
        ``ValueError`` before the kernel runs.
        """
        nz, h, w = shape
        if counts.dtype != np.int32 or not counts.flags.c_contiguous:
            raise ValueError("counts must be a C-contiguous int32 buffer")
        phi = _c_contiguous(phi, np.float64)
        uv0 = _c_contiguous(uv0, np.float64)
        valid8 = _as_uint8(valid)
        b, n = _check_vote_shapes(phi, uv0, valid8, counts, shape)
        return int(
            self._lib.eventor_vote_nearest_batch(
                _ptr(phi), _ptr(uv0), _ptr(valid8), b, n, nz, h, w, _ptr(counts)
            )
        )

    def vote_bilinear_batch(
        self,
        phi: np.ndarray,
        uv0: np.ndarray,
        valid: np.ndarray,
        flat: np.ndarray,
        shape: tuple[int, int, int],
        scratch: "BilinearScratch",
    ) -> int:
        """Fused proportional + bilinear voting into ``flat``; returns points.

        Dispatches on ``flat.dtype``: float64 accumulates exact corner
        weights in reference order; int64 truncates each weight toward
        zero per addition (the ``np.add.at`` integer-buffer semantics).
        Shapes are validated as in :meth:`vote_nearest_batch`.
        """
        nz, h, w = shape
        if not flat.flags.c_contiguous:
            raise ValueError("flat DSI buffer must be C-contiguous")
        if flat.dtype == np.float64:
            fn = self._lib.eventor_vote_bilinear_batch_f64
        elif flat.dtype == np.int64:
            fn = self._lib.eventor_vote_bilinear_batch_i64
        else:
            raise ValueError(f"unsupported DSI dtype {flat.dtype}")
        phi = _c_contiguous(phi, np.float64)
        uv0 = _c_contiguous(uv0, np.float64)
        valid8 = _as_uint8(valid)
        b, n = _check_vote_shapes(phi, uv0, valid8, flat, shape)
        scratch.check(n, nz)
        return int(
            fn(
                _ptr(phi),
                _ptr(uv0),
                _ptr(valid8),
                b,
                n,
                nz,
                h,
                w,
                _ptr(flat),
                _ptr(scratch.u0),
                _ptr(scratch.v0),
                _ptr(scratch.fu),
                _ptr(scratch.fv),
                _ptr(scratch.voted),
            )
        )

    def argmax_projection(
        self,
        counts: np.ndarray,
        shape: tuple[int, int, int],
        score_limit: int | None,
        confidence: np.ndarray,
        mid: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tie-centred argmax projection of an int32 count window.

        Reads ``counts`` (the C-contiguous int32 ``Nz*H*W`` vote window)
        in place and writes the saturated per-pixel maximum into
        ``confidence`` (``(H, W)`` float64) and the centre of its tied
        planes into ``mid`` (``(H, W)`` int64); returns both.  Bit-exact
        with :meth:`~repro.core.dsi.DSI.argmax_projection` on a DSI
        holding the same counts; ``score_limit=None`` is unbounded.
        """
        nz, h, w = (int(d) for d in shape)
        if counts.dtype != np.int32 or not counts.flags.c_contiguous:
            raise ValueError("counts must be a C-contiguous int32 buffer")
        if counts.size != nz * h * w:
            raise ValueError(
                f"counts holds {counts.size} cells, shape {tuple(shape)} "
                f"needs {nz * h * w}"
            )
        _check_image(confidence, "confidence", (h, w), (np.float64,))
        _check_image(mid, "mid", (h, w), (np.int64,))
        limit = np.iinfo(np.int32).max
        if score_limit is not None:
            limit = min(int(score_limit), limit)
        self._lib.eventor_argmax_projection_i32(
            _ptr(counts), nz, h * w, limit, _ptr(confidence), _ptr(mid)
        )
        return confidence, mid

    def median_reject(
        self,
        depth: np.ndarray,
        mask: np.ndarray,
        median_size: int,
        out: np.ndarray,
    ) -> np.ndarray:
        """Median rejection of a detected depth map into ``out``.

        ``depth`` is ``(H, W)`` float64, ``mask`` and ``out`` ``(H, W)``
        bool or uint8, all C-contiguous; ``median_size`` is the odd
        window width (``<= 1`` copies the mask).  Bit-exact with
        :func:`repro.core.detection.median_reject`; returns ``out``.
        """
        if depth.ndim != 2:
            raise ValueError(f"depth must be (H, W), got {depth.shape}")
        _check_image(depth, "depth", depth.shape, (np.float64,))
        _check_image(mask, "mask", depth.shape, (np.bool_, np.uint8))
        _check_image(out, "out", depth.shape, (np.bool_, np.uint8))
        if median_size % 2 != 1:
            raise ValueError(f"median_size must be odd, got {median_size}")
        if np.may_share_memory(out, mask) or np.may_share_memory(out, depth):
            raise ValueError("out must not overlap depth or mask")
        h, w = depth.shape
        radius = max(int(median_size), 1) // 2
        window = np.empty((2 * radius + 1) ** 2)
        self._lib.eventor_median_reject(
            _ptr(depth), _ptr(mask), h, w, radius, _ptr(window), _ptr(out)
        )
        return out

    def pack_events(
        self,
        t: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        p: np.ndarray,
        out: np.ndarray,
    ) -> int:
        """Pack four event columns into ``out`` and flag them in one pass.

        ``t`` (float64), ``x``/``y`` (float32) and ``p`` (int8) are 1-D
        columns of ``N`` events at any byte stride (strided field views,
        reversed views); ``out`` is the caller-owned C-contiguous ``(N,)``
        :data:`~repro.events.containers.EVENT_DTYPE` array the records are
        written to, byte for byte.  Returns the kernel's validation mask
        (the ``INGEST_*`` bits of ``_kernels.c``).  Any other dtype,
        shape or length raises ``ValueError`` before the kernel runs.
        """
        n = _check_columns((t, x, y, p))
        if out.dtype != EVENT_DTYPE or out.shape != (n,):
            raise ValueError(f"out must be ({n},) event records, got {out.shape} {out.dtype}")
        if not (out.flags.c_contiguous and out.flags.writeable):
            raise ValueError("out must be a writeable C-contiguous buffer")
        return int(
            self._lib.eventor_ingest_events(
                t.ctypes.data, t.strides[0], x.ctypes.data, x.strides[0],
                y.ctypes.data, y.strides[0], p.ctypes.data, p.strides[0],
                n, out.ctypes.data,
            )
        )

    def check_events(self, records: np.ndarray) -> int:
        """The validation mask of packed event records, read in place.

        ``records`` is a 1-D :data:`~repro.events.containers.EVENT_DTYPE`
        array at any record stride; the same kernel as
        :meth:`pack_events` runs over its four fields without writing.
        """
        if records.dtype != EVENT_DTYPE or records.ndim != 1:
            raise ValueError(
                f"records must be 1-D event records, got {records.shape} {records.dtype}"
            )
        base, stride = records.ctypes.data, records.strides[0]
        t, x, y, p = (base + EVENT_DTYPE.fields[f][1] for f in "txyp")
        return int(
            self._lib.eventor_ingest_events(
                t, stride, x, stride, y, stride, p, stride, len(records), None
            )
        )


#: Column dtypes of :meth:`CExtensionKernels.pack_events`, in ``t, x, y, p`` order.
_COLUMN_DTYPES = tuple(EVENT_DTYPE.fields[f][0] for f in "txyp")


def _check_columns(columns: tuple) -> int:
    """Validate the ingest columns before C indexes by them; ``N``.

    The kernel reads every column at ``N`` positions and in native byte
    order, so each must be 1-D, of its field's dtype and ``N`` long.
    """
    for name, column, dtype in zip("txyp", columns, _COLUMN_DTYPES):
        if column.dtype != dtype:
            raise ValueError(f"column {name} must be {dtype}, got {column.dtype}")
    shapes = [column.shape for column in columns]
    if len(shapes[0]) != 1 or any(shape != shapes[0] for shape in shapes):
        raise ValueError(f"event columns must be 1-D of one length, got t/x/y/p {shapes}")
    return shapes[0][0]


def _check_image(array: np.ndarray, name: str, shape: tuple, dtypes: tuple) -> None:
    """Validate one ``(H, W)`` detection operand before C indexes by it."""
    if array.shape != tuple(shape):
        raise ValueError(f"{name} must be {tuple(shape)}, got {array.shape}")
    if array.dtype not in dtypes:
        names = " or ".join(np.dtype(d).name for d in dtypes)
        raise ValueError(f"{name} must be {names}, got {array.dtype}")
    if not array.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")


def _check_vote_shapes(
    phi: np.ndarray,
    uv0: np.ndarray,
    valid: np.ndarray,
    buffer: np.ndarray,
    shape: tuple[int, int, int],
) -> tuple[int, int]:
    """Validate a vote call's geometry before C indexes by it; ``(B, N)``.

    The kernels trust ``B``, ``N`` and ``shape``: a mismatched operand
    would be read at the wrong rows, and a short DSI buffer written past
    its end.  The nearest kernel's cell addresses are int32, so one
    plane (``H*W``) must fit int32.
    """
    nz, h, w = (int(d) for d in shape)
    if uv0.ndim != 3 or uv0.shape[2] != 2:
        raise ValueError(f"uv0 must be (B, N, 2), got {uv0.shape}")
    b, n = uv0.shape[:2]
    if valid.shape != (b, n):
        raise ValueError(f"valid must be ({b}, {n}), got {valid.shape}")
    if phi.shape != (b, nz, 3):
        raise ValueError(f"phi must be ({b}, {nz}, 3), got {phi.shape}")
    if h * w > np.iinfo(np.int32).max:
        raise ValueError(f"a {h}x{w} plane overflows int32 cell addresses")
    if buffer.size != nz * h * w:
        raise ValueError(
            f"DSI buffer holds {buffer.size} cells, shape {tuple(shape)} "
            f"needs {nz * h * w}"
        )
    return b, n


def _as_uint8(valid: np.ndarray) -> np.ndarray:
    if valid.dtype == np.bool_ and valid.flags.c_contiguous:
        return valid.view(np.uint8)
    return np.ascontiguousarray(valid, dtype=np.uint8)


class BilinearScratch:
    """Caller-owned scratch block of the bilinear kernels.

    Holds the floor/fraction decomposition (``u0``/``v0``/``fu``/``fv``,
    float64) and the per-(event, plane) ``voted`` flags (uint8), each of
    shape ``(N, Nz)``.  One instance per engine keeps concurrent engines
    from sharing mutable state.
    """

    def __init__(self, n: int, nz: int):
        self.n, self.nz = n, nz
        self.u0 = np.empty((n, nz))
        self.v0 = np.empty((n, nz))
        self.fu = np.empty((n, nz))
        self.fv = np.empty((n, nz))
        self.voted = np.empty((n, nz), dtype=np.uint8)

    def check(self, n: int, nz: int) -> None:
        """Validate the scratch matches the kernel call's geometry."""
        if (n, nz) != (self.n, self.nz):
            raise ValueError(
                f"scratch sized for (N={self.n}, Nz={self.nz}), "
                f"call needs (N={n}, Nz={nz})"
            )
