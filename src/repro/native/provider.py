"""The cached kernel load behind the ``native-batch`` backend.

The kernels are the ctypes bindings of :mod:`repro.native.cext` over
the compiled C library (installed extension artifact or an on-demand
``cc`` build), exposing the ABI documented in ``docs/NATIVE.md``.  The
first :func:`get_kernels` call loads them and caches the result for the
process.  When the load fails the status records *why* — surfaced by
``repro info`` — and the backend registry simply omits ``native-batch``.
"""

from __future__ import annotations

from repro.native.cext import load_cext_kernels

_state: dict = {"probed": False, "kernels": None, "status": "unprobed"}


def get_kernels():
    """The loaded kernels, or ``None`` when the C library does not load.

    The first call loads and the result is cached for the process;
    :func:`reset` clears the cache (test seam).
    """
    if not _state["probed"]:
        try:
            kernels = load_cext_kernels()
        except Exception as exc:
            _state.update(
                probed=True, kernels=None, status=f"unavailable (cext: {exc})"
            )
        else:
            _state.update(
                probed=True, kernels=kernels, status=f"cext ({kernels.origin})"
            )
    return _state["kernels"]


def provider_status() -> str:
    """Human-readable kernel line for ``repro info`` and error messages."""
    get_kernels()
    return _state["status"]


def reset() -> None:
    """Forget the load result so the next :func:`get_kernels` reloads."""
    _state.update(probed=False, kernels=None, status="unprobed")
