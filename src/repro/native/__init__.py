"""Compiled hot-stage kernels behind the ``native-batch`` backend.

The package splits into three layers:

* the kernels — :mod:`repro.native.cext`, ctypes bindings over the C
  library ``_kernels.c``, exposing the ABI documented in
  ``docs/NATIVE.md``;
* the cached load — :mod:`repro.native.provider` loads the kernels once
  per process and reports status for ``repro info``;
* the backend — :mod:`repro.native.backend` registers ``native-batch``
  in the engine registry when (and only when) the kernels load.

This ``__init__`` deliberately does *not* import the backend module:
:mod:`repro.core.engine` imports ``repro.native.backend`` directly at
the end of its own definition, and importing it from here would recreate
the cycle that arrangement avoids.
"""

from repro.native.provider import get_kernels, provider_status, reset

__all__ = [
    "get_kernels",
    "provider_status",
    "reset",
]
