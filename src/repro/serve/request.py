"""One job request for both front doors: the CLI and ``POST /jobs``.

Eventor's host hands the accelerator one parameter set per job: depth
planes, 1024-event frames, the Table 1 schema and the key-frame rule.
:class:`JobRequest` is that set for a registry sequence, with one set
of defaults and one validation.  ``repro serve``/``gateway``/``submit``/
``stream`` generate their job flags from its fields (:func:`add_flags`),
``POST /jobs`` parses its body with :meth:`JobRequest.from_json`, and
both load the job with :meth:`JobRequest.build`.  Invalid input raises
``ValueError`` or ``TypeError``: exit 1 on the CLI, a 400 over HTTP.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields

from repro.core.config import EMVSConfig
from repro.core.engine import EngineSpec, _backend_factory, _check_backend_policy, default_backend
from repro.core.policy import resolve_policy
from repro.events import datasets


class _SequenceDefault:
    def __repr__(self) -> str:
        return "SEQUENCE_DEFAULT"


#: ``keyframe_distance`` left unset: the sequence's recommendation.
SEQUENCE_DEFAULT = _SequenceDefault()


def _check_window(t_start: float | None, t_end: float | None) -> None:
    """Refuse a non-finite or reversed time window (``None`` = open end)."""
    if any(t is not None and not math.isfinite(t) for t in (t_start, t_end)):
        raise ValueError(f"time window [{t_start}, {t_end}] must be finite")
    if t_start is not None and t_end is not None and t_start > t_end:
        raise ValueError(f"time window [{t_start}, {t_end}] is reversed")


def time_window(events, t_start: float | None, t_end: float | None):
    """``events`` within ``[t_start, t_end]``; ``None`` keeps the stream's bound."""
    if t_start is None and t_end is None:
        return events
    t0 = events.t_start if t_start is None else t_start
    t1 = events.t_end if t_end is None else t_end
    _check_window(t0, t1)
    return events.time_slice(t0, t1)


def _flag(kind: type, help: str, **default):
    """A field that is also a CLI flag of type ``kind``."""
    return field(metadata={"flag": (kind, help)}, **default)


@dataclass(frozen=True)
class JobRequest:
    """One reconstruction job over a registry sequence, validated.

    ``session`` defaults to the sequence name.  ``keyframe_distance``
    has three states: :data:`SEQUENCE_DEFAULT` (absent from the JSON)
    is the sequence's recommendation, ``None`` is one key frame, and a
    number is used as given.  Construction checks every field without
    loading the sequence.
    """

    sequence: str
    session: str | None = None
    quality: str = _flag(str, "sequence replica quality: full or fast", default="fast")
    t_start: float | None = _flag(float, "window start (s)", default=None)
    t_end: float | None = _flag(float, "window end (s)", default=None)
    planes: int = _flag(int, "DSI depth planes", default=48)
    frame_size: int = _flag(int, "events per frame", default=1024)
    keyframe_distance: float | None = _flag(
        float, "key-frame translation threshold (default: the sequence's)",
        default=SEQUENCE_DEFAULT,
    )
    policy: str = _flag(str, "dataflow policy preset (see `repro info`)", default="reformulated")
    backend: str = _flag(
        str, "execution backend (default: the fastest registered)",
        default_factory=default_backend,
    )

    def __post_init__(self) -> None:
        if self.session is None:
            object.__setattr__(self, "session", self.sequence)
        for f in fields(self):
            kind = f.metadata.get("flag", (str,))[0]
            value = getattr(self, f.name)
            optional = f.default is None or f.default is SEQUENCE_DEFAULT
            if optional and (value is None or value is SEQUENCE_DEFAULT):
                continue
            accepted = str if kind is str else int if kind is int else (int, float)
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise TypeError(f"field {f.name!r} must be {kind.__name__}, got {value!r}")
            try:
                object.__setattr__(self, f.name, kind(value))
            except OverflowError:  # an int too large for a float
                raise ValueError(f"field {f.name!r} is out of range") from None
        if self.quality not in ("full", "fast"):
            raise ValueError(f"quality must be 'full' or 'fast', got {self.quality!r}")
        _check_window(self.t_start, self.t_end)
        self._config(None)
        _backend_factory(self.backend)
        _check_backend_policy(self.backend, resolve_policy(self.policy))

    def _config(self, sequence_distance: float | None) -> EMVSConfig:
        distance = self.keyframe_distance
        if distance is SEQUENCE_DEFAULT:
            distance = sequence_distance
        return EMVSConfig(
            n_depth_planes=self.planes, frame_size=self.frame_size, keyframe_distance=distance
        )

    @classmethod
    def from_json(cls, body: str | bytes) -> "JobRequest":
        """Parse a ``POST /jobs`` body: a JSON object of these fields."""
        request = json.loads(body)
        if not isinstance(request, dict):
            raise TypeError("body must be a JSON object")
        unknown = set(request) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown field(s) {sorted(unknown)}")
        if "sequence" not in request:
            raise ValueError("missing required field 'sequence'")
        return cls(**request)

    @classmethod
    def from_flags(cls, args, sequence: str, session: str | None) -> "JobRequest":
        """The request named by the flags :func:`add_flags` added."""
        flags = {f.name: getattr(args, f.name) for f in fields(cls) if "flag" in f.metadata}
        return cls(sequence, session, **flags)

    def build(self):
        """Load the sequence and return the job's ``(events, EngineSpec)``.

        The loader is looked up per call, and only the sequence's
        ``events``, ``camera``, ``trajectory``, ``depth_range`` and
        ``keyframe_distance`` are read.
        """
        try:
            seq = datasets.load_sequence(self.sequence, quality=self.quality)
        except KeyError as exc:  # the message lists the registry
            raise ValueError(exc.args[0]) from None
        spec = EngineSpec(
            seq.camera, seq.trajectory, self._config(seq.keyframe_distance),
            depth_range=seq.depth_range, policy=self.policy, backend=self.backend,
        )
        return time_window(seq.events, self.t_start, self.t_end), spec


def add_flags(parser, **defaults) -> None:
    """Add one ``--flag`` per :class:`JobRequest` field but sequence/session.

    Each flag defaults as its field does, unless ``defaults`` names it.
    """
    for f in fields(JobRequest):
        if "flag" in f.metadata:
            kind, help = f.metadata["flag"]
            default = f.default_factory() if f.default is MISSING else f.default
            flag = "--" + f.name.replace("_", "-")
            parser.add_argument(flag, type=kind, default=defaults.get(f.name, default), help=help)
