"""Property tests at the ``POST /jobs`` boundary.

:meth:`JobRequest.from_json` is the whole parse of a ``POST /jobs``
body.  For any JSON document — NaN and Infinity, bools where numbers
belong, nested values, unknown fields and unregistered backends — it
either raises ``ValueError``/``TypeError`` (the gateway's 400) or
returns a request that survives a JSON round trip unchanged and never
carries a non-finite or reversed time window.
"""

import json
import math
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import BACKENDS
from repro.serve.request import SEQUENCE_DEFAULT, JobRequest

FIELD_NAMES = [f.name for f in fields(JobRequest)]

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
#: Values a field might plausibly hold, valid or not, and anything else.
field_values = st.one_of(
    st.sampled_from(
        ["fast", "full", "bogus", "reformulated", "original", "numpy-batch",
         "native-batch", "numpy-reference", "hardware-model", "cuda"]
    ),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 200),
    json_values,
)
bounds = st.none() | st.integers(-5, 5) | st.floats(allow_nan=True, allow_infinity=True)
#: Per field: values of the right type, some of them still out of
#: contract (NaN or reversed windows, a policy the backend cannot run,
#: an unregistered backend).
typed_values = {
    "session": st.none() | st.text(max_size=8),
    "quality": st.sampled_from(["fast", "full"]),
    "t_start": bounds,
    "t_end": bounds,
    "planes": st.integers(2, 128),
    "frame_size": st.integers(1, 4096),
    "keyframe_distance": st.none() | st.floats(1e-3, 1.0),
    "policy": st.sampled_from(["reformulated", "original"]),
    "backend": st.sampled_from(sorted(BACKENDS) + ["cuda"]),
}
#: Typed objects, objects of any values under known (and a few unknown)
#: keys, or any JSON document at all.
bodies = st.one_of(
    st.fixed_dictionaries({"sequence": st.text(max_size=8)}, optional=typed_values),
    st.fixed_dictionaries(
        {"sequence": st.text(max_size=8)},
        optional={name: field_values for name in FIELD_NAMES[1:]},
    ),
    st.dictionaries(st.sampled_from(FIELD_NAMES + ["plane", "extra"]), field_values),
    json_values,
)


def to_json(request: JobRequest) -> str:
    """The body that names every field of ``request`` (an unset
    ``keyframe_distance`` is left out, as a client would)."""
    body = {f.name: getattr(request, f.name) for f in fields(request)}
    if request.keyframe_distance is SEQUENCE_DEFAULT:
        del body["keyframe_distance"]
    return json.dumps(body)


@settings(max_examples=400, deadline=None)
@given(body=bodies)
def test_refused_or_round_trips_with_a_sane_window(body):
    try:
        request = JobRequest.from_json(json.dumps(body))
    except (ValueError, TypeError):
        return
    assert JobRequest.from_json(to_json(request)) == request
    for bound in (request.t_start, request.t_end):
        assert bound is None or math.isfinite(bound)
    if request.t_start is not None and request.t_end is not None:
        assert request.t_start <= request.t_end


@settings(max_examples=200, deadline=None)
@given(body=st.binary(max_size=64) | st.text(max_size=64))
def test_arbitrary_bodies_are_refused_or_parsed(body):
    try:
        JobRequest.from_json(body)
    except (ValueError, TypeError):
        pass
