"""The ``REPRO_SKETCH`` knob: sketch pre-filtering mode resolution.

One :class:`repro.core.config.Knob`, like the kernel/batch knobs: an
explicit argument wins over :func:`sketch_override` wins over the
environment, and a malformed value raises a
:class:`~repro.core.exceptions.ConfigError` naming the variable.  The
default is ``off`` — the unfiltered scan, which is always the I/O
baseline.

Modes
-----
``off``
    No pre-filtering; similarity queries scan and verify every tuple.
``exact``
    Sketch lower bounds prune candidates that provably cannot qualify;
    the survivors are fully verified.  Answers, scores and tie order
    are bit-identical to ``off`` (differential-tested); the win is
    pure I/O.  Requires an attached :class:`~repro.sketch.SketchIndex`.
``approx``
    MinHash/LSH banding generates the candidate set; only candidates
    are verified.  Recall is bounded below 1 and measured by
    ``benchmarks/bench_abl_sketch.py``.
"""

from __future__ import annotations

from repro.core.config import choice_knob

#: Environment variable selecting the default sketch mode.
SKETCH_ENV = "REPRO_SKETCH"

#: Valid sketch pre-filtering modes.
MODES = ("off", "exact", "approx")

#: The sketch knob: explicit arg > :func:`sketch_override` >
#: ``REPRO_SKETCH`` > off (see :class:`repro.core.config.Knob`).
SKETCH = choice_knob(
    SKETCH_ENV,
    "sketch mode",
    choices=MODES,
    special={"default": "off"},
    default="off",
)
resolve_sketch = SKETCH.resolve
sketch_override = SKETCH.override
