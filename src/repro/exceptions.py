"""Exception hierarchy for the ``repro`` packet classification library.

All exceptions raised by the library derive from :class:`ReproError` so that a
caller can catch every library-specific failure with a single ``except``
clause while still letting programming errors (``TypeError`` and friends)
propagate untouched.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class RuleError(ReproError):
    """A rule or rule field is malformed (bad prefix length, inverted range, ...)."""


class RuleSetError(ReproError):
    """A rule set level problem: duplicate priority, unknown rule id, parse failure."""


class FieldLookupError(ReproError):
    """A single-field lookup engine was misused (value out of range, not built, ...)."""


class LabelError(ReproError):
    """Label table problem: label space exhausted, unknown label, counter underflow."""


class MemoryModelError(ReproError):
    """Hardware memory model problem: address out of range, capacity exceeded."""


class CapacityError(MemoryModelError):
    """A memory block or the rule filter cannot accept more entries."""


class ConfigurationError(ReproError):
    """The classifier or controller was configured inconsistently."""


class UpdateError(ReproError):
    """An incremental update (rule insert/delete) could not be applied."""


class WorkerError(ReproError):
    """A worker process of a parallel session died; the session closed with it."""


class ControlPlaneError(ReproError):
    """Controller/switch channel failure (unknown switch, malformed message...)."""


class ExperimentError(ReproError):
    """An experiment driver was given parameters it cannot honour."""


class TraceIOError(ReproError):
    """A trace or ruleset interchange file could not be read or written.

    Raised by the :mod:`repro.io` front-ends — a malformed or truncated pcap
    capture, an iptables-save line using an unsupported match, a rule that
    cannot be expressed in the target format.  Messages carry the offending
    file offset or line number so real-world inputs fail precisely.
    """
