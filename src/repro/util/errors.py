"""Exception hierarchy for the repro package.

Every subpackage raises subclasses of :class:`ReproError` so callers can
catch library failures without swallowing unrelated bugs.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """Invalid configuration: settings files, parameter combinations."""


class CalibrationError(ReproError):
    """A performance-model calibration constant is missing or invalid."""


class MPIError(ReproError):
    """Base class for errors raised by the MPI substrate."""


class TruncationError(MPIError):
    """A received message does not fit in the posted receive buffer.

    Mirrors ``MPI_ERR_TRUNCATE``: the matching message was longer than
    the receive buffer supplied by the caller.
    """


class DatatypeError(MPIError):
    """A derived datatype does not describe the supplied buffer."""


class CommAbort(MPIError):
    """The simulated job was aborted (another rank raised)."""


class AdiosError(ReproError):
    """Base class for errors raised by the ADIOS2-workalike I/O layer."""


class EngineStateError(AdiosError):
    """An engine method was called in the wrong state.

    For example ``put`` outside ``begin_step``/``end_step``, or reading
    from a writer engine.
    """


class VariableError(AdiosError):
    """A variable definition or selection is inconsistent."""


class CorruptFileError(AdiosError):
    """A BP5 subfile or metadata index failed validation on read."""


class TimerError(ReproError):
    """A timing query was made against unrecorded data.

    For example :meth:`~repro.util.timers.Stopwatch.mean` of a section
    that never ran.
    """


class ObserveError(ReproError):
    """Base class for errors raised by the observability layer.

    Raised for clock-domain violations (mixing wall and modeled time in
    one trace lane), metric kind conflicts, and malformed trace files.
    """


class LintError(ReproError):
    """Base class for errors raised by the static-analysis layer.

    Raised for malformed analyzer inputs (unknown rule ids, plans that
    reference ranks outside the communicator) — never for findings,
    which are reported as diagnostics.
    """


class SchedError(ReproError):
    """Base class for errors raised by the virtual-time scheduler.

    Raised for structural scheduling bugs (inconsistent epoch arrays,
    a bad profile interval or folded file), never for modeled outcomes.
    """


class ParError(ReproError):
    """Base class for errors raised by the process-parallel layer.

    Raised for pool configuration mistakes (negative ``jobs``), worker
    crashes (the first failing task's traceback is carried in the
    message), and shared-memory transport faults.
    """


class ServeError(ReproError):
    """Base class for errors raised by the simulation service layer.

    Raised for service misconfiguration, worker-pool faults, and jobs
    submitted against a closed service.
    """


class AdmissionError(ServeError):
    """The service refused a job: the admission queue is saturated.

    This is the *admission control* half of the backpressure policy —
    a non-waiting submit against a full queue fails fast instead of
    queueing unboundedly (waiting submits block instead; see
    docs/SERVICE.md).
    """


class GpuError(ReproError):
    """Base class for errors raised by the GPU simulator."""


class LaunchError(GpuError):
    """Invalid kernel launch configuration (grid/workgroup shape)."""


class DeviceMemoryError(GpuError):
    """Device allocation exceeded the modeled HBM capacity."""


class NativeToolchainError(GpuError):
    """A kernel could not be compiled: no C compiler, a failed compile,
    or a compile that overran its timeout."""


class IrError(ReproError):
    """Base class for errors raised by the stencil IR layer.

    Raised for malformed IR (verifier failures surfaced as exceptions),
    unknown pass names in a pipeline spec, and rewrite requests whose
    legality preconditions cannot even be evaluated.
    """
