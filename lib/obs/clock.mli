(** The one clock of the observability layer: CLOCK_MONOTONIC, read
    through bechamel's allocation-free stub. It is wall time (it runs on
    while the caller sleeps or is descheduled, and other domains' CPU time
    does not enter it), it never steps back, and a read costs tens of
    nanoseconds. *)

val now : unit -> float
(** Seconds from an arbitrary fixed origin. The default clock of
    {!Trace.create}, [Ic_runtime.Telemetry.create] and
    [Ic_serve.Handler.create]. *)
