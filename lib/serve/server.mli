(** The socket front of the serving plane: a Domain-based acceptor/worker
    pool around one {!Handler}.

    Architecture (the {!Ic_parallel.Pool} idiom — an eager bounded queue
    drained by pinned domains — applied to connections instead of jobs):

    - one {b acceptor} domain accepts connections and pushes them onto a
      bounded queue. When the queue is full the connection is {e shed at
      admission}: it receives an explicit [Shed Connection] frame and is
      closed, so overload is visible to clients and bounded in memory —
      never an unbounded backlog or a silent drop.
    - [workers] {b worker} domains each pop a connection and serve its
      requests sequentially. A global concurrent-request cap
      ([max_inflight]) sheds individual requests with [Shed Request] when
      exceeded.
    - {b graceful drain}: {!stop} (or [stop_after] answers) stops the
      acceptor, lets in-flight requests complete, answers every
      still-queued connection with an explicit [Draining] error, flushes
      the host's state via [on_drain], and {!wait} joins every domain.

    Read and write timeouts are armed per connection with
    [SO_RCVTIMEO]/[SO_SNDTIMEO]; a read timeout closes the connection and
    counts in [serve.timeout]. [SIGPIPE] is ignored process-wide on
    {!start} so peers closing mid-write surface as [EPIPE]. *)

type listen =
  | Tcp of string * int  (** numeric host address and port; port 0 binds an
                             ephemeral port (see {!address}) *)
  | Unix_path of string  (** Unix-domain socket path, unlinked on bind and
                             again on shutdown *)

type config = {
  listen : listen;
  workers : int;  (** worker domains, >= 1 *)
  queue_cap : int;  (** accepted connections waiting for a worker, >= 1 *)
  max_inflight : int;
      (** requests being processed concurrently across all workers; above
          it requests are shed with [Shed Request]. 0 sheds everything *)
  read_timeout : float;  (** seconds a worker waits for the next request *)
  write_timeout : float;  (** seconds a blocked response write may take *)
  max_frame : int;  (** largest accepted frame payload, bytes *)
  stop_after : int option;
      (** initiate drain after this many answered requests — the
          deterministic shutdown used by cram tests and benches *)
}

val default_config : listen -> config
(** 2 workers, queue of 64, 64 inflight, 5 s timeouts,
    {!Wire.default_max_frame}, no [stop_after]. *)

type t

val start : ?on_drain:(unit -> unit) -> config -> Handler.t -> t
(** Bind, listen, and spawn the acceptor and worker domains. [on_drain]
    runs at the end of {!wait}, after every domain has joined — the hook
    where the host flushes checkpoints. Raises [Invalid_argument], before
    anything is bound, on a non-positive worker or queue bound, a negative
    [max_inflight], a TCP port outside 0..65535 or a [stop_after] below 1,
    and [Unix.Unix_error] if the bind fails. *)

val stop : t -> unit
(** Initiate graceful drain (idempotent, callable from any domain — or a
    signal handler). Returns immediately; {!wait} completes the drain. *)

val wait : t -> unit
(** Join the acceptor and workers, refuse any still-queued connections
    with [Draining], release the socket, and run [on_drain]. *)

val answered : t -> int
(** Requests answered so far (shed and drain refusals not included). *)

val address : t -> Unix.sockaddr
(** The bound address — how a test learns an ephemeral port. *)

(** {1 Client-side helpers} *)

val connect : listen -> Unix.file_descr
(** A connected blocking-mode client socket. *)
