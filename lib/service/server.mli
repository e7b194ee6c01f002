(** `skoped` — the TCP server.

    One accept loop feeds a bounded {!Workqueue} drained by a fixed
    pool of OCaml 5 [Domain] workers; each worker reads one
    newline-terminated JSON request from its connection, writes the
    response line and closes.

    Reliability posture:
    - {b Admission control}: when the work queue is full, the accept
      loop does not block or let the kernel backlog absorb the load —
      it immediately writes a structured [overloaded] error (with a
      [retry_after_ms] hint derived from queue depth) and closes,
      bumping the [requests_shed] counter.
    - {b Per-connection deadlines}: every worker socket carries
      [SO_RCVTIMEO]/[SO_SNDTIMEO] from the config, so a stalled client
      costs one deadline, not a worker; expiries bump
      [connections_timed_out].
    - {b Graceful shutdown}: SIGINT/SIGTERM (or the [stop] flag) stop
      the accept loop; queued requests drain, workers join, and only
      then does [run] return.
    - {b Fault injection}: an optional {!Faults.t} perturbs
      connections (drop / delay / truncate / injected overload) for
      testing client resilience; every injection bumps
      [faults_injected]. *)

(** Transport-level knobs, independent of what the handler does. *)
type net = {
  n_host : string;
  n_port : int;  (** 0 picks an ephemeral port *)
  n_pool : int;  (** worker domains *)
  n_queue_capacity : int;
  n_read_timeout_s : float;  (** per-connection [SO_RCVTIMEO] *)
  n_write_timeout_s : float;  (** per-connection [SO_SNDTIMEO] *)
  n_max_request_bytes : int;  (** read cap; larger bodies arrive torn *)
}

val default_net : net

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port *)
  pool : int;  (** worker domains *)
  queue_capacity : int;
  read_timeout_s : float;  (** per-connection [SO_RCVTIMEO] *)
  write_timeout_s : float;  (** per-connection [SO_SNDTIMEO] *)
  faults : Faults.t option;  (** [None] in production *)
  dispatch : Dispatch.config;
}

val default_config : config

(** The generic accept-loop/worker-pool server: [handler] receives one
    request body per connection (with the accept timestamp, so queue
    wait counts toward deadlines) and returns the response line.  All
    the reliability posture above — admission control, per-connection
    deadlines, graceful drain, optional fault injection — applies to
    any handler.  [handle_signals] (default [true]) installs the
    SIGINT/SIGTERM/SIGPIPE handlers; pass [false] when embedding
    several servers in one process and let the host own its signals.
    [on_queue] receives a queue-depth thunk once, before accepting
    (the hook for a gauge); [on_shutdown] runs after the drain.
    [recorder] receives a flight-recorder entry for every shed
    request (sheds never reach the handler, so without it they would
    be invisible to [{"kind":"recent"}]). *)
val serve :
  ?stop:bool Atomic.t ->
  ?on_ready:(int -> unit) ->
  ?handle_signals:bool ->
  ?faults:Faults.t ->
  ?recorder:Skope_telemetry.Recorder.t ->
  ?on_queue:((unit -> int) -> unit) ->
  ?on_shutdown:(unit -> unit) ->
  net ->
  handler:(received_at:float -> string -> string) ->
  unit

(** Serve until SIGINT/SIGTERM, or until [stop] (checked a few times a
    second) becomes [true] — the embedding hook for in-process tests.
    [on_ready] (default: prints a "listening" line) receives the bound
    port — useful with [port = 0].  [serve] specialised to a fresh
    {!Dispatch.t}, which is closed when serving ends. *)
val run :
  ?stop:bool Atomic.t ->
  ?on_ready:(int -> unit) ->
  ?handle_signals:bool ->
  config ->
  unit
