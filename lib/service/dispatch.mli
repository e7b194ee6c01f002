(** Request execution: validation, catalog lookup, the projection
    cache, and metrics accounting.  Pure with respect to I/O — the
    server hands it a request body and writes back the returned
    string — so the whole protocol is testable without sockets. *)

module Json = Skope_report.Json

type config = {
  max_request_bytes : int;  (** larger bodies get an [oversized] error *)
  cache_capacity : int;  (** LRU slots for projection results *)
}

val default_config : config

(** A cached projection result: its serialized JSON object, spliced
    verbatim into responses, and the [total_ms] an explore Pareto
    frontier ranks by. *)
type cached = { bytes : string; total_ms : float }

(** Slots in the prepared-BET cache (one per workload and exact
    scale).  A constant, not a [config] field. *)
val prepared_capacity : int

type t = {
  config : config;
  cache : cached Lru.t;  (** fingerprint -> analyze result *)
  prepared : Core.Pipeline.Prepared.t Lru.t;
      (** workload/scale -> machine-independent prefix, reused by
          every miss; failed builds are never stored *)
  metrics : Metrics.t;
  recorder : Skope_telemetry.Recorder.t;
      (** flight recorder behind [{"kind":"recent"}] / [{"kind":"trace"}] *)
  sinks : Skope_telemetry.Span.sink list;
      (** the span sinks feeding [metrics] and [recorder] *)
}

(** A dispatcher, with its two span sinks installed on the
    process-global sink bus. *)
val create : ?config:config -> unit -> t

(** Take the dispatcher's span sinks off the bus.  Its metrics and
    flight recorder stop seeing spans; requests it still handles are
    answered as before.  Every span in the process pays for every
    installed sink, so a process that creates many dispatchers closes
    the ones it is done with. *)
val close : t -> unit

(** Handle one request body, returning the response body (always a
    single-line JSON string, never raising).  [received_at] is when
    the request entered the system (defaults to now): queue wait
    counts toward both the request's [timeout_ms] deadline and its
    recorded latency.  A caller-supplied [{"trace":{"id":…}}] context
    is adopted (and echoed as ["trace_id"]); otherwise an id is
    minted. *)
val handle : ?received_at:float -> t -> string -> string

(** The result-cache fingerprint an analyze, sweep or explore query
    resolves to ([None] when its workload or machine does not
    resolve).  The cluster router routes on it, so a query lands on
    the shard whose cache holds it. *)
val query_fingerprint : Protocol.query -> string option
