(** Typed builders for skoped request bodies.

    The client-side counterpart of {!Protocol}: [skope query], the
    tests and the load generator build their request bodies here
    instead of hand-assembling JSON.  Raw JSON remains a first-class
    escape hatch — {!Client.roundtrip} takes any string — but with
    these builders a typo is a type error and every built body parses
    back through {!Protocol.parse_request}. *)

module Json = Skope_report.Json

type query_opts = {
  scale : float option;  (** [None]: the workload's default scale *)
  top : int;
  coverage : float;
  leanness : float;
  overrides : (string * float) list;  (** machine-parameter overrides *)
}

(** top 10, coverage 0.90, leanness 0.10, no scale, no overrides —
    the server-side defaults. *)
val default_query_opts : query_opts

type request =
  | Analyze of { workload : string; machine : string; opts : query_opts }
  | Sweep of {
      workload : string;
      machine : string;
      opts : query_opts;
      axis : string;  (** short axis key: bw, lat, vec, ... *)
      values : float list;
    }
  | Explore of {
      workload : string;
      machine : string;
      opts : query_opts;
      axes : (string * float list) list;  (** (short key, values) per axis *)
      sample : int option;
      seed : int option;
    }
  | Lint of {
      workload : string option;
      source : string option;
      scale : float option;
      deny_warnings : bool;
      disable : string list;
    }
  | Audit of {
      workload : string option;
      source : string option;
      scale : float option;
      machine : string option;  (** [None]: server default ("bgq") *)
      ranks : int option;  (** [None]: server default (4) *)
      deny_warnings : bool;
      disable : string list;
    }
  | Workloads
  | Machines
  | Stats
  | Metrics_prom
  | Version
  | Capabilities
  | Cluster_stats
      (** cluster topology + per-shard stats; router ([skope route]) only *)
  | Recent of { n : int option; errors_only : bool; min_ms : float option }
      (** flight-recorder readback: the last requests, newest first *)
  | Trace of { id : string }
      (** one request's span tree from the flight recorder *)

(** Constructor helpers with server-side defaults. *)

val recent :
  ?n:int -> ?errors_only:bool -> ?min_ms:float -> unit -> request

val trace : id:string -> unit -> request

val analyze :
  ?opts:query_opts -> workload:string -> machine:string -> unit -> request

val sweep :
  ?opts:query_opts ->
  workload:string ->
  machine:string ->
  axis:string ->
  values:float list ->
  unit ->
  request

val explore :
  ?opts:query_opts ->
  ?sample:int ->
  ?seed:int ->
  workload:string ->
  machine:string ->
  axes:(string * float list) list ->
  unit ->
  request

val lint_workload :
  ?scale:float -> ?deny_warnings:bool -> ?disable:string list -> string ->
  request

val lint_source : ?deny_warnings:bool -> ?disable:string list -> string -> request

val audit_workload :
  ?scale:float ->
  ?machine:string ->
  ?ranks:int ->
  ?deny_warnings:bool ->
  ?disable:string list ->
  string ->
  request

val audit_source :
  ?machine:string ->
  ?ranks:int ->
  ?deny_warnings:bool ->
  ?disable:string list ->
  string ->
  request

(** The wire ["kind"] of a request. *)
val kind : request -> string

(** The request as JSON; [timeout_ms] adds the per-request deadline,
    [trace_id]/[trace_parent] the [{"trace":{"id","parent"}}] context
    the server adopts instead of minting its own id. *)
val to_json :
  ?timeout_ms:float -> ?trace_id:string -> ?trace_parent:string -> request ->
  Json.t

(** The request as a one-line body ready for {!Client.roundtrip}. *)
val to_body :
  ?timeout_ms:float -> ?trace_id:string -> ?trace_parent:string -> request ->
  string

(** A decoded response envelope: the protocol version stamp, the
    [ok] verdict, and either the result or the error triple.  The
    client's retry loop uses this to recognize transient [overloaded]
    errors and their [retry_after_ms] backoff hint. *)
type response = {
  r_v : int option;  (** the ["v"] protocol stamp *)
  r_ok : bool;
  r_trace_id : string option;  (** the echoed request trace id *)
  r_result : Json.t option;
  r_error_code : string option;  (** e.g. ["overloaded"] *)
  r_error_message : string option;
  r_retry_after_ms : float option;  (** overloaded backoff hint *)
}

(** Decode one response line.  [Error] means the body was not a JSON
    object at all (a truncated or foreign payload). *)
val parse_response : string -> (response, string) result
