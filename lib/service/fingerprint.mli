(** Content-addressed cache keys for projection queries.

    A fingerprint digests everything the analytic projection depends
    on — workload name, every machine parameter, input scale, the
    hot-spot criteria, and the pricing engine — so two requests that would compute the same
    projection share one cache slot, whether they arrived as
    [analyze] queries, parameter-override queries, or server-side
    sweep fan-out. *)

open Skope_hw
open Skope_analysis

(** Canonical, human-readable key material (stable field order).
    [engine] names the pricing engine ("tree"/"arena").  The service
    prices everything with the arena and passes ["arena"] for every
    key; the field keeps the v2 key form stable. *)
val canonical :
  workload:string ->
  machine:Machine.t ->
  scale:float ->
  criteria:Hotspot.criteria ->
  top:int ->
  engine:string ->
  string

(** MD5 hex digest of {!canonical}. *)
val of_query :
  workload:string ->
  machine:Machine.t ->
  scale:float ->
  criteria:Hotspot.criteria ->
  top:int ->
  engine:string ->
  string
