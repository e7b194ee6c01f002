(** RFC 8259 string escaping: the one escaper behind every JSON writer
    (the trace exporter, the structured log and the report layer's
    JSON).  Quote, backslash, [\n], [\r] and [\t] get their short
    escapes, other control bytes [\u00XX]; every other byte, UTF-8
    included, passes through. *)

(** Append the escaped contents of a string (without quotes). *)
val add_escaped : Buffer.t -> string -> unit

(** The escaped contents of a string (without quotes). *)
val escape : string -> string
