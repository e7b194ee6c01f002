(** Minimal JSON emitter and parser (no external dependencies).

    Non-finite floats serialize as [null] (NaN) or out-of-range
    literals; strings are escaped per RFC 8259. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** Pre-serialized JSON text, written out verbatim.  Build it only
          from {!to_string} output (e.g. a cached result spliced into a
          response envelope); the parser never produces it and the
          accessors treat it as opaque. *)

val to_string : t -> string

(** Parse one RFC 8259 JSON text.  Numbers without a fraction or
    exponent that fit [int] parse as [Int], everything else as
    [Float]; out-of-range literals such as [1e999] become infinities.
    String escapes (including [\uXXXX] and surrogate pairs, decoded to
    UTF-8) are handled.  Errors carry a byte offset and a message;
    trailing non-whitespace input is an error. *)
val of_string : string -> (t, string) result

(** {1 Accessors}

    Total lookups used by the service layer to destructure requests. *)

val member : string -> t -> t option
val to_string_opt : t -> string option
val to_float_opt : t -> float option
val to_int_opt : t -> int option
