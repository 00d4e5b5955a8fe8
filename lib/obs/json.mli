(** A minimal dependency-free JSON value: printer and parser for the
    observability exporters ({!Export}) and the [exom stats] reader.

    The printer emits compact single-line JSON.  The parser accepts
    standard JSON with whitespace; [\u] escapes outside ASCII degrade to
    ['?'] (the exporters never emit them). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string

(** [parse s] parses a complete JSON document (trailing garbage is an
    error). *)
val parse : string -> (t, string) result

(** Object field lookup; [None] on non-objects and missing keys. *)
val member : string -> t -> t option

val to_float : t -> float option

(** An integral number; [None] for a fraction or a non-number. *)
val to_int : t -> int option

val to_str : t -> string option
val to_list : t -> t list option
