(** The one reader of exom's versioned files.  Every file names its
    [schema] and [version], in one of two framings:

    - {b JSONL} ({!records}): a header object on the first non-blank
      line, then one JSON record per line — the ledger and its journal
      ([exom.ledger]), the observability log ([exom.obs]) and the
      campaign's outcome rows ([exom.corpus.outcomes]);
    - {b one JSON document} ({!document}) with both fields at top
      level — the spine ([exom.spine]), the corpus manifest
      ([exom.corpus]) and the mined prior ([exom.corpus.mine]).

    Each codec keeps its own record parser and writer; this module
    checks the framing, locates errors by file line, salvages a torn
    final line, and holds the field getters the record parsers share. *)

(** A salvaged torn tail: the 1-based line number of the dropped line
    and the byte offset of its first byte. *)
type salvage = { torn_line : int; torn_byte : int }

(** ["torn record at line N (byte B) dropped"] *)
val torn_message : salvage -> string

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

(** {2 Field getters}

    [getter key j] reads member [key] of the object [j].  An [Error]
    names the field and the type it should have. *)

val str : string -> Json.t -> (string, string) result
val num : string -> Json.t -> (float, string) result

(** An integral number: [2.5] is an error, never truncated. *)
val int : string -> Json.t -> (int, string) result

val bool : string -> Json.t -> (bool, string) result

(** An array, each element decoded by the function; the first element
    error is the field's error. *)
val list :
  string ->
  (Json.t -> ('a, string) result) ->
  Json.t ->
  ('a list, string) result

(** An array of integers: one element that is not an integer fails the
    whole field. *)
val ints : string -> Json.t -> (int list, string) result

(** A missing or [null] field reads as [None]. *)
val opt_int : string -> Json.t -> (int option, string) result

val opt_str : string -> Json.t -> (string option, string) result

(** The string-valued members of the object [key], in order; other
    members, and a missing or non-object field, contribute nothing. *)
val str_pairs : string -> Json.t -> (string * string) list

(** {2 Framing} *)

(** [content] as one JSON value; a blank file is an ["empty file"]. *)
val parse : string -> (Json.t, string) result

(** [document ~schema ~versions content]: {!parse}, and the value's
    [schema] is [schema] and its [version] is in [versions]. *)
val document :
  schema:string -> versions:int list -> string -> (Json.t, string) result

(** [records ~schema ~versions ~salvage ~on_record content] checks the
    header line as {!document} checks a document, then passes every
    later record to [on_record] in file order.  Blank lines are
    skipped, and an error names its file line (["line N: ..."]).  With
    [salvage], a final line that does not parse, or that [on_record]
    rejects, is dropped as the torn tail of an interrupted writer and
    its position returned; a bad line with records after it is always
    an error. *)
val records :
  schema:string ->
  versions:int list ->
  salvage:bool ->
  on_record:(Json.t -> (unit, string) result) ->
  string ->
  (salvage option, string) result

(** The [schema] named by the first non-blank line, if it names one.
    This tells a ledger from an obs log, either from source text, and
    a JSONL log from a Chrome trace, which names no schema. *)
val schema_of : string -> string option
