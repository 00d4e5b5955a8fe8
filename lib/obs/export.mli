(** The observability exporters, both stamped with {!schema_version}:
    Chrome trace-event JSON ([--trace-out], for chrome://tracing or
    Perfetto) and a JSONL event log ([--metrics-out], read back by
    [exom stats]). *)

val schema_name : string
val schema_version : int

(** The whole trace as a Chrome trace-event document: one complete
    ("ph":"X") event per span, lane 0 = coordinator, one lane per
    scheduler task; [args.id]/[args.parent] carry the structural
    nesting. *)
val chrome_json : Obs.t -> Json.t

(** The JSONL log: a header line (schema + version), one record per
    metric, one per span. *)
val jsonl_lines : Obs.t -> string list

(** All writers go through {!Exom_util.Vfs} (checked, crash-consistent
    temp + rename): callers absorb an [Error] into their degradation
    contract — a full disk must not kill the run that produced the
    data. *)
val write_chrome : string -> Obs.t -> (unit, Exom_util.Vfs.error) result

val write_jsonl : string -> Obs.t -> (unit, Exom_util.Vfs.error) result

(** A salvaged torn tail, located so callers can cite it: the 1-based
    line number and the byte offset of the torn line's first byte. *)
type salvage = { torn_line : int; torn_byte : int }

(** Rebuild the metrics registry from a JSONL log's contents; rejects
    foreign schemas and version skew.  Span and unknown records are
    skipped.  A torn {e final} line (interrupted writer) is dropped
    rather than fatal; the salvage names the torn line.  A malformed line followed
    by further records is still an error. *)
val metrics_of_jsonl : string -> (Metrics.t * salvage option, string) result

(** The span records of a JSONL log, in file order; same header checks
    and torn-tail salvage as {!metrics_of_jsonl}. *)
val spans_of_jsonl : string -> (Span.t list * salvage option, string) result

(** The complete ("ph":"X") events of a Chrome trace document written
    by {!write_chrome}, as spans; rejects version skew. *)
val spans_of_chrome : string -> (Span.t list, string) result

(** Sniff Chrome vs JSONL and read spans either way ([exom trace
    spine], [exom audit --spine]).  Chrome documents never salvage
    (they are one atomically-written object). *)
val spans_of_string : string -> (Span.t list * salvage option, string) result

(** Write just a metrics registry as a JSONL log (header + one record
    per metric) — the campaign registry and perf snapshot format,
    readable by {!metrics_of_jsonl}. *)
val write_metrics : string -> Metrics.t -> (unit, Exom_util.Vfs.error) result
