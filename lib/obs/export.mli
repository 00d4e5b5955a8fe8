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

(** {!Jsonl.salvage}, the torn tail a reader below dropped. *)
type salvage = Jsonl.salvage = { torn_line : int; torn_byte : int }

(** Rebuild the metrics registry from a JSONL log's contents, read by
    {!Jsonl.records}: foreign schemas and version skew are rejected, a
    torn {e final} line (interrupted writer) is dropped and named, a
    malformed line followed by further records is an error.  Span and
    unknown records are skipped. *)
val metrics_of_jsonl : string -> (Metrics.t * salvage option, string) result

(** The span records of a JSONL log, in file order; same header checks
    and torn-tail salvage as {!metrics_of_jsonl}. *)
val spans_of_jsonl : string -> (Span.t list * salvage option, string) result

(** The complete ("ph":"X") events of a Chrome trace document written
    by {!write_chrome}, as spans; rejects version skew. *)
val spans_of_chrome : string -> (Span.t list, string) result

(** Read spans from either export ([exom trace spine], [exom audit
    --spine]): a file whose first line names a schema
    ({!Jsonl.schema_of}) is a JSONL log, anything else a Chrome
    document.  Chrome documents never salvage (they are one
    atomically-written object). *)
val spans_of_string : string -> (Span.t list * salvage option, string) result

(** Write just a metrics registry as a JSONL log (header + one record
    per metric) — the campaign registry and perf snapshot format,
    readable by {!metrics_of_jsonl}. *)
val write_metrics : string -> Metrics.t -> (unit, Exom_util.Vfs.error) result
