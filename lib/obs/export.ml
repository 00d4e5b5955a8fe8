(* The two exporters of the observability layer, both version-stamped:

   - {b Chrome trace-event JSON} (`--trace-out`): one complete ("ph":"X")
     event per span, loadable in chrome://tracing or Perfetto.  Lane 0
     is the coordinator (session build, demand iterations, verification
     batches); each scheduler task gets its own lane, so a parallel run
     renders as a pool-utilization flame chart.  Cross-lane nesting is
     preserved structurally in every event's [args.id]/[args.parent].

   - {b JSONL event log} (`--metrics-out`): a self-describing header
     line followed by one record per metric and per span.  This is the
     machine-readable form `exom stats` reads back; the schema version
     in the header lets future readers reject skewed files instead of
     misreading them. *)

let schema_name = "exom.obs"
let schema_version = 1

(* {2 Chrome trace events} *)

let span_args (s : Span.t) =
  Json.Obj
    (("id", Json.Num (float_of_int s.Span.id))
     :: ("parent", Json.Num (float_of_int s.Span.parent))
     :: List.map (fun (k, v) -> (k, Json.Str v)) s.Span.args)

let chrome_event (s : Span.t) =
  Json.Obj
    [
      ("name", Json.Str s.Span.name);
      ("cat", Json.Str s.Span.cat);
      ("ph", Json.Str "X");
      ("ts", Json.Num s.Span.ts_us);
      ("dur", Json.Num s.Span.dur_us);
      ("pid", Json.Num 1.0);
      ("tid", Json.Num (float_of_int s.Span.tid));
      ("args", span_args s);
    ]

let chrome_json obs =
  Json.Obj
    [
      ("schemaVersion", Json.Num (float_of_int schema_version));
      ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.Arr (List.map chrome_event (Obs.spans obs)));
    ]

(* {2 JSONL event log} *)

let header_line =
  Json.to_string
    (Json.Obj
       [
         ("type", Json.Str "header");
         ("schema", Json.Str schema_name);
         ("version", Json.Num (float_of_int schema_version));
       ])

let kind_to_string = function
  | Metrics.Counter -> "counter"
  | Metrics.Gauge -> "gauge"
  | Metrics.Timer -> "timer"

let kind_of_string = function
  | "counter" -> Some Metrics.Counter
  | "gauge" -> Some Metrics.Gauge
  | "timer" -> Some Metrics.Timer
  | _ -> None

let metric_line (m : Metrics.metric) =
  let base =
    [
      ("type", Json.Str "metric");
      ("name", Json.Str m.Metrics.name);
      ("kind", Json.Str (kind_to_string m.Metrics.kind));
    ]
  in
  let fields =
    match m.Metrics.kind with
    | Metrics.Counter | Metrics.Gauge ->
      [ ("value", Json.Num (float_of_int m.Metrics.value)) ]
    | Metrics.Timer ->
      [
        ("count", Json.Num (float_of_int m.Metrics.count));
        ("seconds", Json.Num m.Metrics.seconds);
        ( "min",
          if m.Metrics.count = 0 then Json.Null else Json.Num m.Metrics.min_s );
        ( "max",
          if m.Metrics.count = 0 then Json.Null else Json.Num m.Metrics.max_s );
      ]
  in
  Json.to_string (Json.Obj (base @ fields))

let span_line (s : Span.t) =
  Json.to_string
    (Json.Obj
       [
         ("type", Json.Str "span");
         ("id", Json.Num (float_of_int s.Span.id));
         ("parent", Json.Num (float_of_int s.Span.parent));
         ("tid", Json.Num (float_of_int s.Span.tid));
         ("name", Json.Str s.Span.name);
         ("cat", Json.Str s.Span.cat);
         ("ts_us", Json.Num s.Span.ts_us);
         ("dur_us", Json.Num s.Span.dur_us);
         ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.Span.args));
       ])

let jsonl_lines obs =
  header_line
  :: List.map metric_line (Metrics.to_list (Obs.metrics obs))
  @ List.map span_line (Obs.spans obs)

(* {2 File writers} *)

(* Checked and crash-consistent (temp + rename) through the Vfs
   façade: metric exports are leaf artifacts, so callers absorb an
   [Error] into their own degradation contract instead of letting a
   full disk kill the run that produced the data. *)
let write_file path content =
  Exom_util.Vfs.write_file_atomic ~tmp:(path ^ ".tmp") path content

let write_chrome path obs = write_file path (Json.to_string (chrome_json obs) ^ "\n")

let write_jsonl path obs =
  write_file path (String.concat "\n" (jsonl_lines obs) ^ "\n")

(* {2 Reading the JSONL log back (`exom stats`)}

   Span records are skipped by the metrics reader and metric records by
   the span reader; unknown record types are skipped by both, so
   minor-version additions stay readable.  A torn final record (a
   crashed or interrupted writer) is salvaged, not fatal: {!Jsonl}
   drops it and names its line. *)

type salvage = Jsonl.salvage = { torn_line : int; torn_byte : int }

let read_log ~on_record content =
  Jsonl.records ~schema:schema_name ~versions:[ schema_version ] ~salvage:true
    ~on_record content

let restore_metric reg j =
  let open Jsonl in
  let* name = str "name" j in
  let* kind_s = str "kind" j in
  match kind_of_string kind_s with
  | None -> Error (Printf.sprintf "unknown metric kind %S" kind_s)
  | Some ((Metrics.Counter | Metrics.Gauge) as kind) ->
    let* value = int "value" j in
    Ok
      (Metrics.restore reg ~kind ~name ~count:0 ~value ~seconds:0.0
         ~min_s:infinity ~max_s:neg_infinity)
  | Some Metrics.Timer ->
    let* count = int "count" j in
    let* seconds = num "seconds" j in
    Ok
      (Metrics.restore reg ~kind:Metrics.Timer ~name ~count ~value:0 ~seconds
         ~min_s:(Result.value ~default:infinity (num "min" j))
         ~max_s:(Result.value ~default:neg_infinity (num "max" j)))

let metrics_of_jsonl content =
  let reg = Metrics.create () in
  let on_record j =
    match Json.member "type" j with
    | Some (Json.Str "metric") -> restore_metric reg j
    | _ -> Ok ()
  in
  Result.map (fun salvage -> (reg, salvage)) (read_log ~on_record content)

(* {2 Reading spans back (`exom trace spine`, `exom audit --spine`)} *)

let span_of_json j =
  let open Jsonl in
  let* id = int "id" j in
  let* parent = int "parent" j in
  let* tid = int "tid" j in
  let* name = str "name" j in
  let* cat = str "cat" j in
  Ok
    { Span.id; parent; tid; name; cat;
      ts_us = Result.value ~default:0.0 (num "ts_us" j);
      dur_us = Result.value ~default:0.0 (num "dur_us" j);
      args = str_pairs "args" j }

let spans_of_jsonl content =
  let acc = ref [] in
  let on_record j =
    match Json.member "type" j with
    | Some (Json.Str "span") ->
      Result.map (fun s -> acc := s :: !acc) (span_of_json j)
    | _ -> Ok ()
  in
  Result.map
    (fun salvage -> (List.rev !acc, salvage))
    (read_log ~on_record content)

(* A Chrome trace-event document written by {!write_chrome}: complete
   ("ph":"X") events whose [args.id]/[args.parent] carry the structural
   ids; other event phases (metadata etc.) are skipped.  It names no
   schema, so its version is checked here. *)
let spans_of_chrome content =
  let open Jsonl in
  let* j = parse content in
  let* version = int "schemaVersion" j in
  if version <> schema_version then
    Error
      (Printf.sprintf "Chrome trace version %d (this reader understands %d)"
         version schema_version)
  else
    let span ev =
      let args = Option.value ~default:Json.Null (Json.member "args" ev) in
      let* name = str "name" ev in
      let* cat = str "cat" ev in
      let* tid = int "tid" ev in
      let* id = int "id" args in
      let* parent = int "parent" args in
      Ok
        (Some
           { Span.id; parent; tid; name; cat;
             ts_us = Result.value ~default:0.0 (num "ts" ev);
             dur_us = Result.value ~default:0.0 (num "dur" ev);
             (* the structural [id]/[parent] are numbers, not args *)
             args = str_pairs "args" ev })
    in
    let* spans =
      list "traceEvents"
        (fun ev ->
          if Json.member "ph" ev = Some (Json.Str "X") then span ev
          else Ok None)
        j
    in
    Ok (List.filter_map Fun.id spans)

(* A JSONL log opens with a header line naming its schema; a Chrome
   document names none.  Chrome documents have no torn-tail salvage
   (they are written atomically as one object). *)
let spans_of_string content =
  match Jsonl.schema_of content with
  | Some _ -> spans_of_jsonl content
  | None -> Result.map (fun spans -> (spans, None)) (spans_of_chrome content)

(* {2 Bare-registry JSONL (campaign metric files, perf snapshots)} *)

let metric_jsonl_lines reg =
  header_line :: List.map metric_line (Metrics.to_list reg)

let write_metrics path reg =
  write_file path (String.concat "\n" (metric_jsonl_lines reg) ^ "\n")
