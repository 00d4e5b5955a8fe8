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

(* {2 Reading the JSONL log back (`exom stats`)} *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let require what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed %s" what)

let check_header line =
  let* j = Json.parse line in
  let* schema = require "schema" Option.(bind (Json.member "schema" j) Json.to_str) in
  let* version =
    require "version" Option.(bind (Json.member "version" j) Json.to_float)
  in
  if schema <> schema_name then Error (Printf.sprintf "foreign schema %S" schema)
  else if int_of_float version <> schema_version then
    Error (Printf.sprintf "schema version %d (expected %d)" (int_of_float version)
             schema_version)
  else Ok ()

let restore_metric reg j =
  let num key = Option.bind (Json.member key j) Json.to_float in
  let* name = require "name" Option.(bind (Json.member "name" j) Json.to_str) in
  let* kind_s = require "kind" Option.(bind (Json.member "kind" j) Json.to_str) in
  let* kind = require "known kind" (kind_of_string kind_s) in
  (match kind with
  | Metrics.Counter | Metrics.Gauge ->
    let* value = require "value" (num "value") in
    Ok
      (Metrics.restore reg ~kind ~name ~count:0 ~value:(int_of_float value)
         ~seconds:0.0 ~min_s:infinity ~max_s:neg_infinity)
  | Metrics.Timer ->
    let* count = require "count" (num "count") in
    let* seconds = require "seconds" (num "seconds") in
    Ok
      (Metrics.restore reg ~kind ~name ~count:(int_of_float count) ~value:0
         ~seconds
         ~min_s:(Option.value ~default:infinity (num "min"))
         ~max_s:(Option.value ~default:neg_infinity (num "max"))))

(* A salvaged torn tail, located for citation: the 1-based line number
   and the byte offset of the line's first byte in the file.  `exom
   audit` and `exom explain` name the tear instead of a bare "the file
   was truncated". *)
type salvage = { torn_line : int; torn_byte : int }

(* Non-blank lines with their 1-based line number and byte offset —
   the offsets survive the blank-line filtering that the record walk
   wants. *)
let located_lines content =
  let rec go lineno offset acc = function
    | [] -> List.rev acc
    | line :: rest ->
      let acc =
        if String.trim line = "" then acc else (lineno, offset, line) :: acc
      in
      go (lineno + 1) (offset + String.length line + 1) acc rest
  in
  go 1 0 [] (String.split_on_char '\n' content)

(* Rebuild the metrics registry from a JSONL log's contents.  Span
   records are skipped (the registry is what `exom stats` renders);
   unknown record types are skipped too, so minor-version additions stay
   readable.

   A malformed {e final} record is salvaged, not fatal: a crashed or
   interrupted writer leaves a torn last line, and everything before it
   is still a well-formed log.  The salvage carries the torn line's position so
   callers can cite it.  A malformed line with records {e after} it is
   real corruption and still errors. *)
let read_jsonl ~on_record content =
  match located_lines content with
  | [] -> Error "empty file"
  | (_, _, header) :: records ->
    let* () = check_header header in
    let rec walk = function
      | [] -> Ok None
      | (lineno, offset, line) :: rest -> (
        let fail e =
          if rest = [] then Ok (Some { torn_line = lineno; torn_byte = offset })
          else Error (Printf.sprintf "line %d: %s" lineno e)
        in
        match Json.parse line with
        | Error e -> fail e
        | Ok j -> (
          match on_record j with
          | Ok () -> walk rest
          | Error e -> fail e))
    in
    walk records

let metrics_of_jsonl content =
  let reg = Metrics.create () in
  let on_record j =
    match Option.bind (Json.member "type" j) Json.to_str with
    | Some "metric" -> restore_metric reg j
    | _ -> Ok ()
  in
  let* salvage = read_jsonl ~on_record content in
  Ok (reg, salvage)

(* {2 Reading spans back (`exom trace spine`, `exom audit --spine`)} *)

let span_of_json j =
  let num key = Option.bind (Json.member key j) Json.to_float in
  let* id = require "id" (num "id") in
  let* parent = require "parent" (num "parent") in
  let* tid = require "tid" (num "tid") in
  let* name = require "name" Option.(bind (Json.member "name" j) Json.to_str) in
  let* cat = require "cat" Option.(bind (Json.member "cat" j) Json.to_str) in
  let args =
    match Json.member "args" j with
    | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
        kvs
    | _ -> []
  in
  Ok
    {
      Span.id = int_of_float id;
      parent = int_of_float parent;
      tid = int_of_float tid;
      name;
      cat;
      ts_us = Option.value ~default:0.0 (num "ts_us");
      dur_us = Option.value ~default:0.0 (num "dur_us");
      args;
    }

let spans_of_jsonl content =
  let acc = ref [] in
  let on_record j =
    match Option.bind (Json.member "type" j) Json.to_str with
    | Some "span" ->
      let* s = span_of_json j in
      Ok (acc := s :: !acc)
    | _ -> Ok ()
  in
  let* salvage = read_jsonl ~on_record content in
  Ok (List.rev !acc, salvage)

(* A Chrome trace-event document written by {!write_chrome}: complete
   ("ph":"X") events whose [args.id]/[args.parent] carry the structural
   ids; other event phases (metadata etc.) are skipped. *)
let spans_of_chrome content =
  let* j = Json.parse (String.trim content) in
  let* version =
    require "schemaVersion"
      Option.(bind (Json.member "schemaVersion" j) Json.to_float)
  in
  if int_of_float version <> schema_version then
    Error
      (Printf.sprintf "schema version %d (expected %d)" (int_of_float version)
         schema_version)
  else
    let* events =
      require "traceEvents"
        Option.(bind (Json.member "traceEvents" j) Json.to_list)
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | ev :: rest -> (
        match Option.bind (Json.member "ph" ev) Json.to_str with
        | Some "X" ->
          let num key = Option.bind (Json.member key ev) Json.to_float in
          let* name =
            require "name" Option.(bind (Json.member "name" ev) Json.to_str)
          in
          let* cat =
            require "cat" Option.(bind (Json.member "cat" ev) Json.to_str)
          in
          let* tid = require "tid" (num "tid") in
          let* args = require "args" (Json.member "args" ev) in
          let anum key = Option.bind (Json.member key args) Json.to_float in
          let* id = require "args.id" (anum "id") in
          let* parent = require "args.parent" (anum "parent") in
          let user_args =
            match args with
            | Json.Obj kvs ->
              List.filter_map
                (fun (k, v) ->
                  if k = "id" || k = "parent" then None
                  else Option.map (fun s -> (k, s)) (Json.to_str v))
                kvs
            | _ -> []
          in
          go
            ({
               Span.id = int_of_float id;
               parent = int_of_float parent;
               tid = int_of_float tid;
               name;
               cat;
               ts_us = Option.value ~default:0.0 (num "ts");
               dur_us = Option.value ~default:0.0 (num "dur");
               args = user_args;
             }
            :: acc)
            rest
        | _ -> go acc rest)
    in
    go [] events

(* Sniff the container: a Chrome document is one JSON object (first
   non-blank byte '{' and a "traceEvents" member); everything else is
   treated as a JSONL log.  Chrome documents have no torn-tail salvage
   (they are written atomically as one object). *)
let spans_of_string content =
  let is_chrome =
    match Json.parse (String.trim content) with
    | Ok j -> Json.member "traceEvents" j <> None
    | Error _ -> false
  in
  if is_chrome then
    let* spans = spans_of_chrome content in
    Ok (spans, None)
  else spans_of_jsonl content

(* {2 Bare-registry JSONL (campaign metric files, perf snapshots)} *)

let metric_jsonl_lines reg =
  header_line :: List.map metric_line (Metrics.to_list reg)

let write_metrics path reg =
  write_file path (String.concat "\n" (metric_jsonl_lines reg) ^ "\n")
