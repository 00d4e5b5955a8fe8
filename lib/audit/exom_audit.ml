(* Cross-run audit: one verdict composed from the deterministic
   comparators the pipeline already trusts individually — the span
   spine ({!Exom_obs.Spine}), metric drift ({!Exom_obs.Metrics.drift}),
   the ledger event stream, and the resume-marker lineage of salvaged
   journals.  `exom audit RUN_A RUN_B` is the CLI face; the CI trace
   gate and the regression harness call the same functions.

   A "run" here is any artifact a localization leaves behind: a Chrome
   trace (`--trace-out`), an observability JSONL log (`--metrics-out`),
   or a ledger/journal.  {!load} sniffs the format and extracts
   whatever legs the file supports; {!audit} compares the legs both
   sides have (or exactly the legs the caller requests) and
   {!clean}/{!render} turn the result into an exit code and a
   post-mortem. *)

module Span = Exom_obs.Span
module Spine = Exom_obs.Spine
module Metrics = Exom_obs.Metrics
module Export = Exom_obs.Export
module Ledger = Exom_ledger.Ledger
module Json = Exom_obs.Json
module Jsonl = Exom_obs.Jsonl
module Vfs = Exom_util.Vfs

(* {2 Loading runs} *)

type run = {
  path : string;
  spans : Span.t list option;
  metrics : Metrics.t option;
  events : Ledger.event list option;
  resumes : Ledger.resume_info list;
      (* resume-marker payloads when the file is a journal *)
  torn : Jsonl.salvage option;  (* the journal's or obs log's torn tail *)
}

let empty path =
  { path; spans = None; metrics = None; events = None; resumes = [];
    torn = None }

(* Sniff: ledger header -> tolerant journal read (markers kept); any
   other file -> its spans, and its metrics when it is an obs JSONL log
   (a Chrome trace names no schema and carries no metrics). *)
let load path =
  let open Jsonl in
  let* content =
    Result.map_error (fun e -> e.Vfs.ve_msg) (Vfs.read_file path)
  in
  if Ledger.is_ledger content then
    let* r = Ledger.recover_string content in
    Ok
      { (empty path) with
        events = Some r.Ledger.r_events;
        resumes = r.Ledger.r_resumes;
        torn = r.Ledger.r_torn;
      }
  else
    let* spans, torn = Export.spans_of_string content in
    let* metrics =
      if schema_of content = None then Ok None
      else Result.map (fun (m, _) -> Some m) (Export.metrics_of_jsonl content)
    in
    Ok { (empty path) with spans = Some spans; metrics; torn }

(* {2 The verdict} *)

type leg = Spine_leg | Metrics_leg | Ledger_leg

type ledger_diff = {
  ld_equal : bool;
  ld_older : int;  (* event counts *)
  ld_newer : int;
  ld_divergence : (int * string * string) option;
      (* first differing event: 0-based index, both renderings; [None]
         with [ld_equal = false] means one stream is a strict prefix *)
}

type t = {
  a : run;
  b : run;
  lanes : Spine.lanes;
  spine : (Spine.t * Spine.t * Spine.edit list) option;
  drift : Metrics.drift_finding list option;
  ledger : ledger_diff option;
}

let diff_ledgers ea eb =
  let ja = List.map (fun e -> Json.to_string (Ledger.event_json e)) ea in
  let jb = List.map (fun e -> Json.to_string (Ledger.event_json e)) eb in
  let rec first_div i xs ys =
    match (xs, ys) with
    | [], [] | [], _ | _, [] -> None
    | x :: xs', y :: ys' ->
      if x = y then first_div (i + 1) xs' ys' else Some (i, x, y)
  in
  let div = first_div 0 ja jb in
  {
    ld_equal = ja = jb;
    ld_older = List.length ja;
    ld_newer = List.length jb;
    ld_divergence = div;
  }

(* Compare the legs both runs support, or exactly [legs] when given
   (an explicitly requested leg one side cannot provide is an error —
   a gate must not silently pass by comparing nothing). *)
let audit ?(lanes = Spine.All) ?(tolerance = 0.0) ?direction_of ?legs a b =
  let open Jsonl in
  let want leg =
    match legs with None -> true | Some ls -> List.mem leg ls
  in
  let explicit = legs <> None in
  let missing what p = Error (Printf.sprintf "%s has no %s" p what) in
  let* spine =
    match (want Spine_leg, a.spans, b.spans) with
    | false, _, _ -> Ok None
    | true, Some sa, Some sb ->
      let pa = Spine.of_spans ~lanes sa and pb = Spine.of_spans ~lanes sb in
      Ok (Some (pa, pb, Spine.diff pa pb))
    | true, None, _ when explicit -> missing "spans" a.path
    | true, _, None when explicit -> missing "spans" b.path
    | true, _, _ -> Ok None
  in
  let* drift =
    match (want Metrics_leg, a.metrics, b.metrics) with
    | false, _, _ -> Ok None
    | true, Some ma, Some mb -> Ok (Some (Metrics.drift ~tolerance ?direction_of ma mb))
    | true, None, _ when explicit -> missing "metrics" a.path
    | true, _, None when explicit -> missing "metrics" b.path
    | true, _, _ -> Ok None
  in
  let* ledger =
    match (want Ledger_leg, a.events, b.events) with
    | false, _, _ -> Ok None
    | true, Some ea, Some eb -> Ok (Some (diff_ledgers ea eb))
    | true, None, _ when explicit -> missing "ledger events" a.path
    | true, _, None when explicit -> missing "ledger events" b.path
    | true, _, _ -> Ok None
  in
  if spine = None && drift = None && ledger = None then
    Error
      (Printf.sprintf "nothing to compare: %s and %s share no comparable leg"
         a.path b.path)
  else Ok { a; b; lanes; spine; drift; ledger }

let clean t =
  (match t.spine with Some (_, _, edits) -> edits = [] | None -> true)
  && (match t.drift with
     | Some findings -> not (Metrics.has_drift findings)
     | None -> true)
  && match t.ledger with Some d -> d.ld_equal | None -> true

(* {2 Rendering} *)

let render_lineage b run =
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  if run.resumes <> [] || run.torn <> None then begin
    pr "  %s:\n" run.path;
    List.iteri
      (fun i (g : Ledger.resume_info) ->
        pr "    resume %d: replayed %d event%s%s\n" (i + 1)
          g.Ledger.ri_replayed
          (if g.Ledger.ri_replayed = 1 then "" else "s")
          (if g.Ledger.ri_truncated then
             " (predecessor's torn tail dropped)"
           else ""))
      run.resumes;
    match run.torn with
    | Some { Jsonl.torn_line; torn_byte } ->
      pr "    %s torn at line %d (byte %d); tail dropped\n"
        (if run.events = None then "obs log" else "journal")
        torn_line torn_byte
    | None -> ()
  end

let render t =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "=== Audit: %s vs %s ===\n" t.a.path t.b.path;
  if
    t.a.resumes <> [] || t.b.resumes <> [] || t.a.torn <> None
    || t.b.torn <> None
  then begin
    pr "\n--- Lineage ---\n";
    render_lineage b t.a;
    render_lineage b t.b
  end;
  (match t.spine with
  | None -> ()
  | Some (pa, pb, edits) ->
    pr "\n--- Spine (%s lanes) ---\n" (Spine.lanes_to_string t.lanes);
    pr "%d vs %d spans\n" (Spine.size pa) (Spine.size pb);
    Buffer.add_string b (Spine.render_edits edits));
  (match t.drift with
  | None -> ()
  | Some findings ->
    pr "\n--- Metric drift ---\n";
    Buffer.add_string b (Metrics.render_drift findings));
  (match t.ledger with
  | None -> ()
  | Some d ->
    pr "\n--- Ledger ---\n";
    if d.ld_equal then pr "event streams identical (%d events)\n" d.ld_older
    else begin
      pr "event streams differ: %d vs %d events\n" d.ld_older d.ld_newer;
      match d.ld_divergence with
      | Some (i, x, y) ->
        let clip s =
          if String.length s > 160 then String.sub s 0 157 ^ "..." else s
        in
        pr "first divergence at event %d:\n  older: %s\n  newer: %s\n" i
          (clip x) (clip y)
      | None ->
        pr "one stream is a strict prefix of the other (a killed or \
            still-running journal?)\n"
    end);
  pr "\nverdict: %s\n" (if clean t then "CLEAN" else "DRIFT");
  Buffer.contents b

(* The salvaged journal's resume markers, for [exom explain]'s
   "Resume replay" section ({!Exom_ledger.Explain.render}'s [?replay]). *)
let replay_of run = run.resumes
