module Json = Exom_obs.Json
module Vfs = Exom_util.Vfs

(* The provenance ledger.  Events are plain data — everything the
   narrative renderer needs (source lines, occurrence counts, verdicts,
   alignment points) is resolved at append time, so a ledger file is
   self-contained.  The serialized form is a versioned JSONL stream in
   the style of Exom_obs.Export: a self-describing header line, then
   one event object per line, discriminated by an "ev" field.

   Nothing non-deterministic may enter an event: cost is recorded as
   interpreter steps and registry run counts, never wall-clock seconds,
   which is what makes the -j1 ≡ -j4 byte-identity contract hold. *)

let schema_name = "exom.ledger"

(* v2: Checkpoint events (resumable guard/store state after every
   batch) and journal marker lines.
   v3: Rank events (evidence-driven ordering and early-exit decisions
   per expansion).  v2 files read back unchanged — they simply contain
   no rank events. *)
let schema_version = 3

(* Every version whose event vocabulary is a subset of ours reads back
   losslessly. *)
let readable_versions = [ 2; 3 ]

type inst = { idx : int; sid : int; line : int; occ : int }

type run_info = { outcome : string; steps : int; switch_fired : bool }

type align_info = {
  counterpart : int option;
  ox_counterpart : int option;
  ox_restored : bool;
  rerouted : bool;
}

type verify_ev = {
  vp : inst;
  vu : inst;
  verdict : string;
  value_affected : bool;
  source : string;
  run : run_info option;
  align : align_info option;
  failure : string option;
}

type slice_entry = {
  s_idx : int;
  s_sid : int;
  s_line : int;
  s_conf : float;
  s_dist : int;
}

(* The resumable state written after every batch: cumulative guard
   counters, the full failure journal (sid, failure code), every
   materialized circuit breaker, cumulative store counters.  All of it
   is deterministic (merged in submission order upstream), so
   checkpoints don't break the -j byte-identity contract; cumulative
   rather than delta form means the *last* replayed checkpoint alone
   restores a resumed session. *)
type guard_counts = {
  g_completed : int;
  g_aborted : int;
  g_breaker_trips : int;
  g_breaker_skips : int;
  g_captured : int;
}

type breaker_info = { b_sid : int; b_consecutive : int; b_opened : bool }

type store_counts = {
  st_hits : int;
  st_disk_hits : int;
  st_misses : int;
  st_corrupted : int;
  st_writes : int;
}

type checkpoint = {
  ck_guard : guard_counts;
  ck_failures : (int * string) list;  (* (sid, Guard failure code) *)
  ck_breakers : breaker_info list;  (* sorted by sid *)
  ck_store : store_counts;
}

(* One ranked candidate of an expansion: where the scorer put it and
   whether the early-exit policy kept it for verification.  Scores are
   rounded to 4 decimals upstream ({!Exom_rank}), so recording them
   does not import float-printing instability. *)
type rank_decision = {
  rd_idx : int;
  rd_sid : int;
  rd_score : float;
  rd_kept : bool;
}

type event =
  | Session of {
      wrong : inst;
      vexp : string option;
      correct_outputs : int;
      budget : int;
      trace_len : int;
      chaos : string option;
    }
  | Locate of { root_sids : int list; mode : string; max_iterations : int }
  | Slice of {
      iter : int;
      entries : slice_entry list;
      added : int list;
      removed : int list;
    }
  | Prune of { iter : int; marked : int list }
  | Expand of { iter : int; u : inst; candidates : int list }
  | Rank of { iter : int; u : inst; prior : float; decisions : rank_decision list }
  | Verify of verify_ev
  | Edge of {
      ep : inst;
      eu : inst;
      strength : string;
      value_affected : bool;
      related : bool;
    }
  | Batch of {
      queries : int;
      unique : int;
      cache_hits : int;
      runs : int;
      total_runs : int;
    }
  | Checkpoint of checkpoint
  | Final of {
      found : bool;
      iterations : int;
      edges : int;
      user_prunings : int;
      total_prunings : int;
      verifications : int;
      queries : int;
      os_chain : int list option;
      degraded : string option;
    }

(* The journal sink: when attached, every appended event is also
   written through an out_channel (one JSONL line, flushed per event so
   a kill loses at most the unflushed tail of one line), and {!sync}
   fsyncs at iteration boundaries.  [on_push] is wired by
   {!attach_journal} (the encoder lives further down this file). *)
type sink = { s_oc : out_channel; s_fd : Unix.file_descr; s_path : string }

type t = {
  mutable rev_events : event list;
  mutable prev_slice : int list;  (* instance ids of the last snapshot *)
  mutable sink : sink option;
  mutable on_push : event -> unit;
  mutable io_failures : int;
      (* journal writes/syncs that failed and were absorbed: the run
         must be marked DEGRADED by the caller, never silently lose
         provenance *)
}

let create () =
  { rev_events = []; prev_slice = []; sink = None; on_push = ignore;
    io_failures = 0 }

let io_failures t = t.io_failures

let events t = List.rev t.rev_events

let push t e =
  t.rev_events <- e :: t.rev_events;
  t.on_push e

(* {2 Appending} *)

let session ?chaos t ~wrong ~vexp ~correct_outputs ~budget ~trace_len =
  push t (Session { wrong; vexp; correct_outputs; budget; trace_len; chaos })

let locate t ~root_sids ~mode ~max_iterations =
  push t (Locate { root_sids; mode; max_iterations })

let slice t ~iter entries =
  let ids = List.map (fun e -> e.s_idx) entries in
  let module S = Set.Make (Int) in
  let now = S.of_list ids and before = S.of_list t.prev_slice in
  let added = S.elements (S.diff now before) in
  let removed = S.elements (S.diff before now) in
  t.prev_slice <- ids;
  push t (Slice { iter; entries; added; removed })

let prune t ~iter ~marked = push t (Prune { iter; marked })
let expand t ~iter ~u ~candidates = push t (Expand { iter; u; candidates })

let rank t ~iter ~u ~prior ~decisions =
  push t (Rank { iter; u; prior; decisions })

let verify t ~p ~u ~verdict ~value_affected ~source ?run ?align ?failure () =
  push t
    (Verify
       { vp = p; vu = u; verdict; value_affected; source; run; align; failure })

let edge t ~p ~u ~strength ~value_affected ~related =
  push t (Edge { ep = p; eu = u; strength; value_affected; related })

let batch t ~queries ~unique ~cache_hits ~runs ~total_runs =
  push t (Batch { queries; unique; cache_hits; runs; total_runs })

let checkpoint t ck = push t (Checkpoint ck)

(* Verbatim re-emission of a recovered event (resume replay): same path
   as the typed appenders, so an attached journal records it too.  Note
   it bypasses the slice-delta state on purpose — replayed batches only
   carry Verify/Batch/Checkpoint events; Slice events are re-emitted
   live by the resumed demand loop through [slice]. *)
let append t e = push t e

let final t ~found ~iterations ~edges ~user_prunings ~total_prunings
    ~verifications ~queries ~os_chain ~degraded =
  push t
    (Final
       {
         found;
         iterations;
         edges;
         user_prunings;
         total_prunings;
         verifications;
         queries;
         os_chain;
         degraded;
       })

(* {2 Encoding} *)

let num n = Json.Num (float_of_int n)
let ints l = Json.Arr (List.map num l)
let opt_str = function None -> Json.Null | Some s -> Json.Str s
let opt_num = function None -> Json.Null | Some n -> num n

let inst_json i =
  Json.Obj
    [ ("idx", num i.idx); ("sid", num i.sid); ("line", num i.line);
      ("occ", num i.occ) ]

let run_json r =
  Json.Obj
    [
      ("outcome", Json.Str r.outcome);
      ("steps", num r.steps);
      ("switch_fired", Json.Bool r.switch_fired);
    ]

let align_json a =
  Json.Obj
    [
      ("counterpart", opt_num a.counterpart);
      ("ox_counterpart", opt_num a.ox_counterpart);
      ("ox_restored", Json.Bool a.ox_restored);
      ("rerouted", Json.Bool a.rerouted);
    ]

let entry_json e =
  Json.Obj
    [
      ("idx", num e.s_idx); ("sid", num e.s_sid); ("line", num e.s_line);
      ("conf", Json.Num e.s_conf); ("dist", num e.s_dist);
    ]

let event_json = function
  | Session { wrong; vexp; correct_outputs; budget; trace_len; chaos } ->
    Json.Obj
      ([
         ("ev", Json.Str "session");
         ("wrong", inst_json wrong);
         ("vexp", opt_str vexp);
         ("correct_outputs", num correct_outputs);
         ("budget", num budget);
         ("trace_len", num trace_len);
       ]
      (* only when set: a clean run's ledger keeps its bytes *)
      @ match chaos with None -> [] | Some c -> [ ("chaos", Json.Str c) ])
  | Locate { root_sids; mode; max_iterations } ->
    Json.Obj
      [
        ("ev", Json.Str "locate");
        ("root_sids", ints root_sids);
        ("mode", Json.Str mode);
        ("max_iterations", num max_iterations);
      ]
  | Slice { iter; entries; added; removed } ->
    Json.Obj
      [
        ("ev", Json.Str "slice");
        ("iter", num iter);
        ("entries", Json.Arr (List.map entry_json entries));
        ("added", ints added);
        ("removed", ints removed);
      ]
  | Prune { iter; marked } ->
    Json.Obj
      [ ("ev", Json.Str "prune"); ("iter", num iter); ("marked", ints marked) ]
  | Expand { iter; u; candidates } ->
    Json.Obj
      [
        ("ev", Json.Str "expand");
        ("iter", num iter);
        ("u", inst_json u);
        ("candidates", ints candidates);
      ]
  | Rank { iter; u; prior; decisions } ->
    Json.Obj
      [
        ("ev", Json.Str "rank");
        ("iter", num iter);
        ("u", inst_json u);
        ("prior", Json.Num prior);
        (* fixed-position arrays keep rank lines compact *)
        ( "decisions",
          Json.Arr
            (List.map
               (fun d ->
                 Json.Arr
                   [ num d.rd_idx; num d.rd_sid; Json.Num d.rd_score;
                     Json.Bool d.rd_kept ])
               decisions) );
      ]
  | Verify v ->
    Json.Obj
      [
        ("ev", Json.Str "verify");
        ("p", inst_json v.vp);
        ("u", inst_json v.vu);
        ("verdict", Json.Str v.verdict);
        ("value_affected", Json.Bool v.value_affected);
        ("source", Json.Str v.source);
        ("run", (match v.run with None -> Json.Null | Some r -> run_json r));
        ( "align",
          match v.align with None -> Json.Null | Some a -> align_json a );
        ("failure", opt_str v.failure);
      ]
  | Edge { ep; eu; strength; value_affected; related } ->
    Json.Obj
      [
        ("ev", Json.Str "edge");
        ("p", inst_json ep);
        ("u", inst_json eu);
        ("strength", Json.Str strength);
        ("value_affected", Json.Bool value_affected);
        ("related", Json.Bool related);
      ]
  | Batch { queries; unique; cache_hits; runs; total_runs } ->
    Json.Obj
      [
        ("ev", Json.Str "batch");
        ("queries", num queries);
        ("unique", num unique);
        ("cache_hits", num cache_hits);
        ("runs", num runs);
        ("total_runs", num total_runs);
      ]
  | Checkpoint ck ->
    let g = ck.ck_guard and s = ck.ck_store in
    Json.Obj
      [
        ("ev", Json.Str "checkpoint");
        (* fixed-position arrays keep checkpoint lines compact; guard
           slots 3, 4 and 8 and store slot 4 held counters that no
           longer exist and stay 0, so ledgers keep their bytes *)
        ( "guard",
          ints
            [ g.g_completed; g.g_aborted; 0; 0; g.g_breaker_trips;
              g.g_breaker_skips; g.g_captured; 0 ] );
        ( "failures",
          Json.Arr
            (List.map
               (fun (sid, code) -> Json.Arr [ num sid; Json.Str code ])
               ck.ck_failures) );
        ( "breakers",
          Json.Arr
            (List.map
               (fun b ->
                 Json.Arr
                   [ num b.b_sid; num b.b_consecutive;
                     Json.Bool b.b_opened ])
               ck.ck_breakers) );
        ( "store",
          ints
            [ s.st_hits; s.st_disk_hits; s.st_misses; 0; s.st_corrupted;
              s.st_writes ] );
      ]
  | Final f ->
    Json.Obj
      [
        ("ev", Json.Str "final");
        ("found", Json.Bool f.found);
        ("iterations", num f.iterations);
        ("edges", num f.edges);
        ("user_prunings", num f.user_prunings);
        ("total_prunings", num f.total_prunings);
        ("verifications", num f.verifications);
        ("queries", num f.queries);
        ( "os_chain",
          match f.os_chain with None -> Json.Null | Some l -> ints l );
        ("degraded", opt_str f.degraded);
      ]

let header_line =
  Json.to_string
    (Json.Obj
       [
         ("type", Json.Str "header");
         ("schema", Json.Str schema_name);
         ("version", Json.Num (float_of_int schema_version));
       ])

let string_of_events evs =
  String.concat "\n" (header_line :: List.map (fun e -> Json.to_string (event_json e)) evs)
  ^ "\n"

let to_string t = string_of_events (events t)

(* Crash-consistent canonical write: temp file + rename, like the
   store's entry writer — a kill mid-write leaves either the old file
   or the new one, never a torn hybrid.  Checked: callers that can
   degrade use [write_result]; [write] keeps the raising contract. *)
let write_result path t =
  Vfs.write_file_atomic ~tmp:(path ^ ".tmp") path (to_string t)

let write path t =
  match write_result path t with
  | Ok () -> ()
  | Error e -> raise (Vfs.Io_error e)

(* {2 The write-ahead journal} *)

(* Journal appends are checked: a failed line (ENOSPC under a storm)
   counts in [io_failures] and is absorbed — the in-memory ledger still
   carries the event, so the canonical [write] can recover it; what is
   lost is crash-replay coverage, which the caller must surface as a
   DEGRADED run. *)
let journal_line t sink line =
  try
    output_string sink.s_oc line;
    output_char sink.s_oc '\n';
    flush sink.s_oc
  with Sys_error msg ->
    t.io_failures <- t.io_failures + 1;
    Vfs.ack
      { Vfs.ve_op = Vfs.Write; ve_path = sink.s_path; ve_fault = None;
        ve_msg = msg }
      ~by:"ledger.io_failures"

let attach_journal t path =
  (match t.sink with
  | Some _ -> invalid_arg "Ledger.attach_journal: journal already attached"
  | None -> ());
  match open_out_bin path with
  | exception Sys_error msg ->
    (* no sink: the run loses crash-replay coverage, not provenance —
       the caller surfaces the degradation *)
    t.io_failures <- t.io_failures + 1;
    Vfs.ack
      { Vfs.ve_op = Vfs.Write; ve_path = path; ve_fault = None; ve_msg = msg }
      ~by:"ledger.io_failures"
  | oc ->
    let sink =
      { s_oc = oc; s_fd = Unix.descr_of_out_channel oc; s_path = path }
    in
    t.sink <- Some sink;
    t.on_push <- (fun e -> journal_line t sink (Json.to_string (event_json e)));
    journal_line t sink header_line;
    List.iter t.on_push (events t)

let journal_path t = Option.map (fun s -> s.s_path) t.sink

(* A non-event meta line, skipped (but counted) by {!recover_string}:
   the explicit record that this journal is a resumed continuation, and
   whether the predecessor's tail was torn. *)
let resume_marker t ~replayed ~truncated =
  match t.sink with
  | None -> ()
  | Some sink ->
    journal_line t sink
      (Json.to_string
         (Json.Obj
            [
              ("type", Json.Str "resume");
              ("replayed", Json.Num (float_of_int replayed));
              ("truncated", Json.Bool truncated);
            ]))

(* Make the journal durable.  Never raises: a failed fsync — real or
   injected — counts in [io_failures] and the caller marks the run
   DEGRADED; aborting a localization over durability would lose more
   provenance than it protects. *)
let sync t =
  match t.sink with
  | None -> ()
  | Some sink -> (
    match Vfs.sync_channel sink.s_path sink.s_oc with
    | Ok () -> ()
    | Error e ->
      t.io_failures <- t.io_failures + 1;
      Vfs.ack e ~by:"ledger.io_failures")

let close_journal t =
  match t.sink with
  | None -> ()
  | Some sink ->
    (try
       flush sink.s_oc;
       close_out sink.s_oc
     with Sys_error msg ->
       t.io_failures <- t.io_failures + 1;
       Vfs.ack
         { Vfs.ve_op = Vfs.Close; ve_path = sink.s_path; ve_fault = None;
           ve_msg = msg }
         ~by:"ledger.io_failures");
    t.sink <- None;
    t.on_push <- ignore

(* {2 Decoding} *)

module Jsonl = Exom_obs.Jsonl

(* A nested object's errors name it: [wrong: missing or ill-typed
   integer "idx"]. *)
let within key = function
  | Ok _ as ok -> ok
  | Error e -> Error (key ^ ": " ^ e)

let parse_inst j key =
  let open Jsonl in
  let o = Option.value ~default:Json.Null (Json.member key j) in
  within key
    (let* idx = int "idx" o in
     let* sid = int "sid" o in
     let* line = int "line" o in
     let* occ = int "occ" o in
     Ok { idx; sid; line; occ })

(* A [null] or absent object reads as [None]. *)
let nullable key decode j =
  match Json.member key j with
  | None | Some Json.Null -> Ok None
  | Some o -> within key (Result.map Option.some (decode o))

let parse_run o =
  let open Jsonl in
  let* outcome = str "outcome" o in
  let* steps = int "steps" o in
  let* switch_fired = bool "switch_fired" o in
  Ok { outcome; steps; switch_fired }

let parse_align o =
  let open Jsonl in
  let* counterpart = opt_int "counterpart" o in
  let* ox_counterpart = opt_int "ox_counterpart" o in
  let* ox_restored = bool "ox_restored" o in
  let* rerouted = bool "rerouted" o in
  Ok { counterpart; ox_counterpart; ox_restored; rerouted }

let parse_entry o =
  let open Jsonl in
  let* s_idx = int "idx" o in
  let* s_sid = int "sid" o in
  let* s_line = int "line" o in
  let* s_conf = num "conf" o in
  let* s_dist = int "dist" o in
  Ok { s_idx; s_sid; s_line; s_conf; s_dist }

(* An array of fixed-position rows, each decoded by [row]. *)
let rows key shape row j =
  Jsonl.list key
    (fun r ->
      match row r with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "%s: expected %s rows" key shape))
    j

let parse_event j =
  let open Jsonl in
  let* ev = str "ev" j in
  match ev with
  | "session" ->
    let* wrong = parse_inst j "wrong" in
    let* vexp = opt_str "vexp" j in
    let* correct_outputs = int "correct_outputs" j in
    let* budget = int "budget" j in
    let* trace_len = int "trace_len" j in
    let* chaos = opt_str "chaos" j in
    Ok (Session { wrong; vexp; correct_outputs; budget; trace_len; chaos })
  | "locate" ->
    let* root_sids = ints "root_sids" j in
    let* mode = str "mode" j in
    let* max_iterations = int "max_iterations" j in
    Ok (Locate { root_sids; mode; max_iterations })
  | "slice" ->
    let* iter = int "iter" j in
    let* entries = within "entries" (list "entries" parse_entry j) in
    let* added = ints "added" j in
    let* removed = ints "removed" j in
    Ok (Slice { iter; entries; added; removed })
  | "prune" ->
    let* iter = int "iter" j in
    let* marked = ints "marked" j in
    Ok (Prune { iter; marked })
  | "expand" ->
    let* iter = int "iter" j in
    let* u = parse_inst j "u" in
    let* candidates = ints "candidates" j in
    Ok (Expand { iter; u; candidates })
  | "rank" ->
    let* iter = int "iter" j in
    let* u = parse_inst j "u" in
    let* prior = num "prior" j in
    let* decisions =
      rows "decisions" "[idx, sid, score, kept]"
        (function
          | Json.Arr [ idx; sid; Json.Num rd_score; Json.Bool rd_kept ] -> (
            match (Json.to_int idx, Json.to_int sid) with
            | Some rd_idx, Some rd_sid ->
              Some { rd_idx; rd_sid; rd_score; rd_kept }
            | _ -> None)
          | _ -> None)
        j
    in
    Ok (Rank { iter; u; prior; decisions })
  | "verify" ->
    let* vp = parse_inst j "p" in
    let* vu = parse_inst j "u" in
    let* verdict = str "verdict" j in
    let* value_affected = bool "value_affected" j in
    let* source = str "source" j in
    let* run = nullable "run" parse_run j in
    let* align = nullable "align" parse_align j in
    let* failure = opt_str "failure" j in
    Ok
      (Verify
         { vp; vu; verdict; value_affected; source; run; align; failure })
  | "edge" ->
    let* ep = parse_inst j "p" in
    let* eu = parse_inst j "u" in
    let* strength = str "strength" j in
    let* value_affected = bool "value_affected" j in
    let* related = bool "related" j in
    Ok (Edge { ep; eu; strength; value_affected; related })
  | "batch" ->
    let* queries = int "queries" j in
    let* unique = int "unique" j in
    let* cache_hits = int "cache_hits" j in
    let* runs = int "runs" j in
    let* total_runs = int "total_runs" j in
    Ok (Batch { queries; unique; cache_hits; runs; total_runs })
  | "checkpoint" ->
    let* g =
      let* g = ints "guard" j in
      match g with
      | [ c; a; _; _; bt; bs; cap; _ ] ->
        Ok
          { g_completed = c; g_aborted = a; g_breaker_trips = bt;
            g_breaker_skips = bs; g_captured = cap }
      | _ -> Error "checkpoint.guard: expected 8 counters"
    in
    let* failures =
      rows "failures" "[sid, code]"
        (function
          | Json.Arr [ sid; Json.Str code ] ->
            Option.map (fun sid -> (sid, code)) (Json.to_int sid)
          | _ -> None)
        j
    in
    let* breakers =
      rows "breakers" "[sid, n, opened]"
        (function
          | Json.Arr [ sid; n; Json.Bool b_opened ] -> (
            match (Json.to_int sid, Json.to_int n) with
            | Some b_sid, Some b_consecutive ->
              Some { b_sid; b_consecutive; b_opened }
            | _ -> None)
          | _ -> None)
        j
    in
    let* s =
      let* s = ints "store" j in
      match s with
      | [ h; dh; m; _; c; w ] ->
        Ok
          { st_hits = h; st_disk_hits = dh; st_misses = m; st_corrupted = c;
            st_writes = w }
      | _ -> Error "checkpoint.store: expected 6 counters"
    in
    Ok
      (Checkpoint
         { ck_guard = g; ck_failures = failures; ck_breakers = breakers;
           ck_store = s })
  | "final" ->
    let* found = bool "found" j in
    let* iterations = int "iterations" j in
    let* edges = int "edges" j in
    let* user_prunings = int "user_prunings" j in
    let* total_prunings = int "total_prunings" j in
    let* verifications = int "verifications" j in
    let* queries = int "queries" j in
    let* os_chain =
      match Json.member "os_chain" j with
      | None | Some Json.Null -> Ok None
      | Some _ -> Result.map Option.some (ints "os_chain" j)
    in
    let* degraded = opt_str "degraded" j in
    Ok
      (Final
         { found; iterations; edges; user_prunings; total_prunings;
           verifications; queries; os_chain; degraded })
  | other -> Error (Printf.sprintf "unknown event %S" other)

let is_ledger content = Jsonl.schema_of content = Some schema_name

let read_records ~salvage ~on_record content =
  Jsonl.records ~schema:schema_name ~versions:readable_versions ~salvage
    ~on_record content

let of_string content =
  let acc = ref [] in
  let on_record j = Result.map (fun e -> acc := e :: !acc) (parse_event j) in
  Result.map
    (fun _ -> List.rev !acc)
    (read_records ~salvage:false ~on_record content)

(* {2 Salvage of a killed run's journal}

   Unlike {!of_string} (strict: canonical files must be perfect), the
   recovery reader accepts what a SIGKILL leaves behind: meta lines
   ("type" objects — resume markers) are skipped and counted, and a
   final line that does not decode is dropped as the torn tail.
   Corruption anywhere earlier still rejects — a journal whose middle
   is damaged cannot be trusted as a replay source. *)

type resume_info = {
  ri_replayed : int;  (* events replayed into the generation *)
  ri_truncated : bool;  (* that resume salvaged a torn predecessor *)
}

type recovery = {
  r_events : event list;
  r_torn : Jsonl.salvage option;  (* the torn last line, dropped *)
  r_markers : int;  (* resume markers seen (prior resumes) *)
  r_resumes : resume_info list;
      (* the markers' payloads, file order: where each resumed
         generation's replayed prefix ends *)
}

let recover_string content =
  let open Jsonl in
  let events = ref [] and markers = ref 0 and resumes = ref [] in
  let on_record j =
    match Json.member "type" j with
    | Some (Json.Str kind) ->
      (* meta line; a resume marker's payload is kept so lineage walks
         can split replayed prefix from live tail *)
      let* () =
        if kind <> "resume" then Ok ()
        else
          let* ri_replayed = int "replayed" j in
          let* ri_truncated = bool "truncated" j in
          Ok (resumes := { ri_replayed; ri_truncated } :: !resumes)
      in
      Ok (incr markers)
    | _ -> Result.map (fun e -> events := e :: !events) (parse_event j)
  in
  let* torn = read_records ~salvage:true ~on_record content in
  Ok
    { r_events = List.rev !events; r_torn = torn; r_markers = !markers;
      r_resumes = List.rev !resumes }

let recover_file path =
  match Vfs.read_file path with
  | Ok content -> recover_string content
  | Error e -> Error e.Vfs.ve_msg
