(* The provenance ledger: serialization strictness, byte determinism
   across job counts, and the explain narrative naming the seeded root
   cause. *)

module B = Exom_bench.Bench_types
module Suite = Exom_bench.Suite
module Runner = Exom_bench.Runner
module Ledger = Exom_ledger.Ledger
module Explain = Exom_ledger.Explain
module Pool = Exom_sched.Pool

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* One real localization, ledger attached, at a chosen job count with a
   fresh cold pool (no store: every verdict is recomputed, so -j1 and
   -j4 exercise genuinely different schedules). *)
let ledger_of_run ?(jobs = 1) name fid =
  let b = Option.get (Suite.find name) in
  let f = Option.get (Suite.find_fault b fid) in
  let ledger = Ledger.create () in
  let pool = Pool.create ~jobs () in
  let r = Runner.run_fault ~pool ~ledger b f in
  Pool.shutdown pool;
  (ledger, r)

let gzip_ledger = lazy (ledger_of_run "gzipsim" "V2-F3")

(* {2 Serialization} *)

let test_roundtrip () =
  let ledger, _ = Lazy.force gzip_ledger in
  let s = Ledger.to_string ledger in
  match Ledger.of_string s with
  | Error e -> Alcotest.fail ("ledger does not read back: " ^ e)
  | Ok events ->
    (* floats print through one codec, so string equality is the
       round-trip check *)
    Alcotest.(check string) "re-serialization is identity" s
      (Ledger.string_of_events events);
    Alcotest.(check int) "event count preserved"
      (List.length (Ledger.events ledger))
      (List.length events)

let test_version_check () =
  (match
     Ledger.of_string
       "{\"type\":\"header\",\"schema\":\"exom.ledger\",\"version\":99}\n"
   with
  | Ok _ -> Alcotest.fail "version skew accepted"
  | Error e ->
    Alcotest.(check bool) "error names the version" true (contains e "99"));
  (match
     Ledger.of_string
       "{\"type\":\"header\",\"schema\":\"someone.else\",\"version\":1}\n"
   with
  | Ok _ -> Alcotest.fail "foreign schema accepted"
  | Error _ -> ());
  match Ledger.of_string "" with
  | Ok _ -> Alcotest.fail "empty content accepted"
  | Error _ -> ()

(* A ledger's lines with a blank line inserted as line 3 and line 7
   cut to a torn record, with records after it. *)
let blank_then_damage lines =
  List.concat
    (List.mapi
       (fun j l ->
         if j = 2 then [ ""; l ] else if j = 5 then [ "{\"ev\":" ] else [ l ])
       lines)
  |> String.concat "\n"

let test_corruption_rejected () =
  let ledger, _ = Lazy.force gzip_ledger in
  let lines = String.split_on_char '\n' (Ledger.to_string ledger) in
  Alcotest.(check bool) "fixture has a middle to corrupt" true
    (List.length lines > 4);
  let mangle i replacement =
    String.concat "\n"
      (List.mapi (fun j l -> if j = i then replacement else l) lines)
  in
  (* a malformed line mid-file *)
  (match Ledger.of_string (mangle 2 "{\"ev\":\"sess") with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error e -> Alcotest.(check bool) "error is located" true (contains e "line"));
  (* a well-formed line of an unknown event kind *)
  (match Ledger.of_string (mangle 2 "{\"ev\":\"mystery\",\"x\":1}") with
  | Ok _ -> Alcotest.fail "unknown event accepted"
  | Error _ -> ());
  (* a known event missing a required field *)
  (match Ledger.of_string (mangle 2 "{\"ev\":\"prune\",\"iter\":0}") with
  | Ok _ -> Alcotest.fail "skeletal event accepted"
  | Error _ -> ());
  (* a blank line before the damage: the error still names the file line *)
  match Ledger.of_string (blank_then_damage lines) with
  | Ok _ -> Alcotest.fail "malformed line after a blank line accepted"
  | Error e ->
    Alcotest.(check bool) ("names file line 7: " ^ e) true (contains e "line 7:")

(* {2 Rank events (schema v3)} *)

let test_rank_event_codec () =
  (* explicit round-trip of the v3 rank event through the textual form *)
  let l = Ledger.create () in
  let u = { Ledger.idx = 7; sid = 3; line = 14; occ = 2 } in
  let decisions =
    [
      { Ledger.rd_idx = 3; rd_sid = 9; rd_score = 0.8333; rd_kept = true };
      { Ledger.rd_idx = 5; rd_sid = 9; rd_score = 0.8333; rd_kept = false };
      { Ledger.rd_idx = 1; rd_sid = 4; rd_score = 0.5; rd_kept = true };
    ]
  in
  Ledger.rank l ~iter:2 ~u ~prior:0.5 ~decisions;
  let s = Ledger.to_string l in
  Alcotest.(check bool) "serialized as a rank event" true
    (contains s "\"ev\":\"rank\"");
  match Ledger.of_string s with
  | Error e -> Alcotest.fail ("rank event does not read back: " ^ e)
  | Ok events -> (
    Alcotest.(check string) "re-serialization is identity" s
      (Ledger.string_of_events events);
    match events with
    | [ Ledger.Rank r ] ->
      Alcotest.(check int) "iter" 2 r.iter;
      Alcotest.(check int) "u idx" 7 r.u.Ledger.idx;
      Alcotest.(check (float 1e-9)) "prior" 0.5 r.prior;
      Alcotest.(check int) "decision count" 3 (List.length r.decisions);
      Alcotest.(check bool) "decisions preserved in order" true
        (r.decisions = decisions)
    | _ -> Alcotest.fail "expected exactly the rank event")

let test_rank_events_in_real_run () =
  (* a ranked localization journals its ordering; the fixture expands
     at least once, so at least one rank event must be present *)
  let ledger, _ = Lazy.force gzip_ledger in
  let ranks =
    List.filter
      (function Ledger.Rank _ -> true | _ -> false)
      (Ledger.events ledger)
  in
  Alcotest.(check bool) "run journaled rank events" true (ranks <> []);
  let out = Explain.render (Ledger.events ledger) in
  Alcotest.(check bool) "explain narrates the ranked order" true
    (contains out "Ranked verification order")

let test_v2_readback () =
  (* v2 ledgers (no rank events) still read: the vocabulary is a strict
     subset of v3's *)
  (match
     Ledger.of_string
       "{\"type\":\"header\",\"schema\":\"exom.ledger\",\"version\":2}\n"
   with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "header-only v2 stream produced events"
  | Error e -> Alcotest.fail ("v2 header rejected: " ^ e));
  (* a v3 stream downgraded to a v2 header reads as long as it carries
     no v3 events *)
  let ledger, _ = Lazy.force gzip_ledger in
  let lines = String.split_on_char '\n' (Ledger.to_string ledger) in
  let v2 =
    List.mapi
      (fun i l ->
        if i = 0 then
          "{\"type\":\"header\",\"schema\":\"exom.ledger\",\"version\":2}"
        else l)
      lines
    |> List.filter (fun l -> not (contains l "\"ev\":\"rank\""))
    |> String.concat "\n"
  in
  match Ledger.of_string v2 with
  | Ok evs ->
    Alcotest.(check bool) "v2 stream carries no rank events" true
      (List.for_all (function Ledger.Rank _ -> false | _ -> true) evs)
  | Error e -> Alcotest.fail ("downgraded v2 stream rejected: " ^ e)

let test_is_ledger () =
  let ledger, _ = Lazy.force gzip_ledger in
  Alcotest.(check bool) "sniffs its own output" true
    (Ledger.is_ledger (Ledger.to_string ledger));
  Alcotest.(check bool) "rejects MCL source" false
    (Ledger.is_ledger "proc main() { x := 1; }");
  Alcotest.(check bool) "rejects an obs event log" false
    (Ledger.is_ledger
       "{\"type\":\"header\",\"schema\":\"exom.obs\",\"version\":1}\n")

(* {2 Determinism: -j1 vs -j4} *)

let test_jobs_determinism () =
  let l1, r1 = ledger_of_run ~jobs:1 "gzipsim" "V2-F3" in
  let l4, r4 = ledger_of_run ~jobs:4 "gzipsim" "V2-F3" in
  Alcotest.(check bool) "both locate" true
    (r1.Runner.report.Exom_core.Demand.found
    && r4.Runner.report.Exom_core.Demand.found);
  Alcotest.(check string) "ledgers byte-identical at -j1 and -j4"
    (Ledger.to_string l1) (Ledger.to_string l4)

(* {2 Checkpoints, journal, crash recovery} *)

let temp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "exom_ledger_test_%d_%d" (Unix.getpid ()) !n)

let with_temp_path f =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_checkpoint_events () =
  (* every verification batch is chased by its checkpoint, and the
     checkpoint codec round-trips through the textual form *)
  let ledger, _ = Lazy.force gzip_ledger in
  let events = Ledger.events ledger in
  let checkpoints =
    List.filter_map
      (function Ledger.Checkpoint c -> Some c | _ -> None)
      events
  in
  let batches =
    List.length
      (List.filter (function Ledger.Batch _ -> true | _ -> false) events)
  in
  Alcotest.(check bool) "fixture has checkpoints" true (checkpoints <> []);
  Alcotest.(check int) "one checkpoint per batch" batches
    (List.length checkpoints);
  let reread =
    match Ledger.of_string (Ledger.string_of_events events) with
    | Ok evs -> evs
    | Error e -> Alcotest.fail e
  in
  let reread_cks =
    List.filter_map
      (function Ledger.Checkpoint c -> Some c | _ -> None)
      reread
  in
  Alcotest.(check bool) "checkpoints round-trip structurally" true
    (checkpoints = reread_cks);
  (* the last checkpoint carries the run's cumulative verification
     count: enough on its own to restore the resumable state *)
  let last = List.nth checkpoints (List.length checkpoints - 1) in
  let g = last.Ledger.ck_guard in
  Alcotest.(check bool) "cumulative counts" true
    (g.Ledger.g_completed + g.Ledger.g_aborted > 0);
  (* guard slot 3 held a retired retry counter: an older checkpoint
     with a non-zero slot 3 reads back, and re-serializes with the slot
     as 0, as every fault-free ledger wrote it *)
  let line slot3 =
    Printf.sprintf
      "{\"ev\":\"checkpoint\",\"guard\":[7,2,%d,0,1,1,0,0],\
       \"failures\":[[4,\"budget\"]],\"breakers\":[[4,2,true]],\
       \"store\":[0,0,9,0,0,9]}"
      slot3
  in
  let header = List.hd (String.split_on_char '\n' (Ledger.to_string ledger)) in
  match Ledger.of_string (header ^ "\n" ^ line 5 ^ "\n") with
  | Error e -> Alcotest.fail ("parent-format checkpoint rejected: " ^ e)
  | Ok evs ->
    let written = String.split_on_char '\n' (Ledger.string_of_events evs) in
    Alcotest.(check bool) "slot 3 re-serializes as 0" true
      (List.mem (line 0) written)

(* The torn line a salvage names, as (line, byte). *)
let torn_at r =
  Option.map
    (fun { Exom_obs.Jsonl.torn_line; torn_byte } -> (torn_line, torn_byte))
    r.Ledger.r_torn

let test_recover_torn_tail () =
  let ledger, _ = Lazy.force gzip_ledger in
  let s = Ledger.to_string ledger in
  let n_events = List.length (Ledger.events ledger) in
  (* an intact journal recovers whole *)
  (match Ledger.recover_string s with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "all events salvaged" n_events
      (List.length r.Ledger.r_events);
    Alcotest.(check (option (pair int int))) "not truncated" None (torn_at r));
  (* a torn final line — the crash left half a JSON object — is dropped,
     everything before it salvaged *)
  let torn = String.sub s 0 (String.length s - 7) in
  (match Ledger.recover_string torn with
  | Error e -> Alcotest.fail ("torn tail not tolerated: " ^ e)
  | Ok r ->
    Alcotest.(check int) "all but the torn line" (n_events - 1)
      (List.length r.Ledger.r_events);
    (* the header is line 1, so the last event is on line n_events + 1 *)
    Alcotest.(check (option (pair int int))) "truncation reported"
      (Some (n_events + 1, String.rindex torn '\n' + 1))
      (torn_at r));
  (* strict of_string still refuses the same bytes *)
  match Ledger.of_string torn with
  | Ok _ -> Alcotest.fail "strict reader accepted a torn ledger"
  | Error _ -> ()

let test_recover_rejects_midfile_corruption () =
  (* tolerance is for the tail only: damage anywhere earlier means the
     journal cannot be trusted, torn tail or not *)
  let ledger, _ = Lazy.force gzip_ledger in
  let lines = String.split_on_char '\n' (Ledger.to_string ledger) in
  let mangled =
    String.concat "\n"
      (List.mapi (fun j l -> if j = 2 then "{\"ev\":\"sess" else l) lines)
  in
  (match Ledger.recover_string mangled with
  | Ok _ -> Alcotest.fail "mid-file corruption accepted"
  | Error e ->
    Alcotest.(check bool) "error is located" true (contains e "line"));
  (* a blank line before the damage: the error still names the file line *)
  match Ledger.recover_string (blank_then_damage lines) with
  | Ok _ -> Alcotest.fail "mid-file corruption after a blank line accepted"
  | Error e ->
    Alcotest.(check bool) ("names file line 7: " ^ e) true (contains e "line 7:")

let test_atomic_write () =
  (* Ledger.write goes through a same-directory temp file and rename:
     the destination is either the old content or the new, never a
     prefix — and no temp droppings survive *)
  with_temp_path (fun path ->
      let oc = open_out_bin path in
      output_string oc "previous generation";
      close_out oc;
      let ledger, _ = Lazy.force gzip_ledger in
      Ledger.write path ledger;
      Alcotest.(check string) "destination is the full new content"
        (Ledger.to_string ledger) (read_file path);
      let dir = Filename.dirname path and base = Filename.basename path in
      let droppings =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f ->
               f <> base
               && String.length f >= String.length base
               && String.sub f 0 (String.length base) = base)
      in
      Alcotest.(check (list string)) "no temp file left behind" [] droppings)

let test_journal_and_resume_marker () =
  (* the write-ahead journal reproduces the canonical serialization,
     and resume markers are meta lines: counted by the tolerant reader,
     invisible to the event stream *)
  with_temp_path (fun path ->
      let ledger, _ = Lazy.force gzip_ledger in
      Ledger.attach_journal ledger path;
      Alcotest.(check (option string)) "journal attached" (Some path)
        (Ledger.journal_path ledger);
      Ledger.resume_marker ledger ~replayed:7 ~truncated:true;
      Ledger.sync ledger;
      Ledger.close_journal ledger;
      (match Ledger.recover_file path with
      | Error e -> Alcotest.fail e
      | Ok r ->
        Alcotest.(check int) "events journaled verbatim"
          (List.length (Ledger.events ledger))
          (List.length r.Ledger.r_events);
        Alcotest.(check int) "marker counted" 1 r.Ledger.r_markers;
        Alcotest.(check (option (pair int int)))
          "marker is not an event truncation" None (torn_at r));
      (* the journal minus its marker line is the canonical form *)
      let journal_lines =
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> not (contains l "\"type\":\"resume\""))
      in
      Alcotest.(check string) "journal = canonical serialization"
        (Ledger.to_string ledger)
        (String.concat "\n" journal_lines))

(* {2 Explain} *)

let explain_names_root name fid =
  let b = Option.get (Suite.find name) in
  let f = Option.get (Suite.find_fault b fid) in
  let root_line = B.fault_line b f in
  let ledger, r = ledger_of_run name fid in
  Alcotest.(check bool) (name ^ " " ^ fid ^ " locates") true
    r.Runner.report.Exom_core.Demand.found;
  let events =
    match Ledger.of_string (Ledger.to_string ledger) with
    | Ok evs -> evs
    | Error e -> Alcotest.fail e
  in
  let out = Explain.render events in
  Alcotest.(check bool) "narrative reports the root cause found" true
    (contains out "root cause FOUND");
  Alcotest.(check bool)
    (Printf.sprintf "narrative names the seeded line %d" root_line)
    true
    (contains out (Printf.sprintf "seeded root cause at line %d" root_line));
  Alcotest.(check bool) "at least one verified implicit dependence" true
    (contains out "implicit dependence:");
  Alcotest.(check bool) "alignment evidence is rendered" true
    (contains out "alignment:");
  (* the DOT export styles implicit edges distinctly *)
  let dot = Explain.dot events in
  Alcotest.(check bool) "dot marks implicit edges" true
    (contains dot "strong id" || contains dot "label=\"id\"")

let test_explain_gzip () = explain_names_root "gzipsim" "V2-F3"
let test_explain_grep () = explain_names_root "grepsim" "V4-F2"
let test_explain_flex () = explain_names_root "flexsim" "V1-F9"
let test_explain_sed () = explain_names_root "sedsim" "V3-F2"

let () =
  Alcotest.run "ledger"
    [
      ( "serialization",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "version check" `Quick test_version_check;
          Alcotest.test_case "corruption rejected" `Quick
            test_corruption_rejected;
          Alcotest.test_case "rank event codec" `Quick test_rank_event_codec;
          Alcotest.test_case "rank events journaled and narrated" `Quick
            test_rank_events_in_real_run;
          Alcotest.test_case "v2 readback" `Quick test_v2_readback;
          Alcotest.test_case "sniffing" `Quick test_is_ledger;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "-j1 vs -j4 byte-identical" `Quick
            test_jobs_determinism;
        ] );
      ( "crash safety",
        [
          Alcotest.test_case "checkpoint per batch, codec round-trip" `Quick
            test_checkpoint_events;
          Alcotest.test_case "torn tail tolerated" `Quick
            test_recover_torn_tail;
          Alcotest.test_case "mid-file corruption rejected" `Quick
            test_recover_rejects_midfile_corruption;
          Alcotest.test_case "atomic write" `Quick test_atomic_write;
          Alcotest.test_case "journal and resume marker" `Quick
            test_journal_and_resume_marker;
        ] );
      ( "explain",
        [
          Alcotest.test_case "gzipsim V2-F3 names the root" `Quick
            test_explain_gzip;
          Alcotest.test_case "grepsim V4-F2 names the root" `Quick
            test_explain_grep;
          Alcotest.test_case "flexsim V1-F9 names the root" `Quick
            test_explain_flex;
          Alcotest.test_case "sedsim V3-F2 names the root" `Quick
            test_explain_sed;
        ] );
    ]
