(* Tests for Exom_audit: loading runs from their on-disk artifacts
   (Chrome trace, obs JSONL, ledger/journal), the composed audit
   verdict — spine diff, metric drift, ledger diff — the explicit-leg
   gate semantics, and the resume-lineage / replay-story integration
   with exom explain. *)

module B = Exom_bench.Bench_types
module Suite = Exom_bench.Suite
module Typecheck = Exom_lang.Typecheck
module Demand = Exom_core.Demand
module Pipeline = Exom_core.Pipeline
module Recover = Exom_core.Recover
module Pool = Exom_sched.Pool
module Obs = Exom_obs.Obs
module Metrics = Exom_obs.Metrics
module Spine = Exom_obs.Spine
module Export = Exom_obs.Export
module Json = Exom_obs.Json
module Ledger = Exom_ledger.Ledger
module Explain = Exom_ledger.Explain
module Audit = Exom_audit

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let cleanup = ref []

let fresh_path =
  let n = ref 0 in
  fun () ->
    incr n;
    let p =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "exom_audit_test_%d_%d" (Unix.getpid ()) !n)
    in
    cleanup := p :: !cleanup;
    p

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let load_ok path =
  match Audit.load path with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s does not load: %s" path e

let audit_ok ?lanes ?tolerance ?legs a b =
  match Audit.audit ?lanes ?tolerance ?legs a b with
  | Ok t -> t
  | Error e -> Alcotest.fail ("audit failed: " ^ e)

(* {2 Fixtures} *)

let fixture =
  lazy
    (let bench = Option.get (Suite.find "gzipsim") in
     let fault = Option.get (Suite.find_fault bench "V2-F3") in
     let faulty = Typecheck.parse_and_check (B.faulty_source bench fault) in
     let correct = Typecheck.parse_and_check bench.B.source in
     (bench, fault, faulty, correct))

(* One traced + journaled localization through the pipeline bin/exom
   runs. *)
let traced_run ?plan ~jobs journal_path =
  let bench, fault, faulty, correct = Lazy.force fixture in
  let obs = Obs.create ~trace:true () in
  let ledger = Ledger.create () in
  let prepared =
    Result.get_ok
      (Pipeline.prepare ~obs ~ledger ~profile_inputs:bench.B.test_inputs
         ~prog:faulty ~correct ~input:fault.B.failing_input ())
  in
  let pool = Pool.create ~jobs () in
  let report, _ =
    Pipeline.locate ~pool ~journal:journal_path ?resume:plan prepared
      ~root_sids:(B.root_sids bench fault faulty)
  in
  Pool.shutdown pool;
  (obs, report)

let trace_file obs =
  let p = fresh_path () in
  write_file p (Json.to_string (Export.chrome_json obs) ^ "\n");
  p

let jsonl_file obs =
  let p = fresh_path () in
  Result.get_ok (Export.write_jsonl p obs);
  p

(* A tiny hand-built span tree, parameterized so the edit classes are
   easy to provoke. *)
let little_obs build =
  let obs = Obs.create ~trace:true () in
  Obs.with_span obs ~cat:"t" "root" (fun () -> build obs);
  obs

let span ?(args = []) obs name =
  Obs.with_span obs ~cat:"t" ~args name (fun () -> ())

(* {2 Loading} *)

let test_load_sniffing () =
  let obs = little_obs (fun obs -> span obs "x") in
  let chrome = load_ok (trace_file obs) in
  Alcotest.(check bool) "chrome trace yields spans" true
    (chrome.Audit.spans <> None);
  Alcotest.(check bool) "chrome trace has no metrics" true
    (chrome.Audit.metrics = None);
  let jsonl = load_ok (jsonl_file obs) in
  Alcotest.(check bool) "jsonl yields spans and metrics" true
    (jsonl.Audit.spans <> None && jsonl.Audit.metrics <> None);
  let ledger = Ledger.create () in
  Ledger.session ledger
    ~wrong:{ Ledger.idx = 0; sid = 1; line = 1; occ = 1 }
    ~vexp:None ~correct_outputs:1 ~budget:10 ~trace_len:5;
  let lpath = fresh_path () in
  write_file lpath (Ledger.to_string ledger);
  let lrun = load_ok lpath in
  Alcotest.(check bool) "ledger yields events" true
    (lrun.Audit.events <> None);
  Alcotest.(check bool) "ledger has no spans" true (lrun.Audit.spans = None);
  match Audit.load (fresh_path ()) with
  | Ok _ -> Alcotest.fail "missing file loaded"
  | Error _ -> ()

(* {2 The composed verdict} *)

let test_j_invariance_clean () =
  let obs1, r1 = traced_run ~jobs:1 (fresh_path ()) in
  let obs4, r4 = traced_run ~jobs:4 (fresh_path ()) in
  Alcotest.(check bool) "both locate" true
    (r1.Demand.found && r4.Demand.found);
  let a = load_ok (trace_file obs1) and b = load_ok (trace_file obs4) in
  let t = audit_ok ~legs:[ Audit.Spine_leg ] a b in
  Alcotest.(check bool) "-j1 vs -j4 trace audit is clean" true
    (Audit.clean t);
  let out = Audit.render t in
  Alcotest.(check bool) "render says CLEAN" true
    (contains out "verdict: CLEAN");
  Alcotest.(check bool) "render names both runs" true
    (contains out a.Audit.path && contains out b.Audit.path)

let test_reorder_drifts () =
  let base =
    little_obs (fun obs ->
        span obs "x";
        span obs "y")
  in
  let swapped =
    little_obs (fun obs ->
        span obs "y";
        span obs "x")
  in
  let t =
    audit_ok (load_ok (trace_file base)) (load_ok (trace_file swapped))
  in
  Alcotest.(check bool) "reordered siblings are drift" false
    (Audit.clean t);
  let out = Audit.render t in
  Alcotest.(check bool) "edit script names the reorder" true
    (contains out "reordered");
  Alcotest.(check bool) "verdict is DRIFT" true (contains out "verdict: DRIFT")

let test_explicit_leg_must_exist () =
  let obs = little_obs (fun obs -> span obs "x") in
  let a = load_ok (trace_file obs) and b = load_ok (trace_file obs) in
  (match Audit.audit ~legs:[ Audit.Ledger_leg ] a b with
  | Ok _ -> Alcotest.fail "ledger leg on two traces must error"
  | Error e ->
    Alcotest.(check bool) "error names the missing leg" true
      (contains e "ledger"));
  (* without explicit legs the comparable subset is compared instead *)
  let t = audit_ok a b in
  Alcotest.(check bool) "auto mode compares the spine" true
    (t.Audit.spine <> None);
  Alcotest.(check bool) "auto mode skips the absent ledger" true
    (t.Audit.ledger = None)

let test_metric_drift_leg () =
  let reg_file v =
    let m = Metrics.create () in
    Metrics.add m "verify.runs" v;
    let p = fresh_path () in
    Result.get_ok (Export.write_metrics p m);
    p
  in
  let a = load_ok (reg_file 100) and b = load_ok (reg_file 104) in
  let strict = audit_ok ~legs:[ Audit.Metrics_leg ] a b in
  Alcotest.(check bool) "zero tolerance breaches" false (Audit.clean strict);
  Alcotest.(check bool) "render marks the drift" true
    (contains (Audit.render strict) "DRIFT");
  let loose = audit_ok ~tolerance:0.1 ~legs:[ Audit.Metrics_leg ] a b in
  Alcotest.(check bool) "+4% passes at 10% tolerance" true
    (Audit.clean loose)

let test_ledger_leg () =
  let ledger_file wrong_sid =
    let l = Ledger.create () in
    Ledger.session l
      ~wrong:{ Ledger.idx = 0; sid = wrong_sid; line = 1; occ = 1 }
      ~vexp:None ~correct_outputs:1 ~budget:10 ~trace_len:5;
    let p = fresh_path () in
    write_file p (Ledger.to_string l);
    p
  in
  let a = load_ok (ledger_file 1) and b = load_ok (ledger_file 2) in
  let t = audit_ok ~legs:[ Audit.Ledger_leg ] a b in
  Alcotest.(check bool) "diverging ledgers are drift" false (Audit.clean t);
  (match t.Audit.ledger with
  | Some d ->
    Alcotest.(check bool) "first divergence cited" true
      (d.Audit.ld_divergence <> None)
  | None -> Alcotest.fail "ledger leg missing");
  let out = Audit.render t in
  Alcotest.(check bool) "render shows the divergence" true
    (contains out "first divergence at event 0");
  let same = audit_ok ~legs:[ Audit.Ledger_leg ] a (load_ok (ledger_file 1)) in
  Alcotest.(check bool) "identical ledgers are clean" true (Audit.clean same)

(* {2 Resume lineage and the replay story} *)

(* Kill a traced run, resume it into a journal that carries the resume
   marker, kill that journal too: the survivor artifact is exactly what
   a fleet post-mortem starts from. *)
let test_lineage_and_replay_story () =
  let jfull = fresh_path () in
  ignore (traced_run ~jobs:1 jfull);
  let journal0 = read_file jfull in
  (* cut after the first checkpoint *)
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' journal0)
  in
  let cut = ref 0 in
  List.iteri
    (fun i l -> if !cut = 0 && contains l "\"ev\":\"checkpoint\"" then cut := i + 1)
    lines;
  Alcotest.(check bool) "fixture journals a checkpoint" true (!cut > 0);
  let killed1 = fresh_path () in
  write_file killed1
    (String.concat "\n" (List.filteri (fun i _ -> i < !cut) lines) ^ "\n");
  let plan =
    match Recover.plan_of_file killed1 with
    | Ok p -> p
    | Error e -> Alcotest.fail ("no plan: " ^ e)
  in
  let j1 = fresh_path () in
  ignore (traced_run ~plan ~jobs:1 j1);
  (* tear the resumed journal mid-line: its resume marker survives *)
  let journal1 = read_file j1 in
  let killed2 = fresh_path () in
  write_file killed2 (String.sub journal1 0 (String.length journal1 - 9));
  let run = load_ok killed2 in
  Alcotest.(check int) "one resume marker in the lineage" 1
    (List.length (Audit.replay_of run));
  Alcotest.(check bool) "torn journal tail recorded" true
    run.Audit.ledger_torn;
  (* the audit post-mortem cites the lineage *)
  let t = audit_ok ~legs:[ Audit.Ledger_leg ] (load_ok killed2) run in
  let out = Audit.render t in
  Alcotest.(check bool) "lineage section rendered" true
    (contains out "--- Lineage ---");
  Alcotest.(check bool) "resume marker cited" true
    (contains out "resume 1: replayed");
  Alcotest.(check bool) "torn tail cited" true
    (contains out "journal tail torn and dropped");
  (* and exom explain's narrative names replayed vs re-executed spans *)
  let events = Option.get run.Audit.events in
  let story = Explain.render ~replay:(Audit.replay_of run) events in
  Alcotest.(check bool) "replay story rendered" true
    (contains story "--- Resume replay ---");
  Alcotest.(check bool) "replayed batches named" true
    (contains story "replayed without re-execution: verify.batch span");
  (* without markers the section is absent *)
  let plain = Explain.render events in
  Alcotest.(check bool) "no story without markers" false
    (contains plain "Resume replay")

let test_torn_obs_log_lineage () =
  let obs = little_obs (fun obs -> span obs "x") in
  let p = jsonl_file obs in
  let content = read_file p in
  let torn = fresh_path () in
  write_file torn (String.sub content 0 (String.length content - 3));
  let run = load_ok torn in
  (match run.Audit.torn with
  | Some _ -> ()
  | None -> Alcotest.fail "torn obs tail not recorded");
  let t = audit_ok ~legs:[ Audit.Spine_leg ] run (load_ok p) in
  Alcotest.(check bool) "torn obs log cited with line and byte" true
    (contains (Audit.render t) "obs log torn at line")

let () =
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) !cleanup)
    (fun () ->
      Alcotest.run "audit"
        [
          ( "load",
            [ Alcotest.test_case "format sniffing" `Quick test_load_sniffing ]
          );
          ( "verdict",
            [
              Alcotest.test_case "-j1 vs -j4 is clean" `Quick
                test_j_invariance_clean;
              Alcotest.test_case "reorder drifts" `Quick test_reorder_drifts;
              Alcotest.test_case "explicit legs must exist" `Quick
                test_explicit_leg_must_exist;
              Alcotest.test_case "metric drift leg" `Quick
                test_metric_drift_leg;
              Alcotest.test_case "ledger leg" `Quick test_ledger_leg;
            ] );
          ( "lineage",
            [
              Alcotest.test_case "resume markers and replay story" `Quick
                test_lineage_and_replay_story;
              Alcotest.test_case "torn obs log" `Quick
                test_torn_obs_log_lineage;
            ] );
        ])
