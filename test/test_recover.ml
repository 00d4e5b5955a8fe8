(* Crash determinism: a journaled localization killed at an iteration
   boundary, mid-batch, or mid-line resumes — via Recover.plan_of_file
   and the pipeline's replay priming — to a final ledger byte-identical to the
   uninterrupted run's, at -j1 and -j4 alike, re-verifying only the
   work the killed run never checkpointed. *)

module B = Exom_bench.Bench_types
module Suite = Exom_bench.Suite
module Typecheck = Exom_lang.Typecheck
module Demand = Exom_core.Demand
module Pipeline = Exom_core.Pipeline
module Recover = Exom_core.Recover
module Slice = Exom_ddg.Slice
module Pool = Exom_sched.Pool
module Store = Exom_sched.Store
module Ledger = Exom_ledger.Ledger
module Obs = Exom_obs.Obs
module Spine = Exom_obs.Spine
module Json = Exom_obs.Json
module Vfs = Exom_util.Vfs
module Chaos = Exom_interp.Chaos

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
        (Printf.sprintf "exom_recover_test_%d_%d" (Unix.getpid ()) !n)
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

let suite_fault name fid =
  lazy
    (let bench = Option.get (Suite.find name) in
     let fault = Option.get (Suite.find_fault bench fid) in
     let faulty = Typecheck.parse_and_check (B.faulty_source bench fault) in
     let correct = Typecheck.parse_and_check bench.B.source in
     (bench, fault, faulty, correct))

(* The fixture: gzipsim V2-F3, the suite's journal-heaviest locate with
   switched-run dedup. *)
let fixture = suite_fault "gzipsim" "V2-F3"

(* A second program and input: a foreign journal for the fixture, and a
   second subject of the kill-chain spine test. *)
let other_fixture = suite_fault "sedsim" "V3-F2"

(* One localization of [bench]/[fault] through the production pipeline,
   journaled at [path]; with [plan], the pipeline is asked to resume it
   (the real --resume flow: match the journal against the session,
   prime, mark the new journal as a resumed continuation).  Returns the
   canonical ledger, the report and what became of the plan. *)
let pipeline_run ?obs ?store ?chaos ?plan ~jobs (bench, fault, faulty, correct)
    path =
  let ledger = Ledger.create () in
  let prepared =
    match
      Pipeline.prepare ?obs ?store ?chaos ~ledger
        ~profile_inputs:bench.B.test_inputs ~prog:faulty ~correct
        ~input:fault.B.failing_input ()
    with
    | Ok p -> p
    | Error e -> Alcotest.fail (Pipeline.setup_error_message e)
  in
  let pool = Pool.create ~jobs () in
  let report, resumed =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pipeline.locate ~pool ~journal:path ?resume:plan prepared
          ~root_sids:(B.root_sids bench fault faulty))
  in
  (Ledger.to_string ledger, report, resumed)

(* The fixture's run (or [fixture]'s); a given plan must be replayed. *)
let journaled_run ?obs ?plan ?(fixture = fixture) ~jobs path =
  let ledger, report, resumed =
    pipeline_run ?obs ?plan ~jobs (Lazy.force fixture) path
  in
  Alcotest.(check bool) "plan matches the session" true
    (match (plan, resumed) with
    | Some _, Pipeline.Replayed _ | None, Pipeline.Cold -> true
    | _ -> false);
  (ledger, report)

(* Everything a resumed run must reproduce — including the robustness
   accounting and cumulative run counts restored from the checkpoint. *)
let report_sig (r : Demand.report) =
  ( r.Demand.found, r.Demand.user_prunings, r.Demand.total_prunings,
    r.Demand.iterations, r.Demand.expanded_edges, r.Demand.implicit_edges,
    r.Demand.benign, Slice.sids r.Demand.ips, Slice.sids r.Demand.ds,
    Slice.sids r.Demand.ps0, r.Demand.os_chain, r.Demand.verifications,
    r.Demand.verify_queries, r.Demand.robustness, r.Demand.failures )

let baseline_path = lazy (fresh_path ())
let baseline = lazy (journaled_run ~jobs:1 (Lazy.force baseline_path))

let baseline_plan () =
  ignore (Lazy.force baseline);
  match Recover.plan_of_file (Lazy.force baseline_path) with
  | Ok p -> p
  | Error e -> Alcotest.fail ("baseline journal unreadable: " ^ e)

(* Kill points: every checkpoint boundary (the journal as an fsynced
   iteration leaves it), one mid-batch cut (in-flight Verify events,
   no closing Batch/Checkpoint), and one torn final line. *)
let kill_variants journal =
  let lines =
    match List.rev (String.split_on_char '\n' journal) with
    | "" :: r -> List.rev r
    | r -> List.rev r
  in
  let prefix k =
    String.concat "\n" (List.filteri (fun i _ -> i < k) lines) ^ "\n"
  in
  let indices_of tag =
    let found = ref [] in
    List.iteri
      (fun i l ->
        if contains l ("\"ev\":\"" ^ tag ^ "\"") then found := i :: !found)
      lines;
    List.rev !found
  in
  let checkpoints = indices_of "checkpoint" in
  let verifies = indices_of "verify" in
  Alcotest.(check bool) "fixture journals checkpoints" true (checkpoints <> []);
  Alcotest.(check bool) "fixture journals verifies" true (verifies <> []);
  let boundary_cuts =
    List.map (fun i -> ("checkpoint boundary", prefix (i + 1))) checkpoints
  in
  (* cut just past the last Verify line: its batch is in flight *)
  let mid_batch =
    let last_v = List.nth verifies (List.length verifies - 1) in
    ("mid-batch", prefix (last_v + 1))
  in
  (* tear the journal's final line mid-JSON *)
  let torn =
    let s = prefix (List.length lines) in
    ("torn line", String.sub s 0 (String.length s - 9))
  in
  boundary_cuts @ [ mid_batch; torn ]

(* Line-level surgery shared by the kill-chain tests. *)
let journal_lines journal =
  match List.rev (String.split_on_char '\n' journal) with
  | "" :: r -> List.rev r
  | r -> List.rev r

let line_prefix lines k =
  String.concat "\n" (List.filteri (fun i _ -> i < k) lines) ^ "\n"

let checkpoint_indices lines =
  let found = ref [] in
  List.iteri
    (fun i l -> if contains l "\"ev\":\"checkpoint\"" then found := i :: !found)
    lines;
  List.rev !found

(* What a SIGKILL leaves when it lands while the line after checkpoint
   [n] (0-based) is being written: everything through the checkpoint,
   plus a torn fragment of the next line. *)
let torn_after_checkpoint journal n =
  let lines = journal_lines journal in
  let cks = checkpoint_indices lines in
  Alcotest.(check bool) "journal has checkpoints" true (cks <> []);
  let i = List.nth cks (min n (List.length cks - 1)) in
  let upto = min (i + 2) (List.length lines) in
  let s = line_prefix lines upto in
  String.sub s 0 (String.length s - 9)

(* The number of a journal's last line, and the torn line a plan names. *)
let last_line content = List.length (String.split_on_char '\n' content)

let torn_line plan =
  Option.map (fun t -> t.Exom_obs.Jsonl.torn_line) plan.Recover.torn

let plan_of label path =
  match Recover.plan_of_file path with
  | Ok p -> p
  | Error e -> Alcotest.failf "%s: no plan: %s" label e

let test_resume_byte_identical () =
  let full_ledger, full_report = Lazy.force baseline in
  let journal = read_file (Lazy.force baseline_path) in
  List.iter
    (fun (label, content) ->
      let killed = fresh_path () in
      write_file killed content;
      let plan =
        match Recover.plan_of_file killed with
        | Ok p -> p
        | Error e -> Alcotest.failf "%s: no plan: %s" label e
      in
      Alcotest.(check bool)
        (label ^ ": interrupted journal is not complete")
        false plan.Recover.complete;
      List.iter
        (fun jobs ->
          let ledger, report = journaled_run ~plan ~jobs (fresh_path ()) in
          Alcotest.(check string)
            (Printf.sprintf "%s: resumed ledger byte-identical (-j%d)" label
               jobs)
            full_ledger ledger;
          Alcotest.(check bool)
            (Printf.sprintf "%s: resumed report identical (-j%d)" label jobs)
            true
            (report_sig report = report_sig full_report))
        [ 1; 4 ])
    (kill_variants journal)

let test_resume_accounting () =
  (* a boundary-killed run's plan salvages whole batches; the resumed
     run restores — rather than re-charges — their cumulative
     verification count *)
  let _, full_report = Lazy.force baseline in
  let journal = read_file (Lazy.force baseline_path) in
  match kill_variants journal with
  | (_, first_boundary) :: _ ->
    let killed = fresh_path () in
    write_file killed first_boundary;
    let plan = Result.get_ok (Recover.plan_of_file killed) in
    Alcotest.(check int) "one batch replayable" 1 plan.Recover.replayed_batches;
    Alcotest.(check bool) "verifications salvaged" true
      (plan.Recover.replayed_verifications > 0);
    Alcotest.(check int) "nothing dropped at a boundary" 0
      plan.Recover.dropped_events;
    let _, report = journaled_run ~plan ~jobs:1 (fresh_path ()) in
    Alcotest.(check int) "cumulative verifications preserved"
      full_report.Demand.verifications report.Demand.verifications
  | [] -> Alcotest.fail "no kill variants"

let test_complete_journal_resumes_to_itself () =
  (* resuming a run that actually finished replays every batch from the
     journal and still reproduces the ledger byte for byte *)
  let full_ledger, full_report = Lazy.force baseline in
  let plan = baseline_plan () in
  Alcotest.(check bool) "plan is complete" true plan.Recover.complete;
  Alcotest.(check int) "nothing in flight" 0 plan.Recover.dropped_events;
  let ledger, report = journaled_run ~plan ~jobs:1 (fresh_path ()) in
  Alcotest.(check string) "identical ledger" full_ledger ledger;
  Alcotest.(check bool) "identical report" true
    (report_sig report = report_sig full_report)

(* Crash chains: kill -> resume -> kill the resumed run later -> resume
   again.  Every generation's journal is torn mid-line (the realistic
   SIGKILL residue), every resume is primed through the real plan
   machinery, and the survivor of the second resume must still be
   byte-identical to the uninterrupted baseline — at -j1 and -j4. *)
let test_multi_generation_chain () =
  let full_ledger, full_report = Lazy.force baseline in
  let journal0 = read_file (Lazy.force baseline_path) in
  let ncks0 = List.length (checkpoint_indices (journal_lines journal0)) in
  Alcotest.(check bool) "baseline has at least two checkpoints" true
    (ncks0 >= 2);
  (* the fixture runs ranked, so every generation must reproduce the
     rank events too — the ordering is recomputed from replayed verdict
     evidence, not copied *)
  Alcotest.(check bool) "baseline journal carries rank events" true
    (contains journal0 "\"ev\":\"rank\"");
  List.iter
    (fun jobs ->
      (* generation 1: killed early, right after the first checkpoint *)
      let killed1 = fresh_path () in
      write_file killed1 (torn_after_checkpoint journal0 0);
      let plan1 = plan_of "gen1" killed1 in
      Alcotest.(check bool) "gen1: incomplete" false plan1.Recover.complete;
      Alcotest.(check (option int)) "gen1: torn tail detected"
        (Some (last_line (read_file killed1)))
        (torn_line plan1);
      Alcotest.(check int) "gen1: first resume in the chain" 0
        plan1.Recover.prior_resumes;
      let j1 = fresh_path () in
      ignore (journaled_run ~plan:plan1 ~jobs j1);
      let journal1 = read_file j1 in
      Alcotest.(check bool) "gen1: resumed journal carries its marker" true
        (contains journal1 "\"type\":\"resume\"");
      (* generation 2: the resumed run survives longer — killed after
         its last checkpoint *)
      let ncks1 = List.length (checkpoint_indices (journal_lines journal1)) in
      let killed2 = fresh_path () in
      write_file killed2 (torn_after_checkpoint journal1 (ncks1 - 1));
      let plan2 = plan_of "gen2" killed2 in
      Alcotest.(check bool) "gen2: incomplete" false plan2.Recover.complete;
      Alcotest.(check (option int)) "gen2: torn tail detected"
        (Some (last_line (read_file killed2)))
        (torn_line plan2);
      Alcotest.(check int) "gen2: one prior resume in the lineage" 1
        plan2.Recover.prior_resumes;
      Alcotest.(check bool) "gen2: the later kill salvages more batches"
        true
        (plan2.Recover.replayed_batches > plan1.Recover.replayed_batches);
      let ledger2, report2 = journaled_run ~plan:plan2 ~jobs (fresh_path ()) in
      Alcotest.(check bool)
        (Printf.sprintf
           "second-generation ledger carries rank events (-j%d)" jobs)
        true
        (contains ledger2 "\"ev\":\"rank\"");
      Alcotest.(check string)
        (Printf.sprintf
           "second-generation resume byte-identical to baseline (-j%d)" jobs)
        full_ledger ledger2;
      Alcotest.(check bool)
        (Printf.sprintf
           "second-generation report identical to baseline (-j%d)" jobs)
        true
        (report_sig report2 = report_sig full_report))
    [ 1; 4 ]

(* A degraded run's ledger differs from the baseline only in the Final
   event's [degraded] marker; everything else must still be identical. *)
let strip_degraded s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         if contains line "\"ev\":\"final\"" then
           match Json.parse line with
           | Ok (Json.Obj fields) ->
             Json.to_string
               (Json.Obj (List.filter (fun (k, _) -> k <> "degraded") fields))
           | Ok _ | Error _ -> line
         else line)
  |> String.concat "\n"

(* The storage-fault face of the same chain: generation 2 resumes while
   its journal's first fsync dies with an injected ENOSPC.  The run must
   converge to a ledger byte-identical to the uninterrupted baseline or
   an explicitly DEGRADED one whose only divergence is the degradation
   marker — and the verdict must match either way.  Never silently
   wrong, at -j1 and -j4 alike. *)
let test_multi_generation_chain_with_enospc () =
  let full_ledger, full_report = Lazy.force baseline in
  let journal0 = read_file (Lazy.force baseline_path) in
  List.iter
    (fun jobs ->
      (* generation 1: killed right after the first checkpoint *)
      let killed1 = fresh_path () in
      write_file killed1 (torn_after_checkpoint journal0 0);
      let plan1 = plan_of "enospc gen1" killed1 in
      let j1 = fresh_path () in
      ignore (journaled_run ~plan:plan1 ~jobs j1);
      (* generation 2: the resumed run killed after its last checkpoint *)
      let journal1 = read_file j1 in
      let ncks1 = List.length (checkpoint_indices (journal_lines journal1)) in
      let killed2 = fresh_path () in
      write_file killed2 (torn_after_checkpoint journal1 (ncks1 - 1));
      let plan2 = plan_of "enospc gen2" killed2 in
      let j2 = fresh_path () in
      Vfs.reset_counters ();
      Vfs.arm
        (Vfs.Io_chaos.targeted ~op:Vfs.Fsync
           ~path_substr:(Filename.basename j2) ~after:1 Vfs.Enospc);
      let ledger2, report2 =
        Fun.protect
          ~finally:(fun () -> Vfs.disarm ())
          (fun () -> journaled_run ~plan:plan2 ~jobs j2)
      in
      let c = Vfs.counters () in
      Alcotest.(check int)
        (Printf.sprintf "the ENOSPC actually fired (-j%d)" jobs)
        1 c.Vfs.c_injected;
      Alcotest.(check int)
        (Printf.sprintf "and was accounted exactly once (-j%d)" jobs)
        1 c.Vfs.c_acked;
      (* never wrong: the verdict matches the uninterrupted baseline *)
      Alcotest.(check bool)
        (Printf.sprintf "verdict matches baseline (-j%d)" jobs)
        true
        (report2.Demand.found = full_report.Demand.found
        && Slice.sids report2.Demand.ips = Slice.sids full_report.Demand.ips);
      if ledger2 <> full_ledger then begin
        (* not byte-identical, so it must be explicitly DEGRADED... *)
        (match report2.Demand.degraded with
        | Some reason ->
          Alcotest.(check bool)
            (Printf.sprintf "degradation names the journal (-j%d)" jobs)
            true
            (contains reason "journal write/sync failure")
        | None ->
          Alcotest.failf
            "ledger diverged without a DEGRADED report (-j%d)" jobs);
        (* ...and the divergence must be exactly the degradation marker *)
        Alcotest.(check string)
          (Printf.sprintf
             "identical outside the degradation marker (-j%d)" jobs)
          (strip_degraded full_ledger) (strip_degraded ledger2)
      end)
    [ 1; 4 ]

(* The trace-spine side of the same chain, on two faults: a kill ->
   resume -> kill -> resume survivor must write the uninterrupted run's
   ledger and emit a coordinator span spine identical to its — replayed
   batches re-emit their lane-0 verify.batch span but no worker-lane
   spans, so the Coordinator projection is the replay-invariant object
   while All lanes legitimately differ. *)
let test_kill_chain_spine () =
  List.iter
    (fun (name, fixture, jobs) ->
      let label what = Printf.sprintf "%s (%s, -j%d)" what name jobs in
      let full_obs = Obs.create ~trace:true () in
      let jfull = fresh_path () in
      let full_ledger, _ = journaled_run ~obs:full_obs ~fixture ~jobs jfull in
      let full_spans = Obs.spans full_obs in
      let full_coord =
        Spine.of_spans ~lanes:Spine.Coordinator full_spans
      in
      let journal0 = read_file jfull in
      (* generation 1: torn right after the first checkpoint *)
      let killed1 = fresh_path () in
      write_file killed1 (torn_after_checkpoint journal0 0);
      let plan1 = plan_of (label "spine gen1") killed1 in
      let j1 = fresh_path () in
      ignore (journaled_run ~plan:plan1 ~fixture ~jobs j1);
      (* generation 2: the resumed run torn after its last checkpoint;
         the second resume is the traced survivor *)
      let journal1 = read_file j1 in
      let ncks1 = List.length (checkpoint_indices (journal_lines journal1)) in
      let killed2 = fresh_path () in
      write_file killed2 (torn_after_checkpoint journal1 (ncks1 - 1));
      let plan2 = plan_of (label "spine gen2") killed2 in
      Alcotest.(check int) (label "chain depth recorded") 1
        plan2.Recover.prior_resumes;
      let resumed_obs = Obs.create ~trace:true () in
      let survivor_ledger, _ =
        journaled_run ~obs:resumed_obs ~plan:plan2 ~fixture ~jobs
          (fresh_path ())
      in
      Alcotest.(check string)
        (label "survivor's ledger byte-identical to uninterrupted")
        full_ledger survivor_ledger;
      let resumed_spans = Obs.spans resumed_obs in
      let resumed_coord =
        Spine.of_spans ~lanes:Spine.Coordinator resumed_spans
      in
      Alcotest.(check string)
        (label "survivor's coordinator spine identical to uninterrupted")
        (Spine.to_string full_coord)
        (Spine.to_string resumed_coord);
      Alcotest.(check int) (label "coordinator edit script empty") 0
        (List.length (Spine.diff full_coord resumed_coord));
      (* the replayed batches really were skipped: their worker-lane
         spans never exist, so the all-lane spines differ *)
      Alcotest.(check bool) (label "all-lane spine shows the replay gap") true
        (Spine.diff
           (Spine.of_spans full_spans)
           (Spine.of_spans resumed_spans)
         <> []))
    (List.concat_map
       (fun (name, fixture) ->
         List.map (fun jobs -> (name, fixture, jobs)) [ 1; 4 ])
       [ ("gzipsim V2-F3", fixture); ("sedsim V3-F2", other_fixture) ])

let test_foreign_journal_rejected () =
  (* a journal from a different program/input must not prime a
     session: the run starts cold and its ledger is a fresh run's *)
  let other = Lazy.force other_fixture in
  let fresh, _, _ = pipeline_run ~jobs:1 other (fresh_path ()) in
  let cold, _, resumed =
    pipeline_run ~plan:(baseline_plan ()) ~jobs:1 other (fresh_path ())
  in
  Alcotest.(check bool) "foreign plan comes back mismatched" true
    (resumed = Pipeline.Mismatched);
  Alcotest.(check string) "cold ledger byte-identical to a fresh run's" fresh
    cold;
  (* a journal recorded under another chaos spec is foreign too: its
     verdicts must not be seeded under this session's store keys *)
  let fx = Lazy.force fixture in
  let chaos = { Chaos.seed = 0; fault = Chaos.Raise_at 1 } in
  let disk_store () = Store.create ~dir:(fresh_path ()) () in
  let mismatched label ?chaos ~plan store =
    let fresh, _, _ =
      pipeline_run ?chaos ~store:(disk_store ()) ~jobs:1 fx (fresh_path ())
    in
    let cold, _, resumed =
      pipeline_run ?chaos ~store ~plan ~jobs:1 fx (fresh_path ())
    in
    Alcotest.(check bool) (label ^ ": comes back mismatched") true
      (resumed = Pipeline.Mismatched);
    Alcotest.(check string) (label ^ ": ledger byte-identical to a fresh run's")
      fresh cold
  in
  let chaos_journal = fresh_path () in
  ignore (pipeline_run ~chaos ~jobs:1 fx chaos_journal);
  let dir = fresh_path () in
  mismatched "chaos journal, clean session"
    ~plan:(plan_of "chaos run" chaos_journal) (Store.create ~dir ());
  let located (r : Demand.report) = (r.Demand.found, Slice.sids r.Demand.ips) in
  let _, cold, _ = pipeline_run ~jobs:1 fx (fresh_path ()) in
  let _, warm, _ =
    pipeline_run ~store:(Store.create ~dir ()) ~jobs:1 fx (fresh_path ())
  in
  Alcotest.(check bool) "the store then locates what a cold run locates" true
    (located warm = located cold);
  mismatched "clean journal, chaos session" ~chaos ~plan:(baseline_plan ())
    (disk_store ())

let test_absent_journal_cold () =
  let path = fresh_path () in
  Alcotest.(check bool) "no journal, no plan" true
    (Pipeline.journal_plan path = None);
  let _, _, resumed =
    pipeline_run ?plan:(Pipeline.journal_plan path) ~jobs:1
      (Lazy.force fixture) path
  in
  Alcotest.(check bool) "absent journal runs cold" true
    (resumed = Pipeline.Cold);
  Alcotest.(check bool) "the run left a complete journal" true
    (match Pipeline.journal_plan path with
    | Some p -> p.Recover.complete
    | None -> false)

(* Replay seeds the store with every recorded verdict; entries are
   content addressed, so the ones already on disk are left as they
   are — not rewritten with the same bytes. *)
let test_replay_leaves_store_entries () =
  let dir = fresh_path () in
  let run ?plan path =
    pipeline_run ~store:(Store.create ~dir ()) ?plan ~jobs:1
      (Lazy.force fixture) path
  in
  (* every file under the store, whatever its layout *)
  let rec inodes_under p =
    if Sys.is_directory p then
      Sys.readdir p |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f -> inodes_under (Filename.concat p f))
    else [ (p, (Unix.stat p).Unix.st_ino) ]
  in
  let inodes () = inodes_under dir in
  let first = fresh_path () in
  let ledger, _, _ = run first in
  let before = inodes () in
  Alcotest.(check bool) "the first run filled the store" true (before <> []);
  let resumed, _, how = run ~plan:(plan_of "first run" first) (fresh_path ()) in
  Alcotest.(check bool) "the journal was replayed" true
    (match how with Pipeline.Replayed _ -> true | _ -> false);
  Alcotest.(check string) "ledger byte-identical" ledger resumed;
  Alcotest.(check (list (pair string int))) "every entry's inode unchanged"
    before (inodes ())

(* A ground-truth line resolves to the statements on it; a line that
   holds none is refused, not searched for to exhaustion. *)
let test_root_line_resolution () =
  let prog =
    match
      Pipeline.compile ~name:"sensor.mc"
        (read_file "../examples/programs/sensor.mc")
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let roots line = Pipeline.root_sids_of_line prog line in
  Alcotest.(check bool) "no ground truth: the impossible sid" true
    (roots None = Ok [ -1 ]);
  Alcotest.(check bool) "line 10 holds a statement" true
    (match roots (Some 10) with Ok (_ :: _) -> true | _ -> false);
  Alcotest.(check bool) "line 2 (a comment) is an error" true
    (Result.is_error (roots (Some 2)));
  Alcotest.(check bool) "a line past the end is an error" true
    (Result.is_error (roots (Some 9999)))

let test_describe () =
  let plan = baseline_plan () in
  let out = Recover.describe plan in
  Alcotest.(check bool) "counts the salvage" true
    (contains out "salvaged events:");
  Alcotest.(check bool) "reports completion" true
    (contains out "complete (Final event present)")

let () =
  (* [Alcotest.run] exits the process, so clean up at exit *)
  at_exit (fun () ->
      let rec remove p =
        if Sys.is_directory p then begin
          Array.iter (fun f -> remove (Filename.concat p f)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      List.iter (fun p -> if Sys.file_exists p then remove p) !cleanup);
  Alcotest.run "recover"
    [
      ( "resume",
        [
          Alcotest.test_case "kill points resume byte-identical" `Quick
            test_resume_byte_identical;
          Alcotest.test_case "replayed work is not re-charged" `Quick
            test_resume_accounting;
          Alcotest.test_case "complete journal replays entirely" `Quick
            test_complete_journal_resumes_to_itself;
          Alcotest.test_case "multi-generation crash chain" `Quick
            test_multi_generation_chain;
          Alcotest.test_case "crash chain with journal ENOSPC" `Quick
            test_multi_generation_chain_with_enospc;
          Alcotest.test_case "kill-chain coordinator spine" `Quick
            test_kill_chain_spine;
          Alcotest.test_case "foreign journal rejected" `Quick
            test_foreign_journal_rejected;
          Alcotest.test_case "absent journal is cold" `Quick
            test_absent_journal_cold;
          Alcotest.test_case "replay leaves store entries alone" `Quick
            test_replay_leaves_store_entries;
          Alcotest.test_case "salvage description" `Quick test_describe;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "root line names a statement" `Quick
            test_root_line_resolution;
        ] );
    ]
