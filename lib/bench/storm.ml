(* The `exom chaos` storm runner.  Each leg runs one localization (or
   one corpus campaign) under a specific storage weather and checks the
   standing invariants of DESIGN.md §15; the fault accounting
   (injected = acked) is audited per leg so a silently dropped fault
   names the leg that dropped it. *)

module Typecheck = Exom_lang.Typecheck
module Demand = Exom_core.Demand
module Pipeline = Exom_core.Pipeline
module Recover = Exom_core.Recover
module Guard = Exom_core.Guard
module Slice = Exom_ddg.Slice
module Pool = Exom_sched.Pool
module Store = Exom_sched.Store
module Ledger = Exom_ledger.Ledger
module Chaos = Exom_interp.Chaos
module Campaign = Exom_corpus.Campaign
module Json = Exom_obs.Json
module Vfs = Exom_util.Vfs

type leg = {
  leg_label : string;
  leg_ok : bool;
  leg_notes : string list;
  leg_injected : int;
  leg_acked : int;
}

type report = {
  r_seed : int;
  r_legs : leg list;
  r_wrong : int;
  r_raised : int;
  r_unaccounted : int;
  r_ack_tally : (string * int) list;
  r_ok : bool;
}

(* The suite's own seed mixer (see [Exom_interp.Chaos]): sub-seeds for
   the legs must not correlate with each other or with the plan's own
   decision stream. *)
let mix x =
  let m = 0x45d9f3b in
  let x = x land max_int in
  let x = (x lxor (x lsr 16)) * m land max_int in
  let x = (x lxor (x lsr 16)) * m land max_int in
  x lxor (x lsr 16)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Plain unchecked writer: storm scaffolding (the torn journals it
   manufactures) must not itself sit under the armed plan. *)
let write_raw path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let ensure_dir_raw d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* {2 The suite fixture} *)

type fixture = {
  fx_label : string;
  fx_bench : Bench_types.t;
  fx_faulty : Exom_lang.Ast.program;
  fx_correct : Exom_lang.Ast.program;
  fx_input : int list;
  fx_roots : int list;
}

let fixture (name, fid) =
  let bench =
    match Suite.find name with
    | Some b -> b
    | None -> failwith (Printf.sprintf "chaos: unknown benchmark %s" name)
  in
  let fault =
    match Suite.find_fault bench fid with
    | Some f -> f
    | None -> failwith (Printf.sprintf "chaos: unknown fault %s/%s" name fid)
  in
  let faulty = Typecheck.parse_and_check (Bench_types.faulty_source bench fault) in
  let correct = Typecheck.parse_and_check bench.Bench_types.source in
  let input = fault.Bench_types.failing_input in
  {
    fx_label = Printf.sprintf "%s/%s" name fid;
    fx_bench = bench;
    fx_faulty = faulty;
    fx_correct = correct;
    fx_input = input;
    fx_roots = Bench_types.root_sids bench fault faulty;
  }

(* One journaled localization through the pipeline the CLI and the
   campaign run.  Returns the canonical ledger, the report and the
   ledger's absorbed journal-failure count. *)
let journaled_run ?plan ?store ?chaos ~jobs fx journal =
  let ledger = Ledger.create () in
  let prepared =
    match
      Pipeline.prepare ?chaos ?store ~ledger
        ~profile_inputs:fx.fx_bench.Bench_types.test_inputs ~prog:fx.fx_faulty
        ~correct:fx.fx_correct ~input:fx.fx_input ()
    with
    | Ok p -> p
    | Error e -> failwith ("chaos: " ^ Pipeline.setup_error_message e)
  in
  let pool = Pool.create ~jobs () in
  let report, resumed =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pipeline.locate ~pool ~journal ?resume:plan prepared
          ~root_sids:fx.fx_roots)
  in
  (match resumed with
  | Pipeline.Mismatched ->
    failwith "chaos: salvage plan does not match the session"
  | Pipeline.Cold | Pipeline.Replayed _ -> ());
  (Ledger.to_string ledger, report, Ledger.io_failures ledger)

let verdict (r : Demand.report) = (r.Demand.found, Slice.sids r.Demand.ips)

(* A degraded run's canonical ledger differs from the fault-free
   baseline in exactly one place: the Final event's [degraded] marker.
   Stripping that field lets the resume leg still assert byte-identity
   of everything the run was supposed to preserve. *)
let strip_degraded s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         if contains line "\"ev\":\"final\"" then
           match Json.parse line with
           | Ok (Json.Obj fields) ->
             Json.to_string
               (Json.Obj
                  (List.filter (fun (k, _) -> k <> "degraded") fields))
           | Ok _ | Error _ -> line
         else line)
  |> String.concat "\n"

(* What a SIGKILL leaves: everything through the first checkpoint plus
   a torn fragment of the next line (falling back to a mid-journal tear
   when the fixture checkpoints late). *)
let torn_cut journal =
  let lines =
    match List.rev (String.split_on_char '\n' journal) with
    | "" :: r -> List.rev r
    | r -> List.rev r
  in
  let cut =
    let found = ref None in
    List.iteri
      (fun i l ->
        if !found = None && contains l "\"ev\":\"checkpoint\"" then
          found := Some i)
      lines;
    match !found with
    | Some i -> min (i + 2) (List.length lines)
    | None -> max 1 (List.length lines / 2)
  in
  let s =
    String.concat "\n" (List.filteri (fun i _ -> i < cut) lines) ^ "\n"
  in
  String.sub s 0 (String.length s - min 9 (String.length s - 1))

(* {2 The leg harness} *)

type tally = { mutable wrong : int; mutable raised : int }

(* Run [f] with fault accounting scoped to the leg; whatever happens,
   the plan is disarmed before the next leg.  [note] records an
   invariant violation; an escaped exception is itself the violated
   no-raise invariant. *)
let leg_run tally label f =
  let before = Vfs.counters () in
  let notes = ref [] in
  let note s = notes := s :: !notes in
  (try f note with
  | e ->
    tally.raised <- tally.raised + 1;
    note ("raised: " ^ Printexc.to_string e));
  Vfs.disarm ();
  let after = Vfs.counters () in
  let injected = after.Vfs.c_injected - before.Vfs.c_injected in
  let acked = after.Vfs.c_acked - before.Vfs.c_acked in
  if injected <> acked then
    note (Printf.sprintf "accounting: %d injected fault(s), %d acked" injected acked);
  {
    leg_label = label;
    leg_ok = !notes = [];
    leg_notes = List.rev !notes;
    leg_injected = injected;
    leg_acked = acked;
  }

(* {2 Suite-fault legs} *)

let suite_legs tally ~seed ~jobs ~dir spec =
  let fx = fixture spec in
  let sub = Filename.concat dir (String.map (function '/' -> '_' | c -> c) fx.fx_label) in
  ensure_dir_raw sub;
  let path name = Filename.concat sub name in
  let baseline = ref None in
  let base_leg =
    leg_run tally (fx.fx_label ^ " baseline") (fun note ->
        let ledger, report, io = journaled_run ~jobs fx (path "baseline.jsonl") in
        if io > 0 then note (Printf.sprintf "fault-free baseline absorbed %d io failure(s)" io);
        baseline := Some (ledger, report))
  in
  match !baseline with
  | None -> [ base_leg ]
  | Some (base_ledger, base_report) ->
    let io_leg =
      leg_run tally (fx.fx_label ^ " io-chaos") (fun note ->
          let store = Store.create ~dir:(path "store") () in
          Vfs.arm (Vfs.Io_chaos.of_seed (mix (seed lxor 0x10c4a05)));
          let _, report, io = journaled_run ~store ~jobs fx (path "chaos.jsonl") in
          if verdict report <> verdict base_report then begin
            tally.wrong <- tally.wrong + 1;
            note "verdict drifted under io-chaos"
          end;
          if io > 0 && report.Demand.degraded = None then
            note (Printf.sprintf "%d journal failure(s) absorbed but run not marked degraded" io))
    in
    let resume_leg =
      leg_run tally (fx.fx_label ^ " kill+resume") (fun note ->
          let killed = path "killed.jsonl" in
          write_raw killed (torn_cut (read_file (path "baseline.jsonl")));
          let plan =
            match Recover.plan_of_file killed with
            | Ok p -> p
            | Error e -> failwith ("chaos: no salvage plan: " ^ e)
          in
          if plan.Recover.complete then
            note "torn journal salvaged as complete";
          (* the resumed generation runs with its journal fsync dying *)
          Vfs.arm
            (Vfs.Io_chaos.targeted ~op:Vfs.Fsync ~path_substr:"resumed.jsonl"
               ~after:1 Vfs.Enospc);
          let ledger, report, io =
            journaled_run ~plan ~jobs fx (path "resumed.jsonl")
          in
          if verdict report <> verdict base_report then begin
            tally.wrong <- tally.wrong + 1;
            note "verdict drifted across kill+resume"
          end;
          if ledger <> base_ledger then
            if io = 0 || report.Demand.degraded = None then begin
              tally.wrong <- tally.wrong + 1;
              note "resumed ledger not byte-identical and not DEGRADED"
            end
            else if strip_degraded ledger <> strip_degraded base_ledger then begin
              tally.wrong <- tally.wrong + 1;
              note "resumed ledger diverged beyond the degradation marker"
            end)
    in
    let kill_leg =
      leg_run tally (fx.fx_label ^ " kill-worker+io-chaos") (fun note ->
          let store = Store.create ~dir:(path "store_kw") () in
          Vfs.arm (Vfs.Io_chaos.of_seed (mix (seed lxor 0x5712b33)));
          let chaos =
            { Chaos.seed = mix (seed lxor 0x7ee1); fault = Chaos.Kill_worker 64 }
          in
          let _, report, _ =
            journaled_run ~store ~chaos ~jobs:(max 2 jobs) fx
              (path "killworker.jsonl")
          in
          (* worker quarantine legitimately degrades verdicts to NOT_ID;
             only an undegraded run must still agree with the baseline *)
          if
            report.Demand.degraded = None
            && report.Demand.robustness.Guard.quarantined = 0
            && verdict report <> verdict base_report
          then begin
            tally.wrong <- tally.wrong + 1;
            note "undegraded kill-worker run drifted from the baseline"
          end)
    in
    [ base_leg; io_leg; resume_leg; kill_leg ]

(* {2 The corpus legs} *)

let corpus_legs tally ~seed ~jobs ~count ~dir =
  let manifest = ref None in
  let base_rows = ref [] in
  let base_dir = Filename.concat dir "corpus_base" in
  let chaos_dir = Filename.concat dir "corpus_chaos" in
  let status_by_id rows =
    List.map (fun r -> (r.Campaign.o_id, r.Campaign.o_status)) rows
  in
  let gen_leg =
    leg_run tally "corpus baseline" (fun note ->
        let m = Campaign.generate ~seed ~count () in
        manifest := Some m;
        let rows, missing =
          Campaign.run_local ~jobs ~dir:base_dir ~manifest:m ~shards:2 ()
        in
        if missing <> [] then
          note (Printf.sprintf "fault-free campaign missing %d row(s)" (List.length missing));
        base_rows := status_by_id rows)
  in
  match !manifest with
  | None -> [ gen_leg ]
  | Some m ->
    let io_leg =
      leg_run tally "corpus io-chaos" (fun note ->
          (* lay the directories out before arming: a campaign that
             cannot even create its root has nothing to degrade to *)
          Campaign.ensure_layout chaos_dir;
          Vfs.arm (Vfs.Io_chaos.of_seed ~rate:5 (mix (seed lxor 0xc0f)));
          let rows, _missing =
            Campaign.run_local ~resume:true ~jobs ~dir:chaos_dir ~manifest:m
              ~shards:2 ()
          in
          (* shard quarantine may drop rows; every surviving row must
             agree with the fault-free campaign *)
          let base = !base_rows in
          List.iter
            (fun (id, st) ->
              match List.assoc_opt id base with
              | Some st' when st' <> st ->
                tally.wrong <- tally.wrong + 1;
                note (Printf.sprintf "triple %s drifted under io-chaos: %s vs %s" id st st')
              | Some _ -> ()
              | None -> note (Printf.sprintf "triple %s not in the manifest" id))
            (status_by_id rows))
    in
    let resume_leg =
      leg_run tally "corpus resume" (fun note ->
          let rows, missing =
            Campaign.run_local ~resume:true ~jobs ~dir:chaos_dir ~manifest:m
              ~shards:2 ()
          in
          if missing <> [] then
            note (Printf.sprintf "resumed campaign still missing %d row(s)" (List.length missing));
          let base = !base_rows in
          List.iter
            (fun (id, st) ->
              match List.assoc_opt id base with
              | Some st' when st' <> st ->
                tally.wrong <- tally.wrong + 1;
                note (Printf.sprintf "triple %s wrong after resume: %s vs %s" id st st')
              | _ -> ())
            (status_by_id rows))
    in
    [ gen_leg; io_leg; resume_leg ]

(* {2 The storm} *)

let default_faults = [ ("gzipsim", "V2-F3"); ("grepsim", "V4-F2") ]

let run ?(jobs = 2) ?(corpus = 20) ?(faults = default_faults) ~seed ~dir () =
  ensure_dir_raw dir;
  Vfs.disarm ();
  Vfs.reset_counters ();
  let tally = { wrong = 0; raised = 0 } in
  let legs =
    Fun.protect
      ~finally:(fun () -> Vfs.disarm ())
      (fun () ->
        List.concat_map (suite_legs tally ~seed ~jobs ~dir) faults
        @ (if corpus > 0 then
             corpus_legs tally ~seed ~jobs ~count:corpus ~dir
           else []))
  in
  let unaccounted =
    List.fold_left (fun n l -> n + (l.leg_injected - l.leg_acked)) 0 legs
  in
  {
    r_seed = seed;
    r_legs = legs;
    r_wrong = tally.wrong;
    r_raised = tally.raised;
    r_unaccounted = unaccounted;
    r_ack_tally = Vfs.ack_tally ();
    r_ok = List.for_all (fun l -> l.leg_ok) legs;
  }

(* {2 Reporting} *)

let num n = Json.Num (float_of_int n)

let leg_to_json l =
  Json.Obj
    [
      ("label", Json.Str l.leg_label);
      ("ok", Json.Bool l.leg_ok);
      ("notes", Json.Arr (List.map (fun s -> Json.Str s) l.leg_notes));
      ("injected", num l.leg_injected);
      ("acked", num l.leg_acked);
    ]

let report_to_json r =
  Json.Obj
    [
      ("schema", Json.Str "exom.chaos");
      ("version", num 1);
      ("seed", num r.r_seed);
      ("ok", Json.Bool r.r_ok);
      ("wrong", num r.r_wrong);
      ("raised", num r.r_raised);
      ("unaccounted", num r.r_unaccounted);
      ( "ack_tally",
        Json.Obj (List.map (fun (k, v) -> (k, num v)) r.r_ack_tally) );
      ("legs", Json.Arr (List.map leg_to_json r.r_legs));
    ]

let render r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "storm seed %d: %d leg(s)\n" r.r_seed (List.length r.r_legs);
  List.iter
    (fun l ->
      Printf.bprintf b "  %-4s %-38s injected %3d acked %3d\n"
        (if l.leg_ok then "ok" else "FAIL")
        l.leg_label l.leg_injected l.leg_acked;
      List.iter (fun n -> Printf.bprintf b "       - %s\n" n) l.leg_notes)
    r.r_legs;
  Printf.bprintf b "wrong answers: %d, escaped exceptions: %d\n" r.r_wrong
    r.r_raised;
  Printf.bprintf b "fault accounting: %d unaccounted\n" r.r_unaccounted;
  List.iter
    (fun (k, v) -> Printf.bprintf b "  acked by %-28s %d\n" k v)
    r.r_ack_tally;
  Printf.bprintf b "verdict: %s\n" (if r.r_ok then "CLEAN" else "VIOLATIONS");
  Buffer.contents b
