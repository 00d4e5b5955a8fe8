(* Layer probes: one public call per layer, timed on the end state of
   every suite fault's localization (its report's implicit edges and
   benign set).  They split the coordinator's search time between the
   analyses it runs, and time the layers that the warm and resume
   workloads bypass on inputs that exercise them. *)

module Align = Exom_align.Align
module Confidence = Exom_conf.Confidence
module Demand = Exom_core.Demand
module Interp = Exom_interp.Interp
module Ledger = Exom_ledger.Ledger
module Obs = Exom_obs.Obs
module Prune = Exom_conf.Prune
module Recover = Exom_core.Recover
module Region = Exom_align.Region
module Relevant = Exom_ddg.Relevant
module Session = Exom_core.Session
module Slice = Exom_ddg.Slice
module Trace = Exom_interp.Trace

let reps = 7

(* Median over [reps] rounds of the time one call of [f (prepare ())]
   takes.  A round repeats the call until it covers half a millisecond,
   so the clock's microsecond grain does not show; a [fresh] call, whose
   input the call changes, gets a round of its own. *)
let median_us ?(fresh = false) prepare f =
  let round () =
    let x = prepare () in
    let calls = ref 0 and t0 = Measure.now () in
    while !calls = 0 || ((not fresh) && Measure.now () -. t0 < 5e-4) do
      ignore (Sys.opaque_identity (f x));
      incr calls
    done;
    (Measure.now () -. t0) /. float_of_int !calls *. 1e6
  in
  Measure.median (List.init reps (fun _ -> round ()))

let probe_fault ~work ~fault (s : Session.t) (rep : Demand.report) ledger =
  let trace = s.Session.trace and criterion = s.Session.wrong_output in
  let edges = rep.Demand.implicit_edges in
  let extra idx = List.filter_map (fun (p, t) -> if t = idx then Some p else None) edges in
  let none () = () in
  let written = ref 0 and last = ref "" in
  let next_path () =
    incr written;
    last := Filename.concat work (Printf.sprintf "probe-%d-%d.jsonl" fault !written);
    !last
  in
  let slice () = Slice.compute ~extra trace ~criteria:[ criterion ] in
  let conf () =
    Confidence.compute s.Session.info s.Session.profile trace
      ~correct:s.Session.correct_outputs ~benign:rep.Demand.benign ~implicit:edges
  in
  let edge_probes =
    match edges with
    | [] -> []
    | (p, u) :: _ ->
      let inst = Trace.get trace p in
      let switched () =
        Interp.run
          ~switch:{ Interp.switch_sid = inst.Trace.sid; switch_occ = inst.Trace.occ }
          ~budget:s.Session.budget s.Session.prog ~input:s.Session.input
      in
      let region' = Region.build (Option.get (switched ()).Interp.trace) in
      [ ("probe.pd_us",
         median_us ~fresh:true (fun () -> Relevant.create s.Session.info trace) (fun rel ->
             Relevant.pd rel u));
        ("probe.switched_run_us", median_us none switched);
        ("probe.align_us", median_us none (fun () -> Align.match_from s.Session.region region' ~p ~u)) ]
  in
  (* bound in order: the plan reads the last ledger the write probe left *)
  let ledger_write =
    (* a new file each time: replacing one waits for its writeback on ext4 *)
    median_us ~fresh:true next_path (fun path -> Ledger.write_result path ledger)
  in
  let recover_plan = median_us none (fun () -> Recover.plan_of_file !last) in
  [ ("probe.slice_us", median_us none slice);
    ("probe.confidence_us", median_us none conf);
    ("probe.prune_us",
     median_us (fun () -> (slice (), conf ())) (fun (slice, conf) ->
         Prune.compute ~extra trace ~slice ~conf ~criterion));
    ("probe.regions_us", median_us none (fun () -> Region.build trace));
    ("probe.relevant_create_us", median_us none (fun () -> Relevant.create s.Session.info trace));
    ("probe.ledger_write_us", ledger_write);
    ("probe.recover_plan_us", recover_plan) ]
  @ edge_probes

let names =
  [ "probe.slice_us"; "probe.confidence_us"; "probe.prune_us"; "probe.pd_us";
    "probe.regions_us"; "probe.relevant_create_us"; "probe.switched_run_us";
    "probe.align_us"; "probe.ledger_write_us"; "probe.recover_plan_us" ]

(** Each probe summed over the suite faults, in microseconds. *)
let run ~pool ~work =
  let per_fault =
    List.mapi
      (fun i bf ->
        let ledger = Ledger.create () in
        let r =
          Request.suite ~ledger ~obs:(Obs.create ()) ~pool ~store:Workload.memory_store bf
        in
        probe_fault ~work ~fault:i (Option.get r.Request.session) (Option.get r.Request.report)
          ledger)
      Exom_bench.Suite.rows
  in
  List.map
    (fun name ->
      (name, List.fold_left (fun acc l -> acc +. Option.value ~default:0.0 (List.assoc_opt name l)) 0.0 per_fault))
    names
