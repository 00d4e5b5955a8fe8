module Ast = Exom_lang.Ast
module Typecheck = Exom_lang.Typecheck
module Interp = Exom_interp.Interp
module Trace = Exom_interp.Trace
module Slice = Exom_ddg.Slice
module Relevant = Exom_ddg.Relevant
module Demand = Exom_core.Demand
module Obs = Exom_obs.Obs
module Pipeline = Exom_core.Pipeline
module Session = Exom_core.Session

(* Execute the full experiment for one seeded fault: run the failing
   program, compute the three slices of Table 2 (RS / DS / PS), run the
   demand-driven locator for Table 3, and time the plain / traced /
   verification executions for Table 4. *)

type sizes = { static_size : int; dynamic_size : int }

type result = {
  bench : Bench_types.t;
  fault : Bench_types.fault;
  rs : sizes;
  ds : sizes;
  ps : sizes;
  ips : sizes;
  os_ : sizes option;
  report : Demand.report;
  root_in_rs : bool;
  root_in_ds : bool;
  root_in_ps : bool;
  plain_seconds : float;
  graph_seconds : float;
  verif_seconds : float;
  trace_length : int;
  robustness : Exom_core.Guard.stats;
      (* switched-re-execution telemetry for this fault's locate run *)
}

let sizes_of_slice s =
  { static_size = Slice.static_size s; dynamic_size = Slice.dynamic_size s }

let sizes_of_chain trace chain =
  let sids =
    List.sort_uniq compare
      (List.map (fun i -> (Trace.get trace i).Trace.sid) chain)
  in
  { static_size = List.length sids; dynamic_size = List.length chain }

let run_fault ?obs ?config ?(budget = Interp.default_budget) ?chaos ?pool
    ?store ?ledger bench fault =
  (* All Table 4 timing reads come from the metrics registry (wall
     clock, not [Sys.time]: process CPU time double-counts across pool
     domains and under-counts blocking) — one accounting path shared
     with `exom stats`. *)
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let faulty_src = Bench_types.faulty_source bench fault in
  let faulty = Typecheck.parse_and_check faulty_src in
  let correct = Typecheck.parse_and_check bench.Bench_types.source in
  let input = fault.Bench_types.failing_input in
  (* Table 4: plain vs graph-constructing execution *)
  let seconds name = Exom_obs.Metrics.timer_seconds (Obs.metrics obs) name in
  let plain0 = seconds "runner.plain_run" in
  let graph0 = seconds "runner.session_build" in
  let _ =
    Obs.timed obs "runner.plain_run" (fun () ->
        Interp.run ~tracing:false ~budget faulty ~input)
  in
  let prepared =
    match
      Pipeline.prepare ~obs ~budget ?chaos ?store ?ledger
        ~session_timer:"runner.session_build"
        ~profile_inputs:bench.Bench_types.test_inputs ~prog:faulty ~correct
        ~input ()
    with
    | Ok p -> p
    | Error Pipeline.No_failure -> raise Session.No_failure
    | Error (Pipeline.Setup_failed msg) -> failwith msg
  in
  let session = prepared.Pipeline.session in
  let plain_seconds = seconds "runner.plain_run" -. plain0 in
  let graph_seconds = seconds "runner.session_build" -. graph0 in
  let root_sids = Bench_types.root_sids bench fault faulty in
  (* Table 2: the relevant slice of the wrong output *)
  let rs_slice =
    Relevant.relevant_slice session.Session.rel
      ~criteria:[ session.Session.wrong_output ]
  in
  let report, _ = Pipeline.locate ?config ?pool prepared ~root_sids in
  let trace = session.Session.trace in
  let in_slice slice = List.exists (Slice.mem_sid slice) root_sids in
  {
    bench;
    fault;
    rs = sizes_of_slice rs_slice;
    ds = sizes_of_slice report.Demand.ds;
    ps = sizes_of_slice report.Demand.ps0;
    ips = sizes_of_slice report.Demand.ips;
    os_ = Option.map (sizes_of_chain trace) report.Demand.os_chain;
    report;
    root_in_rs = in_slice rs_slice;
    root_in_ds = in_slice report.Demand.ds;
    root_in_ps = in_slice report.Demand.ps0;
    plain_seconds;
    graph_seconds;
    verif_seconds = report.Demand.verif_seconds;
    trace_length = Trace.length trace;
    robustness = report.Demand.robustness;
  }

(* Sanity checks used by tests and the harness: every fault's faulty
   version must still typecheck, keep the statement count (sid
   stability) and actually fail on its failing input. *)
let validate_fault bench fault =
  let faulty = Typecheck.parse_and_check (Bench_types.faulty_source bench fault) in
  let correct = Typecheck.parse_and_check bench.Bench_types.source in
  if Ast.stmt_count faulty <> Ast.stmt_count correct then
    failwith (Printf.sprintf "%s: statement count changed" fault.Bench_types.fid);
  let input = fault.Bench_types.failing_input in
  let run_faulty = Interp.run ~tracing:false faulty ~input in
  let out_faulty = Interp.output_values run_faulty in
  let out_correct =
    Interp.output_values (Interp.run ~tracing:false correct ~input)
  in
  if out_faulty = out_correct && run_faulty.Interp.outcome = Ok () then
    failwith (Printf.sprintf "%s: fault does not manifest" fault.Bench_types.fid);
  (* The failure must be anchorable: an observable wrong value at a
     shared output position, or — for crash/hang faults — an aborting
     run (whose last trace instance anchors the session instead). *)
  match
    Session.classify_outputs
      ~outputs:(List.mapi (fun i v -> (i, v)) out_faulty)
      ~expected:out_correct
  with
  | _ -> ()
  | exception Session.No_failure ->
    if run_faulty.Interp.outcome = Ok () then
      failwith
        (Printf.sprintf
           "%s: no observable wrong value at a shared output position"
           fault.Bench_types.fid)

let validate_all () =
  List.iter (fun (b, f) -> validate_fault b f) Suite.rows
