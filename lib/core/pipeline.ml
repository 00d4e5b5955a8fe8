module Ast = Exom_lang.Ast
module Loc = Exom_lang.Loc
module Proginfo = Exom_cfg.Proginfo
module Slice = Exom_ddg.Slice
module Pool = Exom_sched.Pool
module Store = Exom_sched.Store
module Ledger = Exom_ledger.Ledger
module Obs = Exom_obs.Obs

(* The crash-safe localization: expected output, session, oracle; then
   plan match and prime, journal attach and resume marker, the search,
   journal close.  The order is part of the contract — a resumed journal
   must be byte-identical to an uninterrupted one, and the chaos storm
   counts every I/O operation in sequence. *)

let compile ~name source =
  try Ok (Exom_lang.Typecheck.parse_and_check source) with
  | Loc.Error (loc, msg) ->
    Error (Printf.sprintf "%s:%d:%d: %s" name (Loc.line loc) (Loc.col loc) msg)
  | Failure msg -> Error (Printf.sprintf "%s: %s" name msg)
  | e -> Error (Printf.sprintf "%s: %s" name (Printexc.to_string e))

let root_sids_of_line prog = function
  | None -> Ok [ -1 ]
  | Some line -> (
    let sids = ref [] in
    Ast.iter_program
      (fun s -> if Loc.line s.Ast.sloc = line then sids := s.Ast.sid :: !sids)
      prog;
    match !sids with [] -> Error "no statement on that line" | sids -> Ok sids)

type prepared = { session : Session.t; oracle : Oracle.t }

type setup_error = No_failure | Setup_failed of string

let setup_error_message = function
  | No_failure -> "the two programs agree on this input: nothing to locate"
  | Setup_failed msg -> msg

let prepare ?obs ?budget ?chaos ?store ?ledger ?session_timer
    ?profile_inputs ~prog ~correct ~input () =
  let failed what e = Error (Setup_failed (what ^ Printexc.to_string e)) in
  match Oracle.expected ~correct_prog:correct ~input with
  | exception e -> failed "correct program failed: " e
  | expected -> (
    let obs = match obs with Some o -> o | None -> Obs.create () in
    let profile_inputs = Option.value profile_inputs ~default:[ input ] in
    let build () =
      Session.create ~obs ?budget ?chaos ?store ?ledger ~prog ~input
        ~expected ~profile_inputs ()
    in
    match
      let session =
        match session_timer with
        | Some name -> Obs.timed obs name build
        | None -> build ()
      in
      let oracle =
        Oracle.create ~faulty_trace:session.Session.trace ~correct_prog:correct
          ~input
      in
      { session; oracle }
    with
    | exception Session.No_failure -> Error No_failure
    | exception e -> failed "session setup failed: " e
    | prepared -> Ok prepared)

type resume = Cold | Replayed of Recover.plan | Mismatched

let journal_plan path =
  if Sys.file_exists path then Result.to_option (Recover.plan_of_file path)
  else None

let locate ?config ?pool ?journal ?resume p ~root_sids =
  let session = p.session in
  let resumed =
    match resume with
    | None -> Cold
    | Some plan when Recover.matches_session plan session ->
      Recover.prime session plan;
      Replayed plan
    | Some _ -> Mismatched
  in
  (* journaled iterations: every event is written ahead (flushed per
     event, fsynced per iteration), so a kill leaves a resumable
     journal instead of nothing *)
  let ledger =
    match (session.Session.ledger, journal) with
    | Some l, Some path ->
      Ledger.attach_journal l path;
      (match resumed with
      | Replayed plan ->
        Ledger.resume_marker l ~replayed:plan.Recover.salvaged_events
          ~truncated:(plan.Recover.torn <> None)
      | Cold | Mismatched -> ());
      Some l
    | _ -> None
  in
  let report = Demand.locate ?config ?pool session ~oracle:p.oracle ~root_sids in
  Option.iter Ledger.close_journal ledger;
  (report, resumed)

let store_line (st : Store.stats) =
  Printf.sprintf
    "store: %d mem + %d disk hits / %d misses (hit rate %.0f%%), %d writes, \
     %d corrupted"
    st.Store.hits st.Store.disk_hits st.Store.misses
    (100.0 *. Store.hit_rate st)
    st.Store.writes st.Store.corrupted

let report_text ~pool info (report : Demand.report) ~root_line =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "verifications: %d (of %d queries), iterations: %d, implicit edges: %d, \
     user prunings: %d\n"
    report.Demand.verifications report.Demand.verify_queries
    report.Demand.iterations report.Demand.expanded_edges
    report.Demand.user_prunings;
  Printf.bprintf b "scheduler: %d job(s)\n" (Pool.jobs pool);
  Printf.bprintf b "%s\n" (store_line report.Demand.store);
  let g = report.Demand.robustness in
  Printf.bprintf b
    "robustness: %d re-executions (%d completed, %d aborted), breaker trips \
     %d (skips %d), contained exceptions %d\n"
    report.Demand.verifications g.Guard.completed g.Guard.aborted
    g.Guard.breaker_trips g.Guard.breaker_skips g.Guard.captured;
  Option.iter
    (Printf.bprintf b "DEGRADED result: %s\n")
    report.Demand.degraded;
  List.iter
    (fun (sid, f) ->
      Printf.bprintf b "  s%-4d %s\n" sid (Guard.failure_to_string f))
    report.Demand.failures;
  Option.iter
    (fun line ->
      Printf.bprintf b "root cause (line %d) %s\n" line
        (if report.Demand.found then "LOCATED" else "not located"))
    root_line;
  Buffer.add_string b "final fault candidate set:\n";
  List.iter
    (fun sid ->
      let stmt = Proginfo.stmt_of_sid info sid in
      Printf.bprintf b "  line %-4d %s\n" (Loc.line stmt.Ast.sloc)
        (Exom_lang.Pretty.stmt_head stmt))
    (Slice.sids report.Demand.ips);
  Buffer.contents b

(* The structured counterpart of [report_text]: every deterministic
   counter of a locate report, keyed for machine consumers (the corpus
   campaign builds its outcome rows from exactly these keys). *)
let counts_of_report (report : Demand.report) =
  let g = report.Demand.robustness and s = report.Demand.store in
  [
    ("iterations", report.Demand.iterations);
    ("verifications", report.Demand.verifications);
    ("verify_queries", report.Demand.verify_queries);
    ("expanded_edges", report.Demand.expanded_edges);
    ("implicit_edges", List.length report.Demand.implicit_edges);
    ("user_prunings", report.Demand.user_prunings);
    ("total_prunings", report.Demand.total_prunings);
    ("benign", List.length report.Demand.benign);
    ("completed", g.Guard.completed);
    ("aborted", g.Guard.aborted);
    ("breaker_trips", g.Guard.breaker_trips);
    ("breaker_skips", g.Guard.breaker_skips);
    ("store_hits", s.Store.hits);
    ("store_disk_hits", s.Store.disk_hits);
    ("store_misses", s.Store.misses);
    ("store_writes", s.Store.writes);
    ("degraded", if report.Demand.degraded = None then 0 else 1);
  ]
