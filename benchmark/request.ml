(* One localization request, driven through the public library calls
   with a benchmark-side span around each call.  Without tracing the
   spans cost one match each ({!Exom_obs.Obs.with_span}), so the same
   code serves the timed passes and the traced ones. *)

module B = Exom_bench.Bench_types
module Campaign = Exom_corpus.Campaign
module Demand = Exom_core.Demand
module Ledger = Exom_ledger.Ledger
module Obs = Exom_obs.Obs
module Oracle = Exom_core.Oracle
module Recover = Exom_core.Recover
module Seeder = Exom_corpus.Seeder
module Session = Exom_core.Session
module Span = Exom_obs.Span
module Typecheck = Exom_lang.Typecheck

type t = {
  obs : Obs.t;
  report : Demand.report option;  (** [None] when no session was built *)
  row : Campaign.outcome option;  (** corpus requests only *)
  replayed_batches : int;
  session : Session.t option;  (** suite requests only, for the probes *)
  ledger : Ledger.t option;  (** likewise *)
  canonical : string option;  (** the canonical ledger a corpus request produced *)
}

let span obs name f = Obs.with_span obs ~cat:"bench" name f

(** The root span every request runs under: its self time is the part
    of the request no layer span accounts for. *)
let root = "request"

let failed r =
  match (r.report, r.row) with
  | Some rep, _ -> rep.Demand.degraded <> None
  | None, Some row -> not (List.mem row.Campaign.o_status [ "located"; "not_located" ])
  | None, None -> true

let found r =
  match r.report with Some rep -> rep.Demand.found | None -> false

(** A suite fault, as [exom bench] locates it: [store] opens the verdict
    store (memory-only or a handle on a primed directory); [ledger]
    records provenance (the layer probes' fixture needs one). *)
let suite ?ledger ~obs ~pool ~store (b, f) =
  span obs root @@ fun () ->
  let faulty = span obs "lang.parse" (fun () -> Typecheck.parse_and_check (B.faulty_source b f)) in
  let correct = span obs "lang.parse" (fun () -> Typecheck.parse_and_check b.B.source) in
  let input = f.B.failing_input in
  let expected =
    span obs "oracle.expected" (fun () -> Oracle.expected ~correct_prog:correct ~input)
  in
  let store = span obs "store.open" store in
  let session =
    Session.create ~obs ~store ?ledger ~prog:faulty ~input ~expected
      ~profile_inputs:b.B.test_inputs ()
  in
  let oracle =
    span obs "oracle.create" (fun () ->
        Oracle.create ~faulty_trace:session.Session.trace ~correct_prog:correct ~input)
  in
  let report =
    Demand.locate ~pool session ~oracle ~root_sids:(B.root_sids b f faulty)
  in
  { obs; report = Some report; row = None; replayed_batches = 0;
    session = Some session; ledger; canonical = None }

let journal dir (t : Campaign.triple) =
  Filename.concat (Filename.concat dir "journals") (t.Campaign.t_id ^ ".jsonl")

(** One corpus triple against the campaign directory [dir]: the call
    sequence of {!Campaign.run_triple}, except that the ledger's
    write-ahead journal is not attached.  Attaching truncates an
    existing journal, flushes per event and fsyncs per iteration; on a
    shared ext4 disk each truncate or replace of an existing file waits
    for a writeback (about 50 ms under contention), which no bound can
    absorb.  With [persist] the canonical ledger that [run_triple]
    leaves behind is written the same way; without, it is only
    serialized, and the request touches the disk for nothing but
    reading a journal to resume from.  [store] opens the verdict store,
    as in {!suite}. *)
let triple ~obs ~pool ~dir ~store ~persist (t : Campaign.triple) =
  span obs root @@ fun () ->
  let result ?report ?canonical ?(replayed_batches = 0) status counts =
    let row =
      {
        Campaign.o_id = t.Campaign.t_id;
        o_class = Seeder.class_to_string t.Campaign.t_class;
        o_family = t.Campaign.t_family;
        o_status = status;
        o_counts = counts;
        o_stmts = t.Campaign.t_stmts;
        o_predicates = t.Campaign.t_predicates;
        o_loc = t.Campaign.t_loc;
      }
    in
    { obs; report; row = Some row; replayed_batches; session = None; ledger = None; canonical }
  in
  let parse src = span obs "lang.parse" (fun () -> Typecheck.parse_and_check src) in
  match (parse t.Campaign.t_faulty, parse t.Campaign.t_correct) with
  | exception _ -> result "error" []
  | prog, correct -> (
    let input = t.Campaign.t_input in
    match span obs "oracle.expected" (fun () -> Oracle.expected ~correct_prog:correct ~input) with
    | exception _ -> result "error" []
    | expected -> (
      let store = span obs "store.open" store in
      let ledger = Ledger.create () in
      match
        Session.create ~obs ~store ~ledger ~prog ~input ~expected
          ~profile_inputs:[ input ] ()
      with
      | exception Session.No_failure -> result "no_failure" []
      | exception _ -> result "error" []
      | session ->
        let lpath = journal dir t in
        let plan =
          if Sys.file_exists lpath then
            span obs "recover.plan" (fun () ->
                match Recover.plan_of_file lpath with
                | Ok p when Recover.matches_session p session -> Some p
                | Ok _ | Error _ -> None)
          else None
        in
        Option.iter (fun p -> span obs "recover.prime" (fun () -> Recover.prime session p)) plan;
        let oracle =
          span obs "oracle.create" (fun () ->
              Oracle.create ~faulty_trace:session.Session.trace ~correct_prog:correct ~input)
        in
        let report =
          Demand.locate ~pool session ~oracle ~root_sids:t.Campaign.t_root_sids
        in
        let canonical =
          if persist then
            (* the campaign absorbs a failed write into its row; here it
               fails the request, so the output check sees it *)
            match span obs "ledger.write" (fun () -> Ledger.write_result lpath ledger) with
            | Ok () -> None
            | Error e -> failwith (Exom_util.Vfs.error_message e)
          else Some (span obs "ledger.serialize" (fun () -> Ledger.to_string ledger))
        in
        result ~report ?canonical
          ~replayed_batches:(match plan with Some p -> p.Recover.replayed_batches | None -> 0)
          (if report.Demand.found then "located" else "not_located")
          (Exom_serve.Serve.counts_of_report report)))

(** The names of the calls the request made, in order: the direct
    children of its root span. *)
let calls r =
  let spans = Obs.spans r.obs in
  match List.find_opt (fun (s : Span.t) -> s.Span.name = root) spans with
  | None -> []
  | Some rs ->
    List.filter_map
      (fun (s : Span.t) ->
        if s.Span.parent = rs.Span.id && s.Span.tid = 0 then Some s.Span.name else None)
      spans
