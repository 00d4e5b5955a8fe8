module Ledger = Exom_ledger.Ledger

(* Salvage of a killed localization: turn the journal it left behind —
   possibly with a torn last line — into a replay plan the resumed run
   consumes positionally (see {!Session.replay_group}).

   The plan keeps only *complete* batches: a group is closed by its
   Checkpoint event, which the coordinator appends immediately after
   the Batch event, so a kill can orphan at most the one batch that was
   in flight (its Verify events are dropped and re-verified live).
   Everything outside Verify/Batch/Checkpoint — Session, Locate, Slice,
   Prune, Expand, Edge — is deliberately not replayed: the resumed
   demand loop recomputes and re-emits it deterministically, and the
   recomputation doubles as a cross-check that the journal belongs to
   this program and input. *)

type plan = {
  groups : Session.replay_group list;  (* complete batches, oldest first *)
  session_ev : Ledger.event option;  (* the journal's Session event *)
  salvaged_events : int;  (* events the tolerant reader accepted *)
  replayed_batches : int;
  replayed_verifications : int;  (* Verify events inside complete groups *)
  dropped_events : int;  (* trailing events of the in-flight batch *)
  iterations : int;  (* completed slice snapshots (incl. iteration 0) *)
  torn : Exom_obs.Jsonl.salvage option;  (* the journal's torn last line *)
  prior_resumes : int;  (* resume markers already in the journal *)
  complete : bool;  (* a Final event is present: nothing was lost *)
}

let result_of_strings verdict value_affected =
  match verdict with
  | "STRONG_ID" -> Some { Verdict.verdict = Verdict.Strong_id; value_affected }
  | "ID" -> Some { Verdict.verdict = Verdict.Id; value_affected }
  | "NOT_ID" -> Some { Verdict.verdict = Verdict.Not_id; value_affected }
  | _ -> None

(* Fold the salvaged events into closed replay groups.  Planning stops
   at the first undecodable verdict string (a foreign or hand-edited
   journal): replay is positional, so a gap would desynchronize every
   group after it — better to re-verify live from that point. *)
let build_groups events =
  let groups = ref [] in
  let cur_verifies = ref [] in  (* (pair, result, source, event), newest first *)
  let cur_batch = ref None in
  let session_ev = ref None in
  let iterations = ref 0 in
  let complete = ref false in
  let broken = ref false in
  let close_group (q, runs, batch_ev) ck =
    let vs = List.rev !cur_verifies in
    let ck_events = match ck with None -> [] | Some c -> [ Ledger.Checkpoint c ] in
    groups :=
      {
        Session.rg_pairs = List.map (fun (pu, _, _, _) -> pu) vs;
        rg_queries = q;
        rg_verdicts = List.map (fun (pu, r, src, _) -> (pu, (r, src))) vs;
        rg_events =
          List.map (fun (_, _, _, e) -> e) vs @ (batch_ev :: ck_events);
        rg_total_runs = runs;
        rg_checkpoint = ck;
      }
      :: !groups;
    cur_verifies := [];
    cur_batch := None
  in
  List.iter
    (fun ev ->
      if not !broken then
        match ev with
        | Ledger.Session _ -> session_ev := Some ev
        | Ledger.Slice _ -> incr iterations
        | Ledger.Final _ -> complete := true
        | Ledger.Verify v -> (
          match result_of_strings v.Ledger.verdict v.Ledger.value_affected with
          | Some r ->
            cur_verifies :=
              ((v.Ledger.vp.Ledger.idx, v.Ledger.vu.Ledger.idx),
               r, v.Ledger.source, ev)
              :: !cur_verifies
          | None -> broken := true)
        | Ledger.Batch { queries; total_runs; _ } ->
          cur_batch := Some (queries, total_runs, ev)
        | Ledger.Checkpoint ck -> (
          match !cur_batch with
          | Some b -> close_group b (Some ck)
          | None ->
            (* a checkpoint with no batch in flight: not a shape the
               writer produces — stop trusting the journal here *)
            broken := true)
        | Ledger.Locate _ | Ledger.Prune _ | Ledger.Expand _ | Ledger.Rank _
        | Ledger.Edge _ ->
          (* re-emitted live by the resumed demand loop: Rank decisions
             are recomputed from the replayed verdict evidence, which is
             identical to the original run's, so they re-emit byte-equal *)
          ())
    events;
  let dropped =
    List.length !cur_verifies + (match !cur_batch with Some _ -> 1 | None -> 0)
  in
  (List.rev !groups, !session_ev, dropped, !iterations, !complete)

let plan_of_recovery (r : Ledger.recovery) =
  let groups, session_ev, dropped, iterations, complete =
    build_groups r.Ledger.r_events
  in
  {
    groups;
    session_ev;
    salvaged_events = List.length r.Ledger.r_events;
    replayed_batches = List.length groups;
    replayed_verifications =
      List.fold_left
        (fun n g -> n + List.length g.Session.rg_pairs)
        0 groups;
    dropped_events = dropped;
    iterations;
    torn = r.Ledger.r_torn;
    prior_resumes = r.Ledger.r_markers;
    complete;
  }

let plan_of_file path = Result.map plan_of_recovery (Ledger.recover_file path)

(* Does the journal describe the same failing run this session just
   reproduced, under the same chaos spec?  Compared on the Session
   event's deterministic fields; a journal with no Session event matches
   nothing (its provenance is unknowable).  The chaos spec is part of
   every verdict's store key, so a journal recorded under another spec
   would seed its verdicts under this session's keys. *)
let matches_session plan (s : Session.t) =
  match plan.session_ev with
  | Some
      (Ledger.Session
         { wrong; vexp = _; correct_outputs; budget; trace_len; chaos }) ->
    wrong.Ledger.idx = s.Session.wrong_output
    && correct_outputs = List.length s.Session.correct_outputs
    && budget = s.Session.budget
    && trace_len = Exom_interp.Trace.length s.Session.trace
    && chaos = Option.map Exom_interp.Chaos.to_string s.Session.chaos
  | _ -> false

(* Arm the session's replay cursor.  Call before [Demand.locate]; the
   first verify batch then starts consuming the plan. *)
let prime (s : Session.t) plan = s.Session.replay <- plan.groups

let describe plan =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  add "salvaged events:        %d%s" plan.salvaged_events
    (match plan.torn with
    | Some t -> "  (" ^ Exom_obs.Jsonl.torn_message t ^ ")"
    | None -> "");
  add "completed batches:      %d  (%d verifications replayable)"
    plan.replayed_batches plan.replayed_verifications;
  add "in-flight batch events: %d  (will be re-verified live)"
    plan.dropped_events;
  add "iteration snapshots:    %d" plan.iterations;
  if plan.prior_resumes > 0 then add "prior resumes:          %d" plan.prior_resumes;
  add "run status:             %s"
    (if plan.complete then "complete (Final event present)"
     else "interrupted (no Final event)");
  Buffer.contents b
