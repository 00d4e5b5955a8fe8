module Align = Exom_align.Align
module Interp = Exom_interp.Interp
module Profile = Exom_interp.Profile
module Region = Exom_align.Region
module Trace = Exom_interp.Trace
module Value = Exom_interp.Value

(* Value perturbation (§5 of the paper): the remedy it proposes for the
   soundness gap of Table 5(b) — when nested predicates test the same
   definition, switching one branch outcome at a time cannot expose the
   dependence, but re-executing with the *definition's value* replaced
   can.  The paper prices this as "much more expensive because A has an
   integer domain while a predicate has a binary domain"; candidates
   here come from the value profile, so the cost is |range| re-executions
   per definition instead of one.

   The verdict mirrors {!Verify}: the perturbed definition instance [d]
   plays the role of the switch point for alignment purposes (both
   executions agree up to [d]). *)

(* Every perturbed re-execution — even one an injected fault aborts by
   exception — is charged to the verify.run timer.  Perturbation runs on
   the coordinator (it is not batched), so it charges the session's
   merged registry directly. *)
let perturbed_run (s : Session.t) ~d ~candidate =
  let inst = Trace.get s.Session.trace d in
  let vswitch =
    { Interp.vswitch_sid = inst.Trace.sid; vswitch_occ = inst.Trace.occ;
      vswitch_value = candidate }
  in
  let obs = s.Session.obs in
  Exom_obs.Obs.timed obs "verify.run" (fun () ->
      Interp.run ~obs ~vswitch ?chaos:s.Session.chaos ~budget:s.Session.budget
        s.Session.prog ~input:s.Session.input)

let classify (s : Session.t) ~(run' : Interp.run) ~d ~u =
  match run'.Interp.trace with
  | None -> Verdict.Not_id
  | Some trace' ->
    let aborted = run'.Interp.outcome <> Ok () in
    if not run'.Interp.switch_fired then Verdict.Not_id
    else begin
      let region' = Region.build trace' in
      let region = s.Session.region in
      (* Dependence d -> u: u disappears (in a complete run), or its
         value changes; a counterpart missing from an aborted run's
         truncated trace is inconclusive. *)
      let affected =
        match Align.to_option (Align.match_from region region' ~p:d ~u) with
        | None -> not aborted
        | Some u' ->
          not
            (Value.equal (Trace.get trace' u').Trace.value
               (Trace.get s.Session.trace u).Trace.value)
      in
      if not affected then Verdict.Not_id
      else begin
        let strong =
          match s.Session.vexp with
          | None -> false  (* crash failure: no expected value *)
          | Some vexp -> (
            match
              Align.to_option
                (Align.match_from region region' ~p:d
                   ~u:s.Session.wrong_output)
            with
            | Some o' -> Value.equal (Trace.get trace' o').Trace.value vexp
            | None -> false)
        in
        if strong then Verdict.Strong_id else Verdict.Id
      end
    end

let verify_value (s : Session.t) ~d ~candidate ~u =
  let sid = (Trace.get s.Session.trace d).Trace.sid in
  match
    Guard.execute s.Session.guard ~sid
      ~run:(fun () -> perturbed_run s ~d ~candidate)
  with
  | Guard.Skipped _ -> Verdict.Not_id
  | Guard.Completed run' | Guard.Degraded (run', _) -> (
    try classify s ~run' ~d ~u
    with exn ->
      Guard.note_captured s.Session.guard ~sid ~msg:(Printexc.to_string exn);
      Verdict.Not_id)

(* Try every profiled value of the definition's statement (the paper's
   integer-domain search): the strongest verdict wins. *)
let verify_over_profile (s : Session.t) ~d ~u =
  let inst = Trace.get s.Session.trace d in
  let candidates =
    Profile.range s.Session.profile inst.Trace.sid ~observed:inst.Trace.value
    |> List.map (fun n -> Value.Vint n)
    |> List.filter (fun v -> not (Value.equal v inst.Trace.value))
  in
  List.fold_left
    (fun best candidate ->
      match best with
      | Verdict.Strong_id -> best
      | _ -> (
        match verify_value s ~d ~candidate ~u with
        | Verdict.Strong_id -> Verdict.Strong_id
        | Verdict.Id -> Verdict.Id
        | Verdict.Not_id -> best))
    Verdict.Not_id candidates
