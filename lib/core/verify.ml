module Align = Exom_align.Align
module Batch = Exom_sched.Batch
module Interp = Exom_interp.Interp
module Pool = Exom_sched.Pool
module Region = Exom_align.Region
module Slice = Exom_ddg.Slice
module Store = Exom_sched.Store
module Obs = Exom_obs.Obs
module Metrics = Exom_obs.Metrics
module Trace = Exom_interp.Trace
module Value = Exom_interp.Value
module Ledger = Exom_ledger.Ledger

(* How Definition 2's case (ii) — "an explicit dependence path between
   p' and u'" — is tested:
   - [Edge_approximation] (the paper's deliberate, slightly unsafe
     choice, §3.2): u''s reaching definition must lie inside the
     switched predicate's region.  One region test per verification.
   - [Path_exact] (the safe variant the paper outlines and prices):
     p' must appear in the backward explicit-dependence slice of u'.
     Catches chains like the paper's 2 -> 3 -> 6 -> 7 -> 15, at the cost
     of a slice computation per verification and of admitting many more
     candidates per expansion. *)
type mode = Edge_approximation | Path_exact

(* VerifyDep (Algorithm 2, Definitions 2 and 4): test whether the use
   instance [u] implicitly depends on predicate instance [p] by
   re-executing with [p]'s branch outcome switched and aligning the two
   executions.

   - The switched run aborting (step budget = the paper's timer, or a
     crash) fails the verification: NOT_ID.
   - If the failure point o× aligns and now carries the expected value:
     STRONG_ID (Definition 4) — the strongest evidence, checked first.
   - If [u] has no counterpart, its execution hinged on [p]: ID
     (Definition 2 case (i)).
   - If [u]'s counterpart reads a definition lying inside the switched
     predicate's region, the switch rerouted the value: ID (case (ii),
     with the paper's deliberate edge-not-path approximation, §3.2).
   - Otherwise NOT_ID. *)

(* Every re-execution — including ones an injected fault aborts by
   exception — is charged to the verify.run timer of the given obs
   shard (worker-local under the scheduler; merged into the session by
   the coordinator), keeping
   [Guard.stats.completed + aborted = Session.verifications]. *)
let switched_run (s : Session.t) wobs ~p =
  let inst = Trace.get s.Session.trace p in
  let switch =
    { Interp.switch_sid = inst.Trace.sid; switch_occ = inst.Trace.occ }
  in
  Obs.timed wobs "verify.run" (fun () ->
      Interp.run ~obs:wobs ~switch ?chaos:s.Session.chaos
        ~budget:s.Session.budget s.Session.prog ~input:s.Session.input)

(* Does some use of [u'] read a definition that lies inside the region
   of the switched predicate [p'] (i.e. executed only because of the
   switch)?  This is the "d' in Region(p')" test, generalized to all the
   operands of [u']. *)
let rerouted_definition region' ~p' ~u' trace' =
  let inst' = Trace.get trace' u' in
  List.exists
    (fun (_, def', _) ->
      def' >= 0 && Region.in_region region' ~u:def' ~r:p')
    inst'.Trace.uses

(* A verified implicit dependence comes in two strengths of evidence
   (see {!Verdict.result}): a reroute-only dependence (the counterpart
   reads a definition from the switched region but happens to see the
   same value — e.g. a loop predicate whose operand changed from 5 to 2
   while the outcome stayed true) is still an implicit dependence for
   slicing, but says nothing about the predicate's outcome being
   correct, so it must not pin it during confidence propagation. *)

let not_id = { Verdict.verdict = Verdict.Not_id; value_affected = false }

(* [region'] is shared lazily across every use verified against the
   same switched run (the batch planner groups them), so the region
   tree of one re-execution is built at most once.

   Besides the verdict, classification returns the alignment evidence
   the provenance ledger records: the target's counterpart (or its
   absence — the proof of Definition 2 case (i)), whether a definition
   was rerouted through the switched region (case (ii)), and the
   failure point's counterpart with the Definition 4 outcome. *)
let classify ?obs (s : Session.t) ~mode ~(run' : Interp.run) ~region' ~p ~u =
  match run'.Interp.trace with
  | None -> (not_id, None)
  | Some trace' ->
    (* An aborted switched run (budget = the paper's timer, or a crash
       caused by the now-inconsistent program state) still produced a
       valid trace prefix: alignment over it is sound for anything it
       contains.  Only a *missing* counterpart becomes inconclusive —
       the truncation, not the switch, may explain the absence — and is
       then conservatively NOT_ID (the paper's timer rule). *)
    let aborted = run'.Interp.outcome <> Ok () in
    if not run'.Interp.switch_fired then (not_id, None)
    else begin
      let region' = Lazy.force region' in
      let region = s.Session.region in
      let counterpart =
        Align.to_option (Align.match_from ?obs region region' ~p ~u)
      in
      (* Definition 2 first: does u implicitly depend on p at all?
         (The paper's pseudocode short-circuits on the o× test alone,
         but Definition 4 requires the implicit dependence to hold too;
         without the conjunction, a culprit predicate would acquire
         strong edges to *benign* targets and confidence propagation
         would sanitize it.) *)
      let id_holds, value_affected, rerouted =
        match counterpart with
        | None ->
          (* case (i): u has no counterpart *)
          if aborted then (false, false, false) else (true, true, false)
        | Some u' ->
          let holds =
            match mode with
            | Edge_approximation ->
              rerouted_definition region' ~p':p ~u' trace'
            | Path_exact ->
              Slice.mem (Slice.compute trace' ~criteria:[ u' ]) p
          in
          let changed =
            not
              (Value.equal (Trace.get trace' u').Trace.value
                 (Trace.get s.Session.trace u).Trace.value)
          in
          (holds, changed, holds)
      in
      if not id_holds then
        ( not_id,
          Some
            { Ledger.counterpart; ox_counterpart = None; ox_restored = false;
              rerouted } )
      else begin
        (* Definition 4: additionally, the failure point aligns and
           shows the expected value. *)
        let ox_counterpart, strong =
          match s.Session.vexp with
          | None -> (None, false)  (* crash failure: no expected value *)
          | Some vexp -> (
            match
              Align.to_option
                (Align.match_from ?obs region region' ~p
                   ~u:s.Session.wrong_output)
            with
            | Some o' ->
              (Some o', Value.equal (Trace.get trace' o').Trace.value vexp)
            | None -> (None, false))
        in
        ( {
            Verdict.verdict =
              (if strong then Verdict.Strong_id else Verdict.Id);
            value_affected;
          },
          Some
            { Ledger.counterpart; ox_counterpart; ox_restored = strong;
              rerouted } )
      end
    end

(* {2 Verdict store codec and keys}

   A verdict is a pure function of (program, input, expected stream,
   budget, chaos spec, mode, p, u).  The session's [key_prefix] hashes
   the first five; the per-pair key adds the rest, so a persistent
   store can be shared across sessions and processes without ever
   serving a stale or foreign verdict. *)

let mode_tag = function Edge_approximation -> "E" | Path_exact -> "P"

let pair_key (s : Session.t) ~mode ~p ~u =
  Store.digest
    [ s.Session.key_prefix; mode_tag mode; string_of_int p; string_of_int u ]

let encode_result { Verdict.verdict; value_affected } =
  let v =
    match verdict with
    | Verdict.Strong_id -> 'S'
    | Verdict.Id -> 'I'
    | Verdict.Not_id -> 'N'
  in
  Printf.sprintf "%c%c" v (if value_affected then '1' else '0')

let decode_result payload =
  if String.length payload <> 2 then None
  else
    let verdict =
      match payload.[0] with
      | 'S' -> Some Verdict.Strong_id
      | 'I' -> Some Verdict.Id
      | 'N' -> Some Verdict.Not_id
      | _ -> None
    in
    match (verdict, payload.[1]) with
    | Some verdict, ('0' | '1') ->
      Some { Verdict.verdict; value_affected = payload.[1] = '1' }
    | _ -> None

(* {2 Ledger evidence}

   Workers produce one evidence slot per miss (disjoint writes into a
   shared array, exactly like the answers array); the coordinator turns
   slots into ledger events after the deterministic merge, so the
   ledger's contents never depend on worker interleaving. *)

type evidence = {
  ev_source : string;
      (* "run" | "cache:mem" | "cache:disk" | "skip" | "dead" *)
  ev_run : Ledger.run_info option;
  ev_align : Ledger.align_info option;
  ev_failure : string option;
}

let cache_evidence tier =
  {
    ev_source = (match tier with `Mem -> "cache:mem" | `Disk -> "cache:disk");
    ev_run = None;
    ev_align = None;
    ev_failure = None;
  }

let dead_evidence =
  { ev_source = "dead"; ev_run = None; ev_align = None; ev_failure = None }

let run_evidence (run' : Interp.run) =
  let outcome =
    match run'.Interp.outcome with
    | Ok () -> "ok"
    | Error Interp.Budget_exhausted -> "budget-exhausted"
    | Error (Interp.Crashed msg) -> "crashed: " ^ msg
  in
  {
    Ledger.outcome;
    steps = run'.Interp.steps;
    switch_fired = run'.Interp.switch_fired;
  }

(* {2 Checkpoints and resume replay}

   After every batch the coordinator appends a checkpoint: the guard's
   cumulative counters, failure journal and breaker table plus the
   store's counters — everything a resumed run cannot recompute from
   the events alone.  All of it is merged in submission order upstream,
   so checkpoints are j-invariant like every other ledger event. *)

let make_checkpoint (s : Session.t) =
  let g = Guard.stats s.Session.guard in
  let st = Store.stats s.Session.store in
  {
    Ledger.ck_guard =
      {
        Ledger.g_completed = g.Guard.completed;
        g_aborted = g.Guard.aborted;
        g_breaker_trips = g.Guard.breaker_trips;
        g_breaker_skips = g.Guard.breaker_skips;
        g_captured = g.Guard.captured;
      };
    ck_failures =
      List.map
        (fun (sid, f) -> (sid, Guard.failure_code f))
        (Guard.failures s.Session.guard);
    ck_breakers =
      List.map
        (fun b ->
          {
            Ledger.b_sid = b.Guard.bk_sid;
            b_consecutive = b.Guard.bk_consecutive;
            b_opened = b.Guard.bk_opened;
          })
        (Guard.breaker_states s.Session.guard);
    ck_store =
      {
        Ledger.st_hits = st.Store.hits;
        st_disk_hits = st.Store.disk_hits;
        st_misses = st.Store.misses;
        st_corrupted = st.Store.corrupted;
        st_writes = st.Store.writes;
      };
  }

(* Overwrite guard, store and run-count state from a replayed
   checkpoint: the resumed session continues exactly where the
   journaled one stopped.  Scheduler-local metrics (the "pool." tree)
   are NOT restored — they describe work this process performed, which
   is precisely what the resume avoided. *)
let apply_checkpoint (s : Session.t) (ck : Ledger.checkpoint) =
  let g = ck.Ledger.ck_guard in
  Guard.restore s.Session.guard
    ~stats:
      {
        Guard.completed = g.Ledger.g_completed;
        aborted = g.Ledger.g_aborted;
        breaker_trips = g.Ledger.g_breaker_trips;
        breaker_skips = g.Ledger.g_breaker_skips;
        captured = g.Ledger.g_captured;
      }
    ~failures:
      (List.map
         (fun (sid, code) ->
           (* codes come from [Guard.failure_code] and always parse; a
              hand-edited ledger degrades to a captured note, not a
              crash *)
           ( sid,
             Option.value
               (Guard.failure_of_code code)
               ~default:(Guard.Captured ("unreadable failure code: " ^ code))
           ))
         ck.Ledger.ck_failures)
    ~breakers:
      (List.map
         (fun b ->
           {
             Guard.bk_sid = b.Ledger.b_sid;
             bk_consecutive = b.Ledger.b_consecutive;
             bk_opened = b.Ledger.b_opened;
           })
         ck.Ledger.ck_breakers);
  let st = ck.Ledger.ck_store in
  Store.restore_stats s.Session.store
    {
      Store.hits = st.Ledger.st_hits;
      disk_hits = st.Ledger.st_disk_hits;
      misses = st.Ledger.st_misses;
      corrupted = st.Ledger.st_corrupted;
      writes = st.Ledger.st_writes;
    }

let unique_pairs pairs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun pu ->
      if Hashtbl.mem seen pu then false
      else begin
        Hashtbl.replace seen pu ();
        true
      end)
    pairs

(* A recorded batch matches a live call iff the pre-dedup query count
   and the unique pairs (in first-occurrence order) agree — the same
   deterministic spine the live planner resolves on. *)
let replay_matches (g : Session.replay_group) pairs =
  g.Session.rg_queries = List.length pairs
  && g.Session.rg_pairs = unique_pairs pairs

(* Consume one recorded batch instead of re-running it: count the
   queries, seed the store with the recorded verdicts (no counter
   moves; a "dead" pair was never persisted live and is not seeded),
   re-emit the recorded events verbatim, then restore the cumulative
   guard/store/run-count state from the trailing checkpoint.

   The coordinator's [verify.batch] span is emitted with exactly the
   args a live batch would get (identical args are what make the two
   spans compare equal): the lane-0 decision spine of a resumed run
   then matches the uninterrupted run's span for span, while worker
   lanes stay empty — nothing re-executed.  That is the invariant
   behind {!Exom_obs.Spine}'s [Coordinator] projection being
   replay-invariant. *)
let replay_batch (s : Session.t) ~mode (g : Session.replay_group) rest pairs =
  let obs = s.Session.obs in
  s.Session.replay <- rest;
  Obs.add obs "verify.queries" (List.length pairs);
  Obs.with_span obs ~cat:"verify"
    ~args:[ ("pairs", string_of_int (List.length pairs)) ]
    "verify.batch"
  @@ fun () ->
  List.iter
    (fun ((p, u), (r, source)) ->
      if source <> "dead" then
        Store.seed s.Session.store ~key:(pair_key s ~mode ~p ~u)
          (encode_result r))
    g.Session.rg_verdicts;
  (match s.Session.ledger with
  | None -> ()
  | Some l -> List.iter (Ledger.append l) g.Session.rg_events);
  (match g.Session.rg_checkpoint with
  | None -> ()
  | Some ck -> apply_checkpoint s ck);
  (match Metrics.find (Obs.metrics obs) "verify.run" with
  | Some m -> m.Metrics.count <- g.Session.rg_total_runs
  | None ->
    Metrics.restore (Obs.metrics obs) ~kind:Metrics.Timer ~name:"verify.run"
      ~count:g.Session.rg_total_runs ~value:0 ~seconds:0.0 ~min_s:infinity
      ~max_s:neg_infinity);
  List.map (fun pu -> fst (List.assoc pu g.Session.rg_verdicts)) pairs

(* {2 The batch verification planner}

   One call verifies a whole wave of (p, u) candidates:

   1. {b resolve}: store hits are answered on the coordinator; the
      remaining unique pairs are the misses, kept in first-occurrence
      order (the deterministic spine of everything below).
   2. {b dedup}: misses sharing a predicate instance p share {e one}
      switched re-execution — the paper's verifier re-ran the program
      per pair; one run per p is the batch planner's main saving.
   3. {b dispatch}: p-groups are grouped again by static predicate sid
      and each sid becomes one pool task, because the circuit breaker
      is a per-sid sequential state machine — serializing a sid's runs
      on one worker (in submission order) makes breaker decisions
      independent of the job count.  Workers accumulate into private
      {!Guard.shard}s and {!Obs.t} shards (forked on the coordinator at
      construction time, so span lanes are assigned deterministically)
      and write verdicts into disjoint slots of a shared array.
   4. {b merge}: guard and obs shards are absorbed in submission order,
      fresh verdicts are persisted in miss order, results are returned
      in the caller's pair order — bit-identical reports at any -j. *)
let verify_batch ?(mode = Edge_approximation) ?pool (s : Session.t) pairs =
  match pairs with
  | [] -> []
  | _ -> (
    match s.Session.replay with
    | g :: rest when replay_matches g pairs ->
      replay_batch s ~mode g rest pairs
    | replay ->
    (* a non-empty cursor that doesn't match means the journal diverged
       from this session: drop it and verify live from here on *)
    if replay <> [] then s.Session.replay <- [];
    let pool = match pool with Some p -> p | None -> Pool.default () in
    let obs = s.Session.obs in
    Obs.add obs "verify.queries" (List.length pairs);
    Obs.with_span obs ~cat:"verify"
      ~args:[ ("pairs", string_of_int (List.length pairs)) ]
      "verify.batch"
    @@ fun () ->
    (* resolve: store hits on the coordinator, unique misses in order *)
    let resolved = Hashtbl.create 64 in
    let evidence_tbl = Hashtbl.create 64 in
    let miss_key = Hashtbl.create 64 in
    let miss_order = ref [] in
    List.iter
      (fun (p, u) ->
        if
          (not (Hashtbl.mem resolved (p, u)))
          && not (Hashtbl.mem miss_key (p, u))
        then begin
          let key = pair_key s ~mode ~p ~u in
          match
            Option.bind (Store.find_tier s.Session.store key)
              (fun (payload, tier) ->
                Option.map (fun r -> (r, tier)) (decode_result payload))
          with
          | Some (r, tier) ->
            Hashtbl.replace resolved (p, u) r;
            Hashtbl.replace evidence_tbl (p, u) (cache_evidence tier)
          | None ->
            Hashtbl.replace miss_key (p, u) key;
            miss_order := (p, u) :: !miss_order
        end)
      pairs;
    let misses = List.rev !miss_order in
    let dispatched_runs = ref 0 in
    (match misses with
    | [] -> ()
    | _ ->
      let answers = Array.make (List.length misses) None in
      let evs = Array.make (List.length misses) None in
      let indexed = List.mapi (fun i pu -> (i, pu)) misses in
      (* one switched run per predicate instance p ... *)
      let by_p = Batch.group_by ~key:(fun (_, (p, _)) -> p) indexed in
      (* ... and all runs of one static predicate on one worker *)
      let sid_of p = (Trace.get s.Session.trace p).Trace.sid in
      let by_sid = Batch.group_by ~key:(fun (p, _) -> sid_of p) by_p in
      Guard.prepare s.Session.guard ~sids:(List.map fst by_sid);
      (* [Obs.fork] runs here, on the coordinator, while verify.batch is
         the open span: lanes are numbered in submission order and every
         worker's top-level spans parent to this batch. *)
      let task (_sid, pgroups) =
        let wobs = Obs.fork obs in
        fun () ->
          let shard = Guard.new_shard () in
          List.iter
            (fun (p, items) ->
              let sid = sid_of p in
              Obs.with_span wobs ~cat:"verify"
                ~args:[ ("p", string_of_int p) ]
                "verify.reexec"
              @@ fun () ->
              match
                Guard.execute_in s.Session.guard shard ~sid
                  ~run:(fun () -> switched_run s wobs ~p)
              with
              | Guard.Skipped f ->
                let ev =
                  {
                    ev_source = "skip";
                    ev_run = None;
                    ev_align = None;
                    ev_failure = Some (Guard.failure_to_string f);
                  }
                in
                List.iter
                  (fun (i, _) ->
                    answers.(i) <- Some not_id;
                    evs.(i) <- Some ev)
                  items
              | (Guard.Completed run' | Guard.Degraded (run', _)) as oc ->
                let degraded =
                  match oc with
                  | Guard.Degraded (_, f) -> Some (Guard.failure_to_string f)
                  | _ -> None
                in
                let rinfo = run_evidence run' in
                let region' =
                  lazy
                    (match run'.Interp.trace with
                    | Some trace' -> Region.build trace'
                    | None -> assert false (* forced only under Some *))
                in
                Obs.with_span wobs ~cat:"verify" "verify.align" @@ fun () ->
                List.iter
                  (fun (i, (_, u)) ->
                    let r, al, fail =
                      try
                        let r, al =
                          classify ~obs:wobs s ~mode ~run' ~region' ~p ~u
                        in
                        (r, al, degraded)
                      with exn ->
                        (* e.g. alignment over a chaos-corrupted trace:
                           contain, degrade *)
                        let msg = Printexc.to_string exn in
                        Guard.note_captured_in shard ~sid ~msg;
                        ( not_id,
                          None,
                          Some (Guard.failure_to_string (Guard.Captured msg)) )
                    in
                    answers.(i) <- Some r;
                    evs.(i) <-
                      Some
                        {
                          ev_source = "run";
                          ev_run = Some rinfo;
                          ev_align = al;
                          ev_failure = fail;
                        })
                  items)
            pgroups;
          (shard, wobs)
      in
      let outcomes = Pool.run ~obs pool (List.map task by_sid) in
      (* merge in submission order: reports are j-independent *)
      List.iter2
        (fun (sid, pgroups) outcome ->
          match outcome with
          | Ok (shard, wobs) ->
            Guard.absorb s.Session.guard shard;
            Obs.absorb ~into:obs wobs
          | Error exn ->
            (* The task raised past the guard: its shard and obs fork
               are discarded, so nothing it half-computed is trusted —
               wipe any slots it wrote before raising, or the batch's
               verdicts and accounting would come from runs that were
               never charged anywhere.  The raise is deterministic, so
               the wipe is identical at every job count. *)
            Guard.note_captured s.Session.guard ~sid
              ~msg:(Printexc.to_string exn);
            List.iter
              (fun (_, items) ->
                List.iter
                  (fun (i, _) ->
                    answers.(i) <- None;
                    evs.(i) <- Some dead_evidence)
                  items)
              pgroups)
        by_sid outcomes;
      List.iteri
        (fun i (p, u) ->
          (match answers.(i) with
          | Some r ->
            Hashtbl.replace resolved (p, u) r;
            Store.add s.Session.store ~key:(Hashtbl.find miss_key (p, u))
              (encode_result r)
          | None ->
            (* unanswered (task died): NOT_ID, but never persisted *)
            Hashtbl.replace resolved (p, u) not_id);
          Hashtbl.replace evidence_tbl (p, u)
            (match evs.(i) with Some e -> e | None -> dead_evidence))
        misses;
      (* switched runs actually performed: distinct predicate instances
         among the misses that were not skipped *)
      let ran = Hashtbl.create 16 in
      List.iteri
        (fun i (p, _) ->
          match evs.(i) with
          | Some { ev_source = "run"; _ } -> Hashtbl.replace ran p ()
          | _ -> ())
        misses;
      dispatched_runs := Hashtbl.length ran);
    (* Ledger emission: coordinator-only, in first-occurrence pair order
       (the same deterministic spine as resolution), after the merge. *)
    (match s.Session.ledger with
    | None -> ()
    | Some l ->
      let seen = Hashtbl.create 64 in
      let uniq = ref 0 in
      List.iter
        (fun (p, u) ->
          if not (Hashtbl.mem seen (p, u)) then begin
            Hashtbl.replace seen (p, u) ();
            incr uniq;
            let r = Hashtbl.find resolved (p, u) in
            let e =
              match Hashtbl.find_opt evidence_tbl (p, u) with
              | Some e -> e
              | None -> dead_evidence
            in
            Ledger.verify l ~p:(Session.linst s p) ~u:(Session.linst s u)
              ~verdict:(Verdict.to_string r.Verdict.verdict)
              ~value_affected:r.Verdict.value_affected ~source:e.ev_source
              ?run:e.ev_run ?align:e.ev_align ?failure:e.ev_failure ()
          end)
        pairs;
      Ledger.batch l ~queries:(List.length pairs) ~unique:!uniq
        ~cache_hits:(!uniq - List.length misses) ~runs:!dispatched_runs
        ~total_runs:(Metrics.timer_count (Obs.metrics obs) "verify.run");
      (* the resumable state, right behind the batch it closes *)
      Ledger.checkpoint l (make_checkpoint s));
    List.map (fun (p, u) -> Hashtbl.find resolved (p, u)) pairs)

(* The single-pair entry points route through the batch planner with an
   inline pool, so cached/sequential/parallel paths share one engine
   (and therefore one accounting scheme). *)
let seq_pool = lazy (Pool.create ~jobs:1 ())

let verify_full ?mode (s : Session.t) ~p ~u =
  match verify_batch ?mode ~pool:(Lazy.force seq_pool) s [ (p, u) ] with
  | [ r ] -> r
  | _ -> assert false

let verify ?mode (s : Session.t) ~p ~u =
  (verify_full ?mode s ~p ~u).Verdict.verdict
