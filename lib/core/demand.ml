module Confidence = Exom_conf.Confidence
module Ledger = Exom_ledger.Ledger
module Obs = Exom_obs.Obs
module Prune = Exom_conf.Prune
module Rank = Exom_rank.Rank
module Relevant = Exom_ddg.Relevant
module Slice = Exom_ddg.Slice
module Store = Exom_sched.Store
module Trace = Exom_interp.Trace

(* The demand-driven procedure (Algorithm 2, LocateFault): alternate
   confidence-based pruning with implicit-dependence expansion until the
   root cause enters the pruned slice.

   The harness plays the role of the paper's experimenters: the oracle
   answers the interactive-pruning questions (benign program state?) and
   the known root cause decides when the error has been located —
   exactly how Table 3's user prunings / verifications / iterations /
   expanded edges were measured.

   Verification is dispatched in waves through {!Verify.verify_batch}:
   each PD fan-out and each related-target fan-out becomes one batch,
   which the scheduler dedups (one switched run per predicate instance)
   and spreads over the pool.  Everything *between* batches — slicing,
   confidence, pruning, target selection — stays on the coordinator,
   so the search itself is exactly the sequential algorithm. *)

type report = {
  found : bool;
  user_prunings : int;
      (* marks needed to reach the minimal *initial* pruned slice — the
         paper's Table 3 definition ("before the system can acquire the
         minimal pruned slice"); later rounds' marks are in
         total_prunings *)
  total_prunings : int;
  verifications : int;
  verify_queries : int;
  iterations : int;
  expanded_edges : int;
  implicit_edges : (int * int) list;  (* (switched predicate, target) *)
  benign : int list;  (* instances the oracle vouched for *)
  ips : Slice.t;  (* final pruned expanded slice *)
  ds : Slice.t;  (* initial dynamic slice, for Table 2 *)
  ps0 : Slice.t;  (* initial pruned slice (before expansion), for Table 2 *)
  os_chain : int list option;  (* failure-inducing dependence chain *)
  verif_seconds : float;
  robustness : Guard.stats;  (* snapshot of the session's guard counters *)
  store : Store.stats;  (* snapshot of the verdict store's counters *)
  failures : (int * Guard.verify_failure) list;
      (* journal of degraded verifications, oldest first *)
  degraded : string option;
      (* [Some reason] when the expansion loop itself was cut short by a
         contained exception: the report covers what was computed *)
}

type config = {
  max_iterations : int;
  verify_mode : Verify.mode;  (* edge approximation (paper) or safe paths *)
  ranking : bool;
      (* evidence-driven candidate ordering + early exit; [false] is the
         paper's static order (and the static breaker threshold) *)
}

let default_config =
  { max_iterations = 40; verify_mode = Verify.Edge_approximation;
    ranking = true }

(* Bound on the "foreach t: p in PD(t)" loop. *)
let max_related_targets = 64

(* Verifications per static predicate in one PD(u): hot predicates can
   have hundreds of qualifying instances; the latest K carry the
   freshest state (and K must cover the fault-relevant one — a single
   "latest" misses faults on earlier iterations). *)
let max_instances_per_pred = 4

(* Thin PD candidates to the latest [max_instances_per_pred] instances
   of each static predicate. *)
let dedup_by_sid trace candidates =
  let by_sid = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let sid = (Trace.get trace p).Trace.sid in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_sid sid) in
      Hashtbl.replace by_sid sid (p :: cur))
    candidates;
  Hashtbl.fold
    (fun _ ps acc ->
      let latest_first = List.sort (fun a b -> compare b a) ps in
      List.filteri (fun i _ -> i < max_instances_per_pred) latest_first
      @ acc)
    by_sid []
  |> List.sort compare

let locate ?(config = default_config) ?pool (s : Session.t) ~oracle
    ~root_sids =
  let trace = s.Session.trace in
  let obs = s.Session.obs in
  Obs.with_span obs ~cat:"demand" "demand.locate" @@ fun () ->
  (* All ledger appends below run on the coordinator, between batches,
     over coordinator-computed data — the search is identical at any -j,
     so the ledger is too. *)
  let ledger = s.Session.ledger in
  (match ledger with
  | Some l ->
    Ledger.locate l ~root_sids
      ~mode:
        (match config.verify_mode with
        | Verify.Edge_approximation -> "edge"
        | Verify.Path_exact -> "path")
      ~max_iterations:config.max_iterations
  | None -> ());
  let snapshot_slice ~iter ps =
    match ledger with
    | None -> ()
    | Some l ->
      Ledger.slice l ~iter
        (List.map
           (fun e ->
             let li = Session.linst s e.Prune.idx in
             {
               Ledger.s_idx = e.Prune.idx;
               s_sid = li.Ledger.sid;
               s_line = li.Ledger.line;
               s_conf = e.Prune.confidence;
               s_dist = e.Prune.distance;
             })
           (Prune.entries ps))
  in
  (* The scorer, fed every verdict a batch returns.  Returned verdicts
     are identical whether they came from a live run, the store, or a
     resume replay, so scores — and with them ordering and early-exit
     decisions — are invariant across -j, warm/cold stores, and
     kill/resume. *)
  let rank = if config.ranking then Some (Rank.create ()) else None in
  let verify_batch pairs =
    let rs = Verify.verify_batch ~mode:config.verify_mode ?pool s pairs in
    (match rank with
    | None -> ()
    | Some r ->
      List.iter2
        (fun (p, _) (v : Verdict.result) ->
          let sid = (Trace.get trace p).Trace.sid in
          let verdict =
            match v.Verdict.verdict with
            | Verdict.Strong_id -> `Strong_id
            | Verdict.Id -> `Id
            | Verdict.Not_id -> `Not_id
          in
          Rank.observe r ~sid ~verdict)
        pairs rs;
      (* the ledger-tuned breaker thresholds ride the same evidence
         loop: the failure journal is merged in submission order (and
         restored from checkpoints on resume), so the derived thresholds
         are as deterministic as the scores *)
      Guard.auto_tune s.Session.guard);
    rs
  in
  (* Make the journal durable at iteration boundaries: everything up to
     and including the last snapshot survives a kill (the journal is
     flushed per event; [sync] adds the fsync).  No-op without an
     attached journal. *)
  let durable () = match ledger with Some l -> Ledger.sync l | None -> () in
  (* (switched predicate, target, value_affected): all edges extend the
     dependence graph; only value-affecting ones may pin predicates
     during confidence propagation (see Verify). *)
  let implicit = ref [] in
  let extra idx =
    List.filter_map
      (fun (p, t, _) -> if t = idx then Some p else None)
      !implicit
  in
  let pinning_edges () =
    List.filter_map
      (fun (p, t, affected) -> if affected then Some (p, t) else None)
      !implicit
  in
  let all_edges () = List.map (fun (p, t, _) -> (p, t)) !implicit in
  let benign = ref [] in
  let user_prunings = ref 0 in
  let expanded = Hashtbl.create 16 in
  (* instances already used for expansion *)
  let criterion = s.Session.wrong_output in
  let slice () = Slice.compute ~extra trace ~criteria:[ criterion ] in
  let conf () =
    Confidence.compute s.Session.info s.Session.profile trace
      ~correct:s.Session.correct_outputs ~benign:!benign
      ~implicit:(pinning_edges ())
  in
  let pruned () =
    Prune.compute ~extra trace ~slice:(slice ()) ~conf:(conf ()) ~criterion
  in
  (* Interactive pruning: present ranked instances; the oracle marks
     benign state; stop when everything presented is corrupted.  One
     confidence recomputation per sweep (each mark still counts as one
     user interaction, as in Table 3). *)
  let rec prune_interactively ~iter ps =
    let benign_entries =
      List.filter (fun e -> Oracle.benign oracle e.Prune.idx) (Prune.entries ps)
    in
    match benign_entries with
    | [] -> ps
    | marked ->
      user_prunings := !user_prunings + List.length marked;
      let idxs = List.map (fun e -> e.Prune.idx) marked in
      (match ledger with
      | Some l -> Ledger.prune l ~iter ~marked:idxs
      | None -> ());
      benign := idxs @ !benign;
      prune_interactively ~iter (pruned ())
  in
  let root_reached ps =
    List.exists (fun sid -> Prune.mem_sid trace ps sid) root_sids
  in
  (* One expansion attempt: select use [u], verify its potential
     dependences (one batch), add the verified (strong) implicit edges —
     strong edges override plain ones (Algorithm 2 lines 10-11).
     Returns whether any edge was added. *)
  let edges_added = ref 0 in
  let iterations = ref 0 in
  let expand u =
    Hashtbl.replace expanded u ();
    (* PD(u), minus anything already explicitly reaching u (Definition 2
       requires no explicit dependence path) *)
    let u_slice = Slice.compute ~extra trace ~criteria:[ u ] in
    let pd =
      Relevant.pd s.Session.rel u
      |> List.filter (fun p -> not (Slice.mem u_slice p))
      |> dedup_by_sid trace
    in
    (match ledger with
    | Some l ->
      (* this expansion belongs to the iteration being built, one past
         the completed count *)
      Ledger.expand l ~iter:(!iterations + 1) ~u:(Session.linst s u)
        ~candidates:pd
    | None -> ());
    (* Evidence-driven ordering: candidates verify in descending score
       order (ties keep the static order), and a predicate's surplus
       instances are cut once its posterior yield has sunk below the
       early-exit threshold.  Both the order and every cut are recorded
       as a Rank event so [explain] can narrate them. *)
    let pd =
      match rank with
      | None -> pd
      | Some r ->
        let decisions =
          Rank.plan r
            (List.map (fun p -> (p, (Trace.get trace p).Trace.sid)) pd)
        in
        (match (ledger, decisions) with
        | Some l, _ :: _ ->
          Ledger.rank l ~iter:(!iterations + 1) ~u:(Session.linst s u)
            ~prior:Rank.prior
            ~decisions:
              (List.map
                 (fun d ->
                   {
                     Ledger.rd_idx = d.Rank.d_idx;
                     rd_sid = d.Rank.d_sid;
                     rd_score = d.Rank.d_score;
                     rd_kept = d.Rank.d_kept;
                   })
                 decisions)
        | _ -> ());
        List.filter_map
          (fun d -> if d.Rank.d_kept then Some d.Rank.d_idx else None)
          decisions
    in
    let verdicts =
      List.combine pd (verify_batch (List.map (fun p -> (p, u)) pd))
    in
    let strong =
      List.filter
        (fun (_, r) -> r.Verdict.verdict = Verdict.Strong_id)
        verdicts
    in
    let weak =
      List.filter (fun (_, r) -> r.Verdict.verdict = Verdict.Id) verdicts
    in
    let wanted = if strong <> [] then Verdict.Strong_id else Verdict.Id in
    let chosen = if strong <> [] then strong else weak in
    let strength = if strong <> [] then "strong" else "weak" in
    let record_edge ~p ~t ~value_affected ~related =
      match ledger with
      | Some l ->
        Ledger.edge l ~p:(Session.linst s p) ~u:(Session.linst s t) ~strength
          ~value_affected ~related
      | None -> ()
    in
    List.iter
      (fun (p, (r : Verdict.result)) ->
        implicit := (p, u, r.Verdict.value_affected) :: !implicit;
        record_edge ~p ~t:u ~value_affected:r.Verdict.value_affected
          ~related:false;
        incr edges_added;
        (* Verify the other uses potentially depending on p, enabling
           more pruning (Figure 5): targets come from both the failure's
           and the correct outputs' slices — the latter are the ones
           whose high confidence can sanitize p.  Target selection
           (slices, PD membership, the bound) happens before the batch
           and depends only on edges added so far, so batching the
           verifications is exactly the sequential loop. *)
        let correct_slice =
          Slice.compute ~extra trace ~criteria:s.Session.correct_outputs
        in
        let targets =
          Slice.Iset.union
            (Slice.members (slice ()))
            (Slice.members correct_slice)
          |> Slice.Iset.elements
          |> List.filter (fun t -> t <> u && t > p)
        in
        let related = ref 0 in
        let selected = ref [] in
        List.iter
          (fun t ->
            if !related < max_related_targets then begin
              let pd_t = Relevant.pd s.Session.rel t in
              if List.mem p pd_t then begin
                incr related;
                selected := t :: !selected
              end
            end)
          targets;
        let ts = List.rev !selected in
        let rts = verify_batch (List.map (fun t -> (p, t)) ts) in
        List.iter2
          (fun t (rt : Verdict.result) ->
            if rt.Verdict.verdict = wanted then begin
              implicit := (p, t, rt.Verdict.value_affected) :: !implicit;
              record_edge ~p ~t ~value_affected:rt.Verdict.value_affected
                ~related:true;
              incr edges_added
            end)
          ts rts)
      chosen;
    chosen <> []
  in
  let ds = slice () in
  let ps = ref (prune_interactively ~iter:0 (pruned ())) in
  let initial_prunings = !user_prunings in
  let ps0 = Prune.as_slice trace !ps in
  snapshot_slice ~iter:0 !ps;
  durable ();
  let found = ref (root_reached !ps) in
  let exhausted = ref false in
  let degraded = ref None in
  (* Individual verifications are already contained by {!Guard}; this
     outer net catches anything the expansion/pruning machinery itself
     throws, so [locate] degrades instead of raising: the report then
     describes the search up to the failure point. *)
  (try
     while
       (not !found) && (not !exhausted) && !iterations < config.max_iterations
     do
       Obs.with_span obs ~cat:"demand"
         ~args:[ ("n", string_of_int !iterations) ]
         "demand.iteration"
       @@ fun () ->
       (* Walk the ranked unexpanded uses until one expansion verifies
          something; a full sweep with no new edges ends the search. *)
       let candidates =
         List.filter
           (fun e -> not (Hashtbl.mem expanded e.Prune.idx))
           (Prune.entries !ps)
       in
       let progress = List.exists (fun e -> expand e.Prune.idx) candidates in
       if progress then begin
         incr iterations;
         ps := prune_interactively ~iter:!iterations (pruned ());
         snapshot_slice ~iter:!iterations !ps;
         durable ();
         found := root_reached !ps
       end
       else exhausted := true
     done
   with exn -> degraded := Some (Printexc.to_string exn));
  (* Journal writes or syncs that failed were absorbed by the ledger
     (never silently): surface them here so the Final event and the
     report both say DEGRADED — the answer may be right, but its
     crash-replay provenance is incomplete. *)
  (match ledger with
  | Some l when !degraded = None && Ledger.io_failures l > 0 ->
    degraded :=
      Some
        (Printf.sprintf "io: %d journal write/sync failure(s)"
           (Ledger.io_failures l))
  | _ -> ());
  let ips = Prune.as_slice trace !ps in
  let os_chain =
    Slice.shortest_chain ~extra trace ~criterion ~from_sids:root_sids
  in
  (* Sync the session-cumulative guard and search counters into the
     metrics registry.  [sync] sets the counter to the current total (it
     adds the delta against whatever a previous locate on this session
     already recorded), so the tree is correct even across repeated
     calls. *)
  let sync name v =
    Obs.add obs name (v - Exom_obs.Metrics.counter_value (Obs.metrics obs) name)
  in
  let g = Guard.stats s.Session.guard in
  sync "guard.completed" g.Guard.completed;
  sync "guard.aborted" g.Guard.aborted;
  sync "guard.breaker_trips" g.Guard.breaker_trips;
  sync "guard.breaker_skips" g.Guard.breaker_skips;
  sync "guard.captured" g.Guard.captured;
  (* only when non-zero: a clean run's registry must stay byte-identical
     to the pre-Vfs baseline *)
  (match ledger with
  | Some l when Ledger.io_failures l > 0 ->
    sync "ledger.io_failures" (Ledger.io_failures l)
  | _ -> ());
  sync "demand.iterations" !iterations;
  sync "demand.expanded_edges" !edges_added;
  sync "demand.user_prunings" !user_prunings;
  sync "demand.benign" (List.length !benign);
  (match ledger with
  | Some l ->
    Ledger.final l ~found:!found ~iterations:!iterations ~edges:!edges_added
      ~user_prunings:initial_prunings ~total_prunings:!user_prunings
      ~verifications:(Session.verifications s)
      ~queries:(Session.verify_queries s) ~os_chain ~degraded:!degraded
  | None -> ());
  durable ();
  {
    found = !found;
    user_prunings = initial_prunings;
    total_prunings = !user_prunings;
    verifications = Session.verifications s;
    verify_queries = Session.verify_queries s;
    iterations = !iterations;
    expanded_edges = !edges_added;
    implicit_edges = all_edges ();
    benign = !benign;
    ips;
    ds;
    ps0;
    os_chain;
    verif_seconds = Session.verif_seconds s;
    robustness = Guard.snapshot (Guard.stats s.Session.guard);
    store = Store.snapshot (Session.store_stats s);
    failures = Guard.failures s.Session.guard;
    degraded = !degraded;
  }
