(** The demand-driven fault-locating procedure (Algorithm 2,
    LocateFault): prune the dynamic slice with confidence analysis and
    oracle feedback, expand it along verified (strong) implicit
    dependence edges, repeat until the root cause enters the pruned
    slice.  The {!report} carries every quantity of the paper's
    Tables 2-4. *)

type report = {
  found : bool;
  user_prunings : int;
      (** Table 3: # of user prunings — marks needed to reach the
          minimal {e initial} pruned slice, the paper's definition *)
  total_prunings : int;
      (** all oracle marks across the whole demand-driven run *)
  verifications : int;  (** Table 3: # of verifications (re-executions) *)
  verify_queries : int;
      (** verdicts requested, cache hits and deduped runs included
          (≥ [verifications]) *)
  iterations : int;  (** Table 3: # of iterations *)
  expanded_edges : int;  (** Table 3: # of expanded edges *)
  implicit_edges : (int * int) list;
  benign : int list;  (** instances pruned as benign by the oracle *)
  ips : Exom_ddg.Slice.t;  (** final pruned expanded slice (Table 3 IPS) *)
  ds : Exom_ddg.Slice.t;  (** plain dynamic slice (Table 2 DS) *)
  ps0 : Exom_ddg.Slice.t;  (** initial pruned slice (Table 2 PS) *)
  os_chain : int list option;
      (** failure-inducing dependence chain (Table 3 OS) *)
  verif_seconds : float;  (** Table 4 Verif. *)
  robustness : Guard.stats;
      (** robustness telemetry: completed/aborted re-executions,
          breaker trips and skips, contained exceptions.
          [completed + aborted = verifications]. *)
  store : Exom_sched.Store.stats;
      (** verdict-store counters: memory/disk hits, misses, corrupted
          entries rejected, writes *)
  failures : (int * Guard.verify_failure) list;
      (** journal of every degraded verification, oldest first: (static
          predicate sid, failure) *)
  degraded : string option;
      (** [Some reason] when the expansion loop was cut short by a
          contained exception; the slices and counts cover the search up
          to that point *)
}

type config = {
  max_iterations : int;
  verify_mode : Verify.mode;
      (** edge approximation (the paper's default) or safe path mode *)
  ranking : bool;
      (** evidence-driven verification ordering ({!Exom_rank.Rank}):
          each expansion's candidates verify in descending
          posterior-yield order with an early-exit policy cutting
          low-yield instance tails, and the guard's per-predicate
          breaker thresholds are re-tuned from the failure journal
          between batches.  Ordering, cuts and scores are
          byte-deterministic (recorded as ledger [Rank] events) and
          invariant across [-j], warm/cold stores and kill/resume.
          [false] restores the paper's static order and the static
          breaker threshold. *)
}

(** 40 iterations, edge approximation, ranked.  Each expansion
    verifies at most the latest 4 instances of each static predicate
    in PD(u), and each verified edge at most 64 related targets. *)
val default_config : config

(** [locate s ~oracle ~root_sids]: run the procedure; [root_sids] is the
    seeded fault's ground truth, used — as in the paper's evaluation —
    only to decide that the error has been located.  [pool] supplies the
    verification scheduler's worker pool ({!Exom_sched.Pool.default}
    when omitted); the report is identical at any job count. *)
val locate :
  ?config:config ->
  ?pool:Exom_sched.Pool.t ->
  Session.t ->
  oracle:Oracle.t ->
  root_sids:int list ->
  report
